#!/usr/bin/env python3
"""Build the gcassert library and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--quick] [--fault NAME] [--results DIR]

Run from the repository root. The library is built from src/ with one
fixed build type into $CARGO_TARGET_DIR (default .bench_build). The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. A full record
(checks, effective configuration, host, compiler, build type, source
revision) is written under --results (default perfbench/out/results).
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("server-alldead", "heap-audit", "young-churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build gcbench; returns its path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build_dir = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "gcbench",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "gcbench")


def source_revision():
    """Git sha when the tree is a git checkout, plus a digest of the
    sources that were built (an exported tree has no .git)."""
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small inputs, for the self-test")
    ap.add_argument("--fault", default="",
                    help="corrupt one expectation (negative self-test)")
    ap.add_argument("--results", default=os.path.join(BENCH_DIR, "out",
                                                      "results"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()

    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(args.results, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if args.quick:
        cmd.append("--quick")
    if args.fault:
        cmd += ["--fault", args.fault]

    # Set-up time runs from the gcbench process's start to the end of
    # its warm-up, on the monotonic clock both processes share.
    with open(os.path.join(out_dir, tag + ".stderr"), "w") as err:
        spawned_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("gcbench exited with %d; see %s.stderr" % (proc.returncode, tag))
    doc = json.loads(lines[-1])

    values = dict(doc["e2e"])
    values["setup_s"] = (doc["setup_done_ns"] - spawned_ns) / 1e9
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = doc["layer"] if args.trace else values
    metrics = {}
    for m in wanted:
        v = source.get(m["name"])
        if v is None or not math.isfinite(v):
            fail("metric %s missing from gcbench's output" % m["name"])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    sha, digest = source_revision()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        "fault": args.fault, "git_sha": sha, "source_digest": digest,
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"], "checks": doc["checks"],
        "notes": doc["notes"], "config": doc["config"],
        "counts": doc["counts"], "window_s": doc["window_s"],
        "end_to_end": values, "per_layer": doc["layer"],
        "metrics": metrics,
    }
    with open(os.path.join(args.results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": bool(doc["correct"]),
                      "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
