#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by run.py (--results).
For every workload and metric the table gives each side's median and
quartiles (statistics.quantiles, n=4) over its untraced runs (traced
runs for the per-layer metrics) and the change of the medians. An
end-to-end metric whose new median is worse than the base median by
more than its bound in BENCHMARK.json is flagged; the exit status is 1
when anything is flagged, so the command works as a regression
tripwire.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, trace): [record, ...]} for the usable records."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("fault") or not rec.get("correct"):
            continue
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    flagged = 0
    header = "%-16s %-44s %28s %28s %8s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change")
    print(header)
    print("-" * len(header))
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            a = base.get((workload, trace), [])
            b = new.get((workload, trace), [])
            if not a or not b:
                continue
            for m in metrics:
                name = m["name"]
                va = [r["metrics"][name]["value"] for r in a]
                vb = [r["metrics"][name]["value"] for r in b]
                qa, ma, ra = summary(va)
                qb, mb, rb = summary(vb)
                change = (mb - ma) / ma if ma else 0.0
                worse = change if m["better"] == "lower" else -change
                mark = ""
                if "bound" in m and worse > m["bound"]:
                    mark = "  WORSE than bound %.2f" % m["bound"]
                    flagged += 1
                print("%-16s %-44s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g]"
                      " %+7.1f%%%s" % (workload, name, ma, qa, ra, mb, qb, rb,
                                        100 * change, mark))
    print("\n%d metric(s) worse than their bound" % flagged)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
