/**
 * @file
 * Shared pieces of gcbench: the clock, the seeded
 * generator, the latency histogram, per-layer call probes, the
 * outside-in collection observer and the result record every
 * workload fills.
 *
 * gcbench touches the library only through its public surface:
 * Runtime (and the counters it exposes), Handle, GcStats and the
 * telemetry metrics registry.
 */

#ifndef GCBENCH_COMMON_H
#define GCBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runtime/runtime.h"

namespace gcbench {

using gcassert::Object;
using gcassert::Runtime;
using gcassert::TypeId;

/** Monotonic nanoseconds (the clock the library's tracer uses). */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** SplitMix64: the benchmark's own generator, seeded per stream. */
class Rng {
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); n > 0. */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t state_;
};

/** Stream seed for (workload seed, stream index). */
uint64_t streamSeed(uint64_t seed, uint64_t stream);

/** Order-sensitive digest step used by every payload check. */
inline uint64_t
mixDigest(uint64_t digest, uint64_t value)
{
    return (digest ^ value) * 0x100000001B3ull + 0x9E3779B97F4A7C15ull;
}

/**
 * Log-linear latency histogram: 1024 sub-buckets per power of two
 * (about 0.1% resolution), so percentiles keep the run-to-run
 * variation of the measurement instead of snapping to coarse bins.
 */
class LatencyHist {
  public:
    LatencyHist();
    void record(uint64_t ns);
    uint64_t count() const { return count_; }
    /** Value at percentile @p p in (0, 100], interpolated within the
     *  bucket by rank. */
    double percentile(double p) const;

  private:
    static constexpr int kSubBits = 10;
    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
};

/** Median of a copy of @p values (0 when empty). */
double median(std::vector<uint64_t> values);
/** Percentile (nearest rank) of a copy of @p values (0 when empty). */
double percentileOf(std::vector<uint64_t> values, double p);

/** Layer entry points timed from outside in the traced run. */
enum Probe {
    kAlloc,          //!< runtime: allocRaw/allocLocal that ran no GC
    kWriteRef,       //!< runtime: writeRef
    kDropLocalRoots, //!< runtime: dropLocalRoots
    kStartRegion,    //!< assertions: startRegion
    kAssertAllDead,  //!< assertions: assertAllDead
    kRegister,       //!< assertions: assertDead/Instances/Unshared/OwnedBy
    kNumProbes,
};

struct CallStat {
    uint64_t calls = 0;
    uint64_t nanos = 0;
    void add(uint64_t ns) { ++calls; nanos += ns; }
    double meanNs() const
    {
        return calls ? static_cast<double>(nanos) / calls : 0.0;
    }
};

/** One span recorded by the benchmark around a call into a layer. */
struct Span {
    const char *name;
    uint64_t beginNs;
    uint64_t endNs;
    uint64_t op;
};

/** Cumulative collector counters, read from GcStats. */
struct GcSnapshot {
    uint64_t collections = 0;
    uint64_t minors = 0;
    uint64_t marked = 0;
    uint64_t swept = 0;
    uint64_t sweptBytes = 0;
    uint64_t steals = 0;
    uint64_t promoted = 0;
    uint64_t remsetSources = 0;
    uint64_t ownershipNs = 0;
    uint64_t traceNs = 0;
    uint64_t finishNs = 0;
    uint64_t sweepNs = 0;
    uint64_t liveObjects = 0;
    uint64_t liveBytes = 0;

    static GcSnapshot read(Runtime &rt);
};

/** One full collection as seen from outside, with its phase split. */
struct FullGcSample {
    uint64_t pauseNs = 0;
    uint64_t ownershipNs = 0;
    uint64_t markNs = 0;
    uint64_t finishNs = 0;
    uint64_t sweepNs = 0;
    uint64_t marked = 0;
    uint64_t swept = 0;
    uint64_t sweptBytes = 0;
    uint64_t liveObjects = 0;
    uint64_t liveBytes = 0;
    uint64_t steals = 0;
};

/**
 * Watches the collector from outside. after() is called right after
 * any call that may have collected, with that call's start time; it
 * compares two cheap counters and, when a collection ran, times the
 * call as its pause and records the GcStats phase split.
 *
 * Not thread-safe: every workload calls it from its one mutator
 * thread, the only thread that enters the runtime.
 */
class GcObserver {
  public:
    explicit GcObserver(Runtime &rt);

    /** @return true when the call that began at @p t0 collected. */
    bool
    after(uint64_t t0)
    {
        if (rt_.collections() == last_.collections &&
            rt_.gcStats().minorCollections == last_.minors)
            return false;
        record(t0, nowNs());
        return true;
    }

    void setWindow(bool on) { inWindow_ = on; }

    uint64_t fullSeen() const { return fullSeen_; }
    uint64_t minorSeen() const { return minorSeen_; }
    /** Full collections whose phase times summed past the pause. */
    uint64_t phaseSumOverPause() const { return phaseOver_; }

    /** @name Window-only observations
     *  @{ */
    std::vector<FullGcSample> full;
    std::vector<uint64_t> minorPausesNs;
    uint64_t stwNs = 0;
    uint64_t windowMinors = 0;
    uint64_t windowPromoted = 0;
    uint64_t windowRemsetSources = 0;
    /** @} */

    /** Spans of the collections seen in the window (traced run). */
    std::vector<Span> spans;
    bool recordSpans = false;

  private:
    void record(uint64_t t0, uint64_t t1);

    Runtime &rt_;
    GcSnapshot last_;
    bool inWindow_ = false;
    uint64_t fullSeen_ = 0;
    uint64_t minorSeen_ = 0;
    uint64_t phaseOver_ = 0;
};

/**
 * The mutator's calls into the runtime, timed from outside. Every
 * allocation is checked for a collection it ran, which counts as a
 * pause, not as an allocation sample. Probes and spans are kept only
 * while `timing` is set.
 */
class Caller {
  public:
    Caller(Runtime &rt, GcObserver &gc,
           gcassert::MutatorContext *mutator = nullptr)
        : rt_(rt), gc_(gc), mutator_(mutator)
    {
    }

    Object *
    allocRaw(TypeId type)
    {
        uint64_t t0 = nowNs();
        return allocated(rt_.allocRaw(type, mutator_), t0);
    }

    Object *
    allocLocal(TypeId type)
    {
        uint64_t t0 = nowNs();
        return allocated(rt_.allocLocal(type, mutator_), t0);
    }

    Object *
    allocArray(TypeId type, uint32_t length)
    {
        uint64_t t0 = nowNs();
        return allocated(rt_.allocArrayRaw(type, length, mutator_), t0);
    }

    /** True when the last allocation ran a collection. */
    bool collectedLast() const { return collected_; }

    /** An explicit full collection, timed like any other. */
    void
    collect()
    {
        uint64_t t0 = nowNs();
        rt_.collect();
        gc_.after(t0);
    }

    void
    writeRef(Object *src, uint32_t slot, Object *target)
    {
        timed(kWriteRef, "runtime.write_ref",
              [&] { rt_.writeRef(src, slot, target); });
    }

    void
    dropLocalRoots()
    {
        timed(kDropLocalRoots, "runtime.drop_local_roots",
              [&] { rt_.dropLocalRoots(mutator_); });
    }

    template <typename F>
    void
    timed(Probe p, const char *name, F &&f)
    {
        if (!timing) {
            f();
            return;
        }
        uint64_t t0 = nowNs();
        f();
        record(p, name, t0);
    }

    /** Name the op whose calls follow; @p sampled keeps their spans. */
    void
    beginOp(uint64_t op, bool sampled)
    {
        op_ = op;
        sampled_ = sampled;
    }

    void
    opSpan(const char *name, uint64_t t0, uint64_t t1)
    {
        if (sampled_)
            spans.push_back(Span{name, t0, t1, op_});
    }

    bool timing = false;
    CallStat probes[kNumProbes];
    std::vector<Span> spans;
    /** Objects this caller allocated. */
    uint64_t objects = 0;

  private:
    Object *
    allocated(Object *obj, uint64_t t0)
    {
        ++objects;
        collected_ = gc_.after(t0);
        if (!collected_ && timing)
            record(kAlloc, "runtime.alloc", t0);
        return obj;
    }

    void
    record(Probe p, const char *name, uint64_t t0)
    {
        uint64_t t1 = nowNs();
        probes[p].add(t1 - t0);
        if (sampled_)
            spans.push_back(Span{name, t0, t1, op_});
    }

    Runtime &rt_;
    GcObserver &gc_;
    gcassert::MutatorContext *mutator_;
    bool collected_ = false;
    bool sampled_ = false;
    uint64_t op_ = 0;
};

/** Named metric values from the telemetry registry (traced run). */
std::map<std::string, uint64_t> sampleMetrics(Runtime &rt);

/** What one run of a workload produced. */
struct Outcome {
    /** Named output checks, in the order they ran. */
    std::vector<std::pair<std::string, bool>> checks;
    /** Human-readable detail for each failed check or op. */
    std::vector<std::string> notes;

    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t setupDoneNs = 0;
    double windowSeconds = 0;
    LatencyHist opLatency;

    /** End-to-end values, minus set-up time (the caller times it). */
    std::map<std::string, double> e2e;
    /** Per-layer values (traced run only). */
    std::map<std::string, double> layer;
    /** Effective configuration and workload shape. */
    std::vector<std::pair<std::string, std::string>> config;
    /** Extra counts for the result record. */
    std::map<std::string, double> counts;

    void check(const std::string &name, bool ok, std::string detail = "")
    {
        checks.emplace_back(name, ok);
        if (!ok)
            notes.push_back(name + ": " + detail);
    }
};

/** Command-line options shared by the workloads. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Smaller inputs for the seconds-long self-test. */
    bool quick = false;
    /** Output directory for the traced run's Chrome trace. */
    std::string outDir = ".";
    /** Deliberately corrupt one expectation (negative self-test). */
    std::string fault;
};

/**
 * Per-layer metrics every workload reports, with their values set to
 * 0 where a layer is not exercised. Fills @p out from the probes, the
 * collector observations and the telemetry deltas of the window.
 */
void fillLayerMetrics(Outcome &out, Runtime &rt, const CallStat *probes,
                      const GcObserver &gc,
                      const std::map<std::string, uint64_t> &before,
                      const std::map<std::string, uint64_t> &after);

/** End-to-end metrics of the window from the latency histogram and
 *  the collections seen from outside. */
void fillEndToEnd(Outcome &out, const GcObserver &gc);

/** Record the kept RuntimeConfig knobs into @p out. */
void recordConfig(Outcome &out, Runtime &rt);

/**
 * The measurement window of a single-mutator workload: runs @p step
 * (which returns false when its output check failed) back to back
 * for opt.seconds, timing each op, with the caller's and the
 * observer's window recording on, then fills the end-to-end metrics
 * and, in the traced run, the per-layer ones.
 */
template <typename Step>
void
runWindow(Outcome &out, Runtime &rt, Caller &caller, GcObserver &gc,
          const Options &opt, const char *op_name, Step &&step)
{
    caller.timing = opt.trace;
    gc.setWindow(true);
    gc.recordSpans = opt.trace;
    auto before = sampleMetrics(rt);
    out.setupDoneNs = nowNs();
    uint64_t start = out.setupDoneNs;
    uint64_t deadline = start + static_cast<uint64_t>(opt.seconds * 1e9);
    uint64_t end = start;
    uint64_t op = 0;
    while (end < deadline) {
        ++op;
        caller.beginOp(op, opt.trace && op % 4096 == 0);
        uint64_t a = nowNs();
        bool ok = step(op);
        end = nowNs();
        out.opLatency.record(end - a);
        caller.opSpan(op_name, a, end);
        ++out.attempted;
        if (!ok && ++out.failed <= 3)
            out.notes.push_back("op " + std::to_string(op) + " failed");
    }
    out.windowSeconds = static_cast<double>(end - start) / 1e9;
    auto after = sampleMetrics(rt);
    gc.setWindow(false);
    caller.timing = false;
    caller.beginOp(0, false);
    fillEndToEnd(out, gc);
    if (opt.trace)
        fillLayerMetrics(out, rt, caller.probes, gc, before, after);
}

/** Push the caller's and the observer's spans into the runtime's
 *  Chrome trace recorder (a no-op without one). */
void flushSpans(Runtime &rt, const Caller &caller, const GcObserver &gc);

/** Final-state checks every workload makes after its last full GC. */
void checkAccounting(Outcome &out, Runtime &rt, const GcObserver &gc,
                     uint64_t allocated);

Outcome runServerAllDead(const Options &opt);
Outcome runHeapAudit(const Options &opt);
Outcome runYoungChurn(const Options &opt);

} // namespace gcbench

#endif // GCBENCH_COMMON_H
