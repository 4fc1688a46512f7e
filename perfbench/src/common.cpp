#include "common.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "observe/telemetry.h"

namespace gcbench {

uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    Rng mix(seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull);
    return mix.next();
}

// ---------------------------------------------------------------- hist

namespace {

constexpr int kMaxExp = 40; // values >= 2^40 ns (~18 min) clamp

} // namespace

LatencyHist::LatencyHist()
    : buckets_(size_t{(kMaxExp - kSubBits + 2)} << kSubBits, 0)
{
}

void
LatencyHist::record(uint64_t ns)
{
    size_t index;
    if (ns < (uint64_t{1} << kSubBits)) {
        index = static_cast<size_t>(ns);
    } else {
        int exp = 63 - __builtin_clzll(ns);
        if (exp > kMaxExp) {
            exp = kMaxExp;
            ns = (uint64_t{1} << (kMaxExp + 1)) - 1;
        }
        uint64_t sub = (ns >> (exp - kSubBits)) - (uint64_t{1} << kSubBits);
        index = (size_t{static_cast<size_t>(exp - kSubBits + 1)}
                 << kSubBits) + static_cast<size_t>(sub);
    }
    ++buckets_[index];
    ++count_;
}

double
LatencyHist::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    double rank = std::ceil(p / 100.0 * static_cast<double>(count_));
    if (rank < 1)
        rank = 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        uint64_t c = buckets_[i];
        if (c == 0 || static_cast<double>(seen + c) < rank) {
            seen += c;
            continue;
        }
        double lo, width;
        if (i < (size_t{1} << kSubBits)) {
            lo = static_cast<double>(i);
            width = 1.0;
        } else {
            size_t octave = (i >> kSubBits) - 1 + kSubBits;
            size_t sub = i & ((size_t{1} << kSubBits) - 1);
            width = std::ldexp(1.0, static_cast<int>(octave) - kSubBits);
            lo = std::ldexp(1.0, static_cast<int>(octave)) +
                 static_cast<double>(sub) * width;
        }
        double within = (rank - static_cast<double>(seen) - 0.5) /
                        static_cast<double>(c);
        return lo + width * within;
    }
    return 0.0;
}

double
median(std::vector<uint64_t> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    if (n % 2)
        return static_cast<double>(values[n / 2]);
    return (static_cast<double>(values[n / 2 - 1]) +
            static_cast<double>(values[n / 2])) /
           2.0;
}

double
percentileOf(std::vector<uint64_t> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return static_cast<double>(values[std::min(idx, values.size() - 1)]);
}

// ------------------------------------------------------------ observer

GcSnapshot
GcSnapshot::read(Runtime &rt)
{
    const gcassert::GcStats &gs = rt.gcStats();
    GcSnapshot s;
    s.collections = gs.collections;
    s.minors = gs.minorCollections;
    s.marked = gs.objectsMarked;
    s.swept = gs.objectsSwept;
    s.sweptBytes = gs.bytesSwept;
    s.steals = gs.markSteals;
    s.promoted = gs.nurseryPromoted;
    s.remsetSources = gs.remsetSourcesScanned;
    s.ownershipNs = gs.ownershipPhase.elapsedNanos();
    s.traceNs = gs.tracePhase.elapsedNanos();
    s.finishNs = gs.finishPhase.elapsedNanos();
    s.sweepNs = gs.sweepPhase.elapsedNanos();
    s.liveObjects = gs.lastLiveObjects;
    s.liveBytes = gs.lastLiveBytes;
    return s;
}

GcObserver::GcObserver(Runtime &rt) : rt_(rt), last_(GcSnapshot::read(rt))
{
    fullSeen_ = last_.collections;
    minorSeen_ = last_.minors;
}

void
GcObserver::record(uint64_t t0, uint64_t t1)
{
    GcSnapshot cur = GcSnapshot::read(rt_);
    uint64_t full_ran = cur.collections - last_.collections;
    uint64_t minors_ran = cur.minors - last_.minors;
    fullSeen_ += full_ran;
    minorSeen_ += minors_ran;
    uint64_t pause = t1 - t0;
    FullGcSample s;
    if (full_ran) {
        s.pauseNs = pause;
        s.ownershipNs = cur.ownershipNs - last_.ownershipNs;
        s.markNs = cur.traceNs - last_.traceNs;
        s.finishNs = cur.finishNs - last_.finishNs;
        s.sweepNs = cur.sweepNs - last_.sweepNs;
        s.marked = cur.marked - last_.marked;
        s.swept = cur.swept - last_.swept;
        s.sweptBytes = cur.sweptBytes - last_.sweptBytes;
        s.liveObjects = cur.liveObjects;
        s.liveBytes = cur.liveBytes;
        s.steals = cur.steals - last_.steals;
        if (s.ownershipNs + s.markNs + s.finishNs + s.sweepNs > pause)
            ++phaseOver_;
    }
    if (inWindow_) {
        if (full_ran)
            full.push_back(s);
        else
            minorPausesNs.push_back(pause);
        stwNs += pause;
        windowMinors += minors_ran;
        windowPromoted += cur.promoted - last_.promoted;
        windowRemsetSources += cur.remsetSources - last_.remsetSources;
        if (recordSpans)
            spans.push_back(
                Span{full_ran ? "gc.full" : "gc.minor", t0, t1, 0});
    }
    last_ = cur;
}

// ------------------------------------------------------------- metrics

std::map<std::string, uint64_t>
sampleMetrics(Runtime &rt)
{
    std::map<std::string, uint64_t> values;
    if (gcassert::Telemetry *t = rt.telemetry())
        for (const gcassert::MetricSample &m : t->metrics().snapshot())
            values[m.name] = m.value;
    return values;
}

void
fillEndToEnd(Outcome &out, const GcObserver &gc)
{
    std::vector<uint64_t> pauses;
    for (const FullGcSample &s : gc.full)
        pauses.push_back(s.pauseNs);
    double ops = static_cast<double>(out.attempted);
    out.e2e["ops_per_s"] = ops / out.windowSeconds;
    out.e2e["op_latency_p50_us"] = out.opLatency.percentile(50) / 1e3;
    out.e2e["op_latency_p99_us"] = out.opLatency.percentile(99) / 1e3;
    out.e2e["full_pause_p50_ms"] = median(pauses) / 1e6;
    out.e2e["gc_ms_per_kop"] =
        ops > 0 ? static_cast<double>(gc.stwNs) / 1e6 / (ops / 1e3) : 0.0;
    out.counts["window_full_gcs"] = static_cast<double>(pauses.size());
    out.counts["window_minor_gcs"] = static_cast<double>(gc.windowMinors);
    out.counts["latency_samples"] =
        static_cast<double>(out.opLatency.count());
}

namespace {

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

uint64_t
delta(const std::map<std::string, uint64_t> &before,
      const std::map<std::string, uint64_t> &after, const std::string &name)
{
    auto a = after.find(name);
    if (a == after.end())
        return 0;
    auto b = before.find(name);
    return a->second - (b == before.end() ? 0 : b->second);
}

} // namespace

void
fillLayerMetrics(Outcome &out, Runtime &rt, const CallStat *probes,
                 const GcObserver &gc,
                 const std::map<std::string, uint64_t> &before,
                 const std::map<std::string, uint64_t> &after)
{
    double ops = static_cast<double>(out.attempted);
    auto &l = out.layer;
    l["runtime.alloc.ns_mean"] = probes[kAlloc].meanNs();
    l["runtime.alloc.calls_per_op"] =
        ratio(static_cast<double>(probes[kAlloc].calls), ops);
    l["runtime.write_ref.ns_mean"] = probes[kWriteRef].meanNs();
    l["runtime.drop_local_roots.ns_mean"] =
        probes[kDropLocalRoots].meanNs();
    l["assertions.start_region.ns_mean"] = probes[kStartRegion].meanNs();
    l["assertions.assert_all_dead.ns_mean"] =
        probes[kAssertAllDead].meanNs();
    l["assertions.register.ns_mean"] = probes[kRegister].meanNs();

    double fulls = static_cast<double>(gc.full.size());
    static const char *const kKinds[] = {"dead",     "alldead", "instances",
                                         "unshared", "ownedby", "other"};
    for (const char *kind : kKinds) {
        std::string k = kind;
        l["assertions.cost.mark_ms_per_gc." + k] = ratio(
            static_cast<double>(
                delta(before, after, "assert.cost.mark." + k + "_nanos")) /
                1e6,
            fulls);
        l["assertions.cost.finish_ms_per_gc." + k] = ratio(
            static_cast<double>(delta(before, after,
                                      "assert.cost.finish." + k +
                                          "_nanos")) /
                1e6,
            fulls);
    }

    FullGcSample sum;
    for (const FullGcSample &s : gc.full) {
        sum.ownershipNs += s.ownershipNs;
        sum.markNs += s.markNs;
        sum.finishNs += s.finishNs;
        sum.sweepNs += s.sweepNs;
        sum.marked += s.marked;
        sum.swept += s.swept;
        sum.sweptBytes += s.sweptBytes;
        sum.liveObjects += s.liveObjects;
        sum.liveBytes += s.liveBytes;
        sum.steals += s.steals;
    }
    auto per_gc = [&](uint64_t v) {
        return ratio(static_cast<double>(v), fulls);
    };
    l["gc.full.ownership_ms"] = per_gc(sum.ownershipNs) / 1e6;
    l["gc.full.mark_ms"] = per_gc(sum.markNs) / 1e6;
    l["gc.full.finish_ms"] = per_gc(sum.finishNs) / 1e6;
    l["gc.full.sweep_ms"] = per_gc(sum.sweepNs) / 1e6;
    l["gc.full.mark_ns_per_object"] =
        ratio(static_cast<double>(sum.markNs),
              static_cast<double>(sum.marked));
    l["gc.full.mark_steals"] = per_gc(sum.steals);
    l["gc.full.count_per_kop"] = ratio(fulls * 1e3, ops);
    l["gc.minor.count_per_kop"] =
        ratio(static_cast<double>(gc.windowMinors) * 1e3, ops);
    l["gc.minor.pause_p50_us"] = percentileOf(gc.minorPausesNs, 50) / 1e3;
    l["gc.minor.pause_p99_us"] = percentileOf(gc.minorPausesNs, 99) / 1e3;
    double minors = static_cast<double>(gc.windowMinors);
    l["gc.minor.promoted_per_gc"] =
        ratio(static_cast<double>(gc.windowPromoted), minors);
    l["gc.remset.sources_per_minor"] =
        ratio(static_cast<double>(gc.windowRemsetSources), minors);
    l["gc.barrier.slow_path_hits_per_op"] = ratio(
        static_cast<double>(delta(before, after, "barrier.slow_path_hits")),
        ops);
    l["heap.used_mb_at_gc"] =
        per_gc(sum.sweptBytes + sum.liveBytes) / (1024.0 * 1024.0);
    l["heap.live_objects_after_gc"] = per_gc(sum.liveObjects);
    l["heap.swept_objects_per_gc"] = per_gc(sum.swept);
    l["heap.blocks_minted"] = static_cast<double>(rt.heap().blocksMinted());
}

void
recordConfig(Outcome &out, Runtime &rt)
{
    const gcassert::RuntimeConfig &c = rt.config();
    auto b = [](bool v) { return std::string(v ? "true" : "false"); };
    out.config.emplace_back("heapBudgetBytes",
                            std::to_string(c.heap.budgetBytes));
    out.config.emplace_back("infrastructure", b(c.infrastructure));
    out.config.emplace_back("recordPaths", b(c.recordPaths));
    out.config.emplace_back("markThreads", std::to_string(c.markThreads));
    out.config.emplace_back("sweepThreads", std::to_string(c.sweepThreads));
    out.config.emplace_back("generational", b(c.generational));
    out.config.emplace_back("nurseryKb", std::to_string(c.nurseryKb));
    out.config.emplace_back(
        "hostCores", std::to_string(std::thread::hardware_concurrency()));
    out.config.emplace_back("compiler", "g++ " __VERSION__);
    out.config.emplace_back("buildType", GCBENCH_BUILD_TYPE);
}

void
flushSpans(Runtime &rt, const Caller &caller, const GcObserver &gc)
{
    gcassert::Telemetry *t = rt.telemetry();
    gcassert::TraceRecorder *rec = t ? t->recorder() : nullptr;
    if (!rec)
        return;
    for (const auto *spans : {&caller.spans, &gc.spans})
        for (const Span &s : *spans)
            rec->complete(s.name, "bench", s.beginNs, s.endNs, 0,
                          "{\"op\":" + std::to_string(s.op) + "}");
}

void
checkAccounting(Outcome &out, Runtime &rt, const GcObserver &gc,
                uint64_t allocated)
{
    const gcassert::GcStats &gs = rt.gcStats();
    uint64_t runtime_allocated = rt.heap().totalAllocatedObjects();
    out.check("allocated_matches_runtime", allocated == runtime_allocated,
              "benchmark allocated " + std::to_string(allocated) +
                  ", runtime reports " + std::to_string(runtime_allocated));
    // objectsSwept already folds in the minor collections' frees.
    uint64_t accounted = gs.objectsSwept + gs.lastLiveObjects;
    out.check("allocated_equals_swept_plus_live", allocated == accounted,
              "allocated " + std::to_string(allocated) + ", swept+live " +
                  std::to_string(accounted));
    out.check("full_gcs_seen_match_runtime",
              gc.fullSeen() == rt.collections(),
              "seen " + std::to_string(gc.fullSeen()) + ", runtime " +
                  std::to_string(rt.collections()));
    out.check("minor_gcs_seen_match_runtime",
              gc.minorSeen() == gs.minorCollections,
              "seen " + std::to_string(gc.minorSeen()) + ", runtime " +
                  std::to_string(gs.minorCollections));
    out.check("gc_phase_times_within_pause", gc.phaseSumOverPause() == 0,
              std::to_string(gc.phaseSumOverPause()) +
                  " collection(s) whose GcStats phases exceed the pause");
    out.counts["objects_allocated"] = static_cast<double>(allocated);
    out.counts["full_gcs_total"] = static_cast<double>(rt.collections());
    out.counts["minor_gcs_total"] =
        static_cast<double>(gs.minorCollections);
}

} // namespace gcbench
