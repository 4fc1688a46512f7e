#include "gc/collector.h"

#include "detectors/backgraph.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <thread>

#include "gc/mark_deque.h"
#include "observe/telemetry.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/strutil.h"

namespace gcassert {

Collector::Collector(Heap &heap, TypeRegistry &types, RootRegistry &roots,
                     MutatorRegistry &mutators, AssertionEngine &engine,
                     RememberedSet &remset, CollectorConfig config)
    : heap_(heap),
      types_(types),
      roots_(roots),
      mutators_(mutators),
      engine_(engine),
      remset_(remset),
      config_(config)
{
}

void
Collector::addFreeHook(std::function<void(Object *)> hook)
{
    freeHooks_.push_back(std::move(hook));
}

void
Collector::setTelemetry(Telemetry *telemetry)
{
    telemetry_ = telemetry;
}

void
Collector::beginCensus(uint64_t gc_number)
{
    censusActive_ = false;
    if (!telemetry_)
        return;
    uint32_t every = telemetry_->config().censusEvery;
    if (censusRequested_ || (every != 0 && gc_number % every == 0)) {
        censusActive_ = true;
        censusCounts_.assign(types_.size(), 0);
        censusBytes_.assign(types_.size(), 0);
    }
}

void
Collector::finishCensus(uint64_t gc_number)
{
    if (!censusActive_)
        return;
    CensusSnapshot census;
    census.gcNumber = gc_number;
    for (size_t i = 0; i < censusCounts_.size(); ++i) {
        if (censusCounts_[i] == 0)
            continue;
        census.rows.push_back(
            CensusRow{types_.get(static_cast<TypeId>(i)).name(),
                      censusCounts_[i], censusBytes_[i]});
        census.totalObjects += censusCounts_[i];
        census.totalBytes += censusBytes_[i];
    }
    census.sortByBytes();
    telemetry_->metrics().counter("observe.census_taken")->increment();
    telemetry_->setCensus(std::move(census));
    censusActive_ = false;
    censusRequested_ = false;
}

void
Collector::registerFinalizer(Object *obj,
                             std::function<void(Object *)> finalizer)
{
    if (!obj)
        fatal("registerFinalizer called on null");
    if (finalizer)
        finalizables_[obj] =
            FinalizerEntry{finalizerSeq_++, std::move(finalizer)};
    else
        finalizables_.erase(obj);
}

std::vector<std::pair<Object *, std::function<void(Object *)>>>
Collector::takePendingFinalizers()
{
    std::vector<std::pair<Object *, std::function<void(Object *)>>> out;
    out.swap(pendingFinalizers_);
    return out;
}

template <bool kInfra, bool kPath>
void
Collector::resurrectFinalizables()
{
    if (finalizables_.empty())
        return;
    // Unreachable finalizable objects are revived: marked and traced
    // so their whole subtree survives this collection, then moved to
    // the pending queue (each finalizer runs exactly once). Weak
    // edges to them were already cleared — the Java ordering.
    // Registration order, not the map's (address-seeded) iteration
    // order, decides finalizer order, so runs are reproducible and
    // identical across sweep configurations.
    std::vector<std::pair<uint64_t, Object *>> dying;
    for (auto &[obj, entry] : finalizables_)
        if (!obj->marked())
            dying.emplace_back(entry.seq, obj);
    std::sort(dying.begin(), dying.end());
    SerialMarker<kPath> m(*this, kInfra, false);
    auto visit_edge = [this, &m](Object **slot, Object *obj) {
        visit<kInfra>(slot, obj, m);
    };
    for (auto &[seq, obj] : dying) {
        // An owner's subtree was traced by the ownership phase, and an
        // object an earlier revival reached is marked and traced.
        uint32_t flags = obj->rawFlags();
        if (mark<kInfra>(obj, flags, m) &&
            (!kInfra || (flags & kOwnerBit) == 0)) {
            worklist_.push(obj);
            m.drain(visit_edge);
        }
        auto it = finalizables_.find(obj);
        pendingFinalizers_.emplace_back(obj, std::move(it->second.fn));
        finalizables_.erase(it);
    }
    // A weak object first reached by a revival was never strongly
    // reachable either: clear its edge if the sweep would leave it
    // dangling.
    clearDeadWeakEdges(m.weakRefs);
    mergeTally(m);
}

void
Collector::clearDeadWeakEdges(std::vector<Object *> &weak_refs)
{
    for (Object *weak : weak_refs) {
        Object *target = weak->ref(0);
        if (target && !target->marked())
            weak->setRef(0, nullptr);
    }
    weak_refs.clear();
}

CollectionResult
Collector::collect()
{
    if (config_.infrastructure) {
        if (config_.recordPaths) {
            // Section 2.7's tagged worklist *is* the path — it only
            // spells a root-to-object chain because one thread pops
            // and re-pushes in DFS order. Rather than emit silently
            // wrong paths, a parallel request downgrades to the
            // sequential trace, loudly.
            if (config_.markThreads > 1) {
                ++stats_.pathDowngrades;
                if (!loggedPathDowngrade_) {
                    warn(format(
                        "markThreads=%u requested with path recording "
                        "enabled; path recording is inherently "
                        "sequential, so tracing runs single-threaded "
                        "(set recordPaths=false for parallel marking)",
                        config_.markThreads));
                    loggedPathDowngrade_ = true;
                }
            }
            return collectImpl<true, true>();
        }
        return collectImpl<true, false>();
    }
    return collectImpl<false, false>();
}

void
Collector::mnVisit(Object *obj)
{
    uint32_t flags = obj->rawFlags();
    // Truncate at mature objects: their liveness is the full GC's
    // business, and any nursery reference they hold was recorded by
    // the write barrier (the remembered set is scanned as a root).
    if ((flags & kNurseryBit) == 0)
        return;
    if (flags & kMarkBit)
        return;
    obj->setFlag(kMarkBit);
    worklist_.push(obj);
}

void
Collector::mnDrain()
{
    while (!worklist_.empty()) {
        uintptr_t word = worklist_.pop();
        if (Worklist::isTagged(word))
            continue;
        Object *obj = Worklist::objectOf(word);
        uint32_t n = obj->numRefs();
        Object **slots = n ? obj->refSlotAddr(0) : nullptr;
        // Weak slot 0 is deliberately traced as a strong edge: weak
        // clearing is observable and stays full-GC-only, so a minor
        // collection can never change when a weak reference nulls.
        for (uint32_t i = 0; i < n; ++i) {
            if (slots[i])
                mnVisit(slots[i]);
        }
    }
}

MinorCollectionResult
Collector::minorCollect()
{
    TraceRecorder *tr = telemetry_ ? telemetry_->recorder() : nullptr;
    uint64_t t0 = (tr || telemetry_) ? nowNanos() : 0;
    ScopedTimer timer(stats_.minorGc);
    ++stats_.minorCollections;
    worklist_.clear();

    // No lazy-sweep finishing needed: nursery objects can never sit
    // in a sweep-pending block (allocation finishes a block on first
    // touch), and mature mark bits are never consulted here.

    // Roots: the registered root set and mutator state.
    roots_.forEach([this](RootNode &node) {
        if (Object *obj = node.get())
            mnVisit(obj);
    });
    mutators_.forEach([this](MutatorContext &mutator) {
        for (Object *obj : mutator.localRoots())
            if (obj)
                mnVisit(obj);
        // Region-queue entries are pinned: the queue holds raw
        // pointers pruned only at full GCs (by mark bit), and a
        // flushed region object's verdict belongs to the full GC.
        for (Object *obj : mutator.regionQueue())
            mnVisit(obj);
    });

    // Pin every object the assertion machinery holds raw pointers
    // to; their lifetime verdicts are the full GC's alone.
    for (auto &entry : finalizables_)
        mnVisit(entry.first);
    for (Object *owner : engine_.ownership().owners())
        mnVisit(owner);
    for (Object *ownee : engine_.ownership().ownees())
        mnVisit(ownee);

    // Remembered-set roots: rescan every reference slot of each
    // recorded mature source (the set is source-precise).
    MinorCollectionResult result;
    remset_.forEachSource([this, &result](Object *src) {
        ++result.remsetSources;
        uint32_t n = src->numRefs();
        Object **slots = n ? src->refSlotAddr(0) : nullptr;
        for (uint32_t i = 0; i < n; ++i) {
            if (slots[i])
                mnVisit(slots[i]);
        }
    });
    stats_.remsetSourcesScanned += result.remsetSources;

    mnDrain();

    // Nursery sweep: promote survivors in place, reclaim the rest.
    // The free callbacks match the full sweep's so detectors and
    // satisfied-assertion accounting observe the same stream they
    // would have seen at the next full GC.
    NurserySweepStats swept = heap_.sweepNursery([this](Object *obj) {
        if (config_.infrastructure)
            engine_.onObjectFreed(obj);
        if (backgraph_)
            backgraph_->noteFreed(obj);
        for (const auto &hook : freeHooks_)
            hook(obj);
    });
    remset_.clear();

    result.promoted = swept.promotedObjects;
    result.freedObjects = swept.freedObjects;
    result.freedBytes = swept.freedBytes;
    stats_.nurseryPromoted += swept.promotedObjects;
    stats_.nurserySweptObjects += swept.freedObjects;
    stats_.nurserySweptBytes += swept.freedBytes;
    // Minor frees fold into the lifetime sweep totals so they match
    // a non-generational run's (same objects, earlier collection).
    stats_.objectsSwept += swept.freedObjects;
    stats_.bytesSwept += swept.freedBytes;
    uint64_t t1 = (tr || telemetry_) ? nowNanos() : 0;
    if (tr) {
        JsonWriter a;
        a.beginObject()
            .field("promoted", result.promoted)
            .field("freedObjects", result.freedObjects)
            .field("freedBytes", result.freedBytes)
            .field("remsetSources", result.remsetSources)
            .endObject();
        tr->complete("minor_gc", "gc", t0, t1, 0, a.str());
    }
    // Minor pauses count against the same SLO budget. This is the
    // one exception to "a minor collection reports no violations":
    // PauseSlo is context-only and never an assertion verdict.
    if (telemetry_)
        notePause(true, t1 - t0);
    return result;
}

template <bool kInfra, bool kPath>
CollectionResult
Collector::collectImpl()
{
    // Telemetry is all-or-nothing per collection: the recorder
    // pointer is read once here, so every phase boundary below pays
    // exactly one null test when tracing is off. Recording never
    // mutates collector state the algorithm reads — only timestamps
    // and stats snapshots flow out — so traced and untraced runs are
    // behaviorally identical by construction.
    TraceRecorder *tr = telemetry_ ? telemetry_->recorder() : nullptr;
    traceActive_ = tr != nullptr;
    // Cost attribution rides on the assertion infrastructure and any
    // telemetry; the SLO tracker needs only telemetry, so the pause
    // endpoints are taken whenever the bundle is attached.
    costActive_ = kInfra && telemetry_ != nullptr;
    uint64_t gc_begin = (tr || telemetry_) ? nowNanos() : 0;

    ScopedTimer total(stats_.totalGc);

    // Prologue: finish any block whose previous (lazy) sweep is
    // still deferred. Live objects in such blocks carry stale mark
    // bits that would wrongly short-circuit this trace, so the
    // finish must complete before any marking.
    {
        uint64_t t0 = tr ? nowNanos() : 0;
        ScopedTimer t(stats_.lazyFinishPhase);
        uint64_t finished = heap_.finishLazySweep();
        stats_.lazyBlocksFinishedAtGc += finished;
        if (tr) {
            JsonWriter a;
            a.beginObject().field("blocksFinished", finished).endObject();
            tr->complete("lazy_finish", "gc", t0, nowNanos(), 0,
                         a.str());
        }
    }

    // Generational prologue: promote the entire nursery wholesale and
    // drop the remembered set. The full collection then runs with
    // zero nursery state — every phase below is textually identical
    // to the non-generational path, which is how full GCs stay the
    // sole authority for assertion verdicts.
    if (heap_.generational()) {
        stats_.nurseryPromotedAtFullGc += heap_.promoteAllNursery();
        remset_.clear();
    }

    ++stats_.collections;
    markedThisGc_ = 0;
    stats_.owneeChecksLastGc = 0;
    uint64_t violations_before = engine_.stats().violationsReported;
    beginCensus(stats_.collections);

    worklist_.clear();
    hasWeak_ = types_.hasWeakTypes();
    if (kInfra)
        engine_.onGcStart(stats_.collections);
    if (kPath)
        paths_.reset();

    // Phase 1: ownership scan (only with assertion infrastructure
    // and registered owner/ownee pairs).
    if (kInfra && !engine_.ownership().empty()) {
        uint64_t t0 = tr ? nowNanos() : 0;
        {
            ScopedTimer t(stats_.ownershipPhase);
            ownershipPhase<kPath>();
        }
        if (tr) {
            JsonWriter a;
            a.beginObject()
                .field("owneeChecks", stats_.owneeChecksLastGc)
                .endObject();
            tr->complete("ownership_scan", "gc", t0, nowNanos(), 0,
                         a.str());
        }
    }

    // Phase 2: root scan and full trace. Parallel marking never
    // runs with path recording (collect() downgrades instead).
    {
        uint64_t t0 = (tr || costActive_) ? nowNanos() : 0;
        uint64_t steals_before = stats_.markSteals;
        bool parallel = !kPath && config_.markThreads > 1;
        markCost_ = AssertCostTallies{};
        {
            ScopedTimer t(stats_.tracePhase);
            std::vector<Object **> roots = rootSlots<kPath>();
            if (parallel)
                parallelMark<kInfra>(roots);
            else
                serialMark<kInfra, kPath>(roots);
        }
        uint64_t t1 = (tr || costActive_) ? nowNanos() : 0;
        if (costActive_) {
            markCost_.setOtherFromSpan(t1 - t0);
            telemetry_->assertCost().addMark(markCost_);
        }
        if (tr) {
            JsonWriter a;
            a.beginObject()
                .field("marked", markedThisGc_)
                .field("parallel", parallel)
                .field("workers",
                       uint64_t{parallel ? config_.markThreads : 1})
                .field("steals", stats_.markSteals - steals_before);
            if (costActive_)
                a.key("assertCost").valueRaw(markCost_.toJson());
            a.endObject();
            tr->complete("mark", "gc", t0, t1, 0, a.str());
        }
    }

    // Weak-reference processing: clear weak edges whose referents
    // were not marked, before the sweep recycles them.
    clearDeadWeakEdges(weakRefs_);

    // Finalization: revive unreachable finalizable objects and queue
    // their finalizers for the runtime to run after this collection.
    resurrectFinalizables<kInfra, kPath>();

    // Phase 3: end-of-trace assertion work.
    if (kInfra) {
        uint64_t t0 = (tr || costActive_) ? nowNanos() : 0;
        uint64_t violations_so_far =
            engine_.stats().violationsReported - violations_before;
        AssertCostTallies finish_cost;
        {
            ScopedTimer t(stats_.finishPhase);
            engine_.onTraceDone(costActive_ ? &finish_cost : nullptr);
        }
        uint64_t t1 = (tr || costActive_) ? nowNanos() : 0;
        if (costActive_) {
            finish_cost.setOtherFromSpan(t1 - t0);
            telemetry_->assertCost().addFinish(finish_cost);
        }
        if (tr) {
            JsonWriter a;
            a.beginObject()
                .field("violations",
                       engine_.stats().violationsReported -
                           violations_before - violations_so_far);
            if (costActive_)
                a.key("assertCost").valueRaw(finish_cost.toJson());
            a.endObject();
            tr->complete("finish", "gc", t0, t1, 0, a.str());
        }
    }

    // Phase 4: sweep.
    CollectionResult result;
    {
        uint64_t t0 = tr ? nowNanos() : 0;
        std::vector<SweepWorkerSpan> worker_spans;
        ScopedTimer t(stats_.sweepPhase);
        SweepOptions sweep_options;
        sweep_options.threads = config_.sweepThreads;
        sweep_options.lazy = config_.lazySweep;
        if (tr)
            sweep_options.workerSpans = &worker_spans;
        if (kInfra || !freeHooks_.empty() || backgraph_ != nullptr) {
            result.sweep = heap_.sweep(
                [this](Object *obj) {
                    if (kInfra)
                        engine_.onObjectFreed(obj);
                    if (backgraph_)
                        backgraph_->noteFreed(obj);
                    for (const auto &hook : freeHooks_)
                        hook(obj);
                },
                sweep_options);
        } else {
            // No observer: hand the heap an empty callback so
            // parallel workers sweep their shards outright instead
            // of buffering dead sets for replay.
            result.sweep = heap_.sweep(nullptr, sweep_options);
        }
        if (sweep_options.threads > 1)
            ++stats_.parallelSweepPhases;
        if (sweep_options.lazy)
            ++stats_.lazySweepGcs;
        if (tr) {
            for (size_t w = 0; w < worker_spans.size(); ++w) {
                const SweepWorkerSpan &span = worker_spans[w];
                if (span.endNanos == 0)
                    continue;
                JsonWriter a;
                a.beginObject()
                    .field("blocks", span.blocks)
                    .field("objects", span.objects)
                    .endObject();
                tr->complete("sweep_worker", "gc.worker",
                             span.beginNanos, span.endNanos,
                             static_cast<uint32_t>(w + 1), a.str());
            }
            JsonWriter a;
            a.beginObject()
                .field("freedObjects", result.sweep.freedObjects)
                .field("freedBytes", result.sweep.freedBytes)
                .field("liveObjects", result.sweep.liveObjects)
                .field("liveBytes", result.sweep.liveBytes)
                .field("threads", uint64_t{sweep_options.threads})
                .field("lazy", sweep_options.lazy)
                .endObject();
            tr->complete("sweep", "gc", t0, nowNanos(), 0, a.str());
        }
    }

    result.marked = markedThisGc_;
    result.violations =
        engine_.stats().violationsReported - violations_before;

    stats_.objectsMarked += markedThisGc_;
    stats_.objectsSwept += result.sweep.freedObjects;
    stats_.bytesSwept += result.sweep.freedBytes;
    stats_.lastLiveObjects = result.sweep.liveObjects;
    stats_.lastLiveBytes = result.sweep.liveBytes;
    stats_.violations += result.violations;
    stats_.maxWorklistDepth =
        std::max<uint64_t>(stats_.maxWorklistDepth, worklist_.highWater());

    // Census first (the whole-pause span advertises whether one was
    // taken), then the enclosing full-GC span.
    bool census_taken = censusActive_;
    finishCensus(stats_.collections);
    uint64_t gc_end = (tr || telemetry_) ? nowNanos() : 0;
    if (tr) {
        JsonWriter a;
        a.beginObject()
            .field("gc", stats_.collections)
            .field("marked", result.marked)
            .field("freedObjects", result.sweep.freedObjects)
            .field("violations", result.violations)
            .field("census", census_taken)
            .endObject();
        tr->complete("full_gc", "gc", gc_begin, gc_end, 0, a.str());
    }
    traceActive_ = false;
    costActive_ = false;
    // Backgraph leak-trend sample: after the result (and every per-GC
    // violation count) has settled, so its context-only LeakGrowth
    // reports can never leak into assertion verdicts — the same
    // placement contract as the SLO check below.
    if (backgraph_) {
        uint64_t t0 = tr ? nowNanos() : 0;
        Backgraph::SampleStats sample =
            backgraph_->onFullGcDone(stats_.collections);
        if (tr) {
            JsonWriter a;
            a.beginObject()
                .field("nodes", sample.nodes)
                .field("sites", sample.sites)
                .field("growthReports", sample.growthReports)
                .field("findLeakReports", sample.findLeakReports)
                .endObject();
            tr->complete("backgraph_sample", "gc", t0, nowNanos(), 0,
                         a.str());
        }
    }
    // SLO check dead last: the result (and every per-GC violation
    // count) is settled, so an over-budget report is pure context
    // and can never leak into assertion verdicts.
    if (telemetry_)
        notePause(false, gc_end - gc_begin);
    // Live-endpoint publish: after the pause accounting, so the
    // snapshot's gc.pause.* gauges include this very collection.
    // Reads only; verdicts and GC state are already settled.
    publishTelemetry();
    return result;
}

void
Collector::publishTelemetry()
{
    if (!telemetry_)
        return;
    if (backgraph_) {
        std::vector<SitePathRecord> records;
        for (auto &[site, why] : backgraph_->namedSiteReports()) {
            SitePathRecord record;
            record.site = site;
            record.gcNumber = stats_.collections;
            record.known = why.known;
            record.rootReached = why.rootReached;
            record.saturated = why.saturated;
            record.path.reserve(why.path.size());
            for (const PathEntry &hop : why.path)
                record.path.push_back(hop.typeName);
            records.push_back(std::move(record));
        }
        telemetry_->publishSitePaths(std::move(records));
    }
    telemetry_->publishSnapshot(stats_.collections);
}

void
Collector::notePause(bool minor, uint64_t pauseNanos)
{
    PauseSloTracker &slo = telemetry_->pauseSlo();
    bool over = minor ? slo.recordMinor(pauseNanos)
                      : slo.recordFull(pauseNanos);
    if (!over)
        return;
    Violation v;
    v.kind = AssertionKind::PauseSlo;
    v.gcNumber = stats_.collections;
    v.message = format(
        "%s pause of %llu us exceeded the %llu us SLO budget.",
        minor ? "minor-GC" : "full-GC",
        static_cast<unsigned long long>(pauseNanos / 1000),
        static_cast<unsigned long long>(slo.budgetNanos() / 1000));
    // Through the regular funnel so the violation gains provenance
    // and reaches observers/reaction hooks like any other.
    engine_.report(std::move(v));
}

// ---------------------------------------------------------------------
// The mark loop: one visit, one slot scan and one copy of each check,
// templated on the marker that runs them.
// ---------------------------------------------------------------------

/**
 * What one marker tallies while it traces; mergeTally folds it into
 * the collector when the marker is done, so no tally is shared while
 * marking.
 */
struct Collector::MarkTally {
    uint64_t marked = 0;
    uint64_t owneeChecks = 0;
    /** Marked weak-reference objects (merged into weakRefs_). */
    std::vector<Object *> weakRefs;
    /** Dense per-TypeId tallies: instances (kInfra), census (armed). */
    std::vector<uint64_t> instanceCounts, instanceBytes;
    std::vector<uint64_t> censusCounts, censusBytes;
    /** Check-time tallies; kept only by phase-2 markers while
     *  attribution is on (null sink = inert CostScopes). */
    AssertCostTallies cost;
    AssertCostTallies *costSink = nullptr;

    MarkTally(const Collector &gc, bool infra, bool costing)
    {
        size_t types = gc.types_.size();
        if (infra) {
            instanceCounts.assign(types, 0);
            instanceBytes.assign(types, 0);
        }
        if (gc.censusActive_) {
            censusCounts.assign(types, 0);
            censusBytes.assign(types, 0);
        }
        if (costing)
            costSink = &cost;
    }

    /** costSink may point into this object. */
    MarkTally(const MarkTally &) = delete;
    MarkTally &operator=(const MarkTally &) = delete;
};

/**
 * The serial marker: one worker on the calling thread. Plain flag
 * writes, the tagged Worklist (whose tagged entries spell the section
 * 2.7 path when kPath), and verdicts reported at once. No thread, no
 * atomic read-modify-write, no termination counter.
 */
template <bool kPath>
struct Collector::SerialMarker : MarkTally {
    Collector &gc;

    SerialMarker(Collector &c, bool infra, bool costing)
        : MarkTally(c, infra, costing), gc(c)
    {
    }

    uint32_t flags(const Object *obj) const { return obj->rawFlags(); }

    /** Called only when the loaded flags were unmarked: always wins. */
    bool
    tryMark(Object *obj)
    {
        obj->setFlag(kMarkBit);
        return true;
    }

    void push(Object *obj) { gc.worklist_.push(obj); }

    /**
     * Report with the live path, once per object per GC; a lifetime
     * verdict then disarms its assertion.
     */
    void
    report(AssertionKind kind, Object *obj, std::string message,
           bool disarm)
    {
        if (gc.engine_.alreadyReported(obj))
            return;
        Violation v;
        v.kind = kind;
        v.offendingType = gc.engine_.typeNameOf(obj);
        v.gcNumber = gc.stats_.collections;
        v.message = std::move(message);
        v.offendingAddress = obj;
        if (kPath) {
            std::vector<const Object *> path =
                gc.paths_.buildPath(gc.worklist_, obj);
            // Phase-1 scans attribute the path to the owner or ownee
            // being scanned; the label is built lazily, only here, so
            // the scan itself stays allocation-free.
            if (gc.inOwnershipScan_) {
                v.rootName = std::string(gc.scanKind_) + " " +
                    gc.engine_.typeNameOf(gc.scanAnchor_) +
                    " (ownership scan)";
            } else {
                v.rootName = gc.paths_.originOf(path.front());
            }
            v.path.reserve(path.size());
            for (const Object *hop : path)
                v.path.push_back(PathEntry{gc.engine_.typeNameOf(hop), hop});
        }
        gc.engine_.report(std::move(v));
        if (disarm)
            AssertionEngine::disarmLifetime(obj);
    }

    /** Pop and scan until the worklist is empty. */
    template <class Visit>
    void
    drain(Visit &&visit)
    {
        Worklist &worklist = gc.worklist_;
        while (!worklist.empty()) {
            uintptr_t word = worklist.pop();
            if (Worklist::isTagged(word))
                continue;
            Object *obj = Worklist::objectOf(word);
            if (kPath)
                worklist.pushTagged(obj);
            gc.scan(obj, *this, visit);
        }
    }
};

/**
 * One of N parallel marker threads. Everything a worker touches while
 * tracing is either immutable for the phase (type flags, the
 * ownership table, reaction policy, region labels), per-object-
 * exclusive (reference slots: the CAS mark guarantees exactly one
 * worker scans each object), accessed atomically (the object flag
 * word, the termination counter), or lives here and is merged after
 * the join. Verdicts are queued for AssertionEngine::reportPending,
 * which dedups them and disarms only the lifetime assertions whose
 * verdict survives.
 */
struct Collector::ParallelMarker : MarkTally {
    std::atomic<int64_t> &pendingWork;
    MarkDeque deque;
    uint64_t steals = 0;
    std::vector<PendingViolation> verdicts;
    /** Wall-clock span of this worker's run (tracing only). */
    uint64_t beginNs = 0;
    uint64_t endNs = 0;

    ParallelMarker(Collector &c, bool infra, bool costing)
        : MarkTally(c, infra, costing), pendingWork(c.pendingWork_)
    {
    }

    uint32_t flags(const Object *obj) const { return obj->rawFlagsAtomic(); }
    bool tryMark(Object *obj) { return obj->tryMark(); }

    void
    push(Object *obj)
    {
        pendingWork.fetch_add(1, std::memory_order_seq_cst);
        deque.push(obj);
    }

    /** Every encounter queues; reportPending dedups. */
    void
    report(AssertionKind kind, Object *obj, std::string message,
           bool disarm)
    {
        verdicts.push_back({kind, obj, std::move(message), disarm});
    }
};

void
Collector::mergeTally(MarkTally &tally)
{
    markedThisGc_ += tally.marked;
    stats_.owneeChecks += tally.owneeChecks;
    stats_.owneeChecksLastGc += tally.owneeChecks;
    weakRefs_.insert(weakRefs_.end(), tally.weakRefs.begin(),
                     tally.weakRefs.end());
    if (tally.costSink)
        markCost_.merge(tally.cost);
    for (size_t t = 0; t < tally.censusCounts.size(); ++t) {
        censusCounts_[t] += tally.censusCounts[t];
        censusBytes_[t] += tally.censusBytes[t];
    }
    if (tally.instanceCounts.empty())
        return;
    for (TypeId id : types_.trackedTypes()) {
        if (tally.instanceCounts[id] != 0 || tally.instanceBytes[id] != 0)
            types_.bumpInstanceCountBy(id, tally.instanceCounts[id],
                                       tally.instanceBytes[id]);
    }
}

template <bool kInfra, class M>
bool
Collector::mark(Object *obj, uint32_t flags, M &m)
{
    // Already marked in the loaded word: skip the CAS, the same
    // outcome as losing the mark race.
    if ((flags & kMarkBit) != 0 || !m.tryMark(obj))
        return false;
    ++m.marked;
    if (kInfra) {
        // The per-object RVMClass inspection of section 2.4.1: check
        // whether the object's type is instance-tracked. The flag is
        // a dense byte array so the untracked common case stays
        // cheap in the trace loop. Attribution times only the
        // tracked-type tally; the flag test itself is baseline visit
        // cost and lands in the Other bucket.
        TypeId type = obj->typeId();
        if (types_.trackedFlags()[type]) {
            CostScope cost(m.costSink, AssertCostKind::Instances);
            ++m.instanceCounts[type];
            m.instanceBytes[type] += obj->sizeBytes();
        }
    }
    // Census piggybacks on the mark win exactly as instance tracking
    // does — zero extra traversal, just a tally per newly-live object.
    if (censusActive_) [[unlikely]] {
        TypeId type = obj->typeId();
        ++m.censusCounts[type];
        m.censusBytes[type] += obj->sizeBytes();
    }
    return true;
}

template <class M>
bool
Collector::deadCheck(Object **slot, Object *obj, uint32_t flags, M &m)
{
    CostScope cost(m.costSink, AssertCostKind::Dead);
    AssertionKind kind = AssertionKind::Dead;
    std::string what = "an object that was asserted dead is reachable.";
    if (flags & kOrphanBit) {
        kind = AssertionKind::OwnedBy;
        cost.reclassify(AssertCostKind::OwnedBy);
        what = "an ownee outlived its owner (the owner was reclaimed in "
               "an earlier collection) and is still reachable.";
    } else if (flags & kRegionBit) {
        kind = AssertionKind::AllDead;
        cost.reclassify(AssertCostKind::AllDead);
        // Labels are written only under the runtime's exclusive lock,
        // never while markers run.
        const std::string *label = engine_.regionLabelOf(obj);
        what = label
            ? format("an object allocated in assert-alldead region "
                     "'%s' is reachable.", label->c_str())
            : "an object allocated in an assert-alldead region is "
              "reachable.";
    }
    bool force = engine_.reactions().forKind(kind) == Reaction::ForceTrue;
    if (force)
        what += " Forcing reclamation by nulling the reference.";
    // The assertion stays armed until this verdict is the one reported
    // for the object; ForceTrue and sticky assertions stay armed.
    m.report(kind, obj, std::move(what),
             !engine_.options().stickyDeadAssertions && !force);

    if (force) {
        // ForceTrue: sever this incoming reference and never mark the
        // object, so the sweep reclaims it in this very collection.
        // The slot belongs to the object this marker is scanning (or
        // to one of its root slots), so the write is race-free.
        *slot = nullptr;
        return true;
    }
    return false;
}

template <class M>
void
Collector::unsharedCheck(Object *obj, M &m)
{
    CostScope cost(m.costSink, AssertCostKind::Unshared);
    m.report(AssertionKind::Unshared, obj,
             "an object that was asserted unshared has more than one "
             "incoming reference (second path shown).",
             false);
}

template <class M>
void
Collector::owneeCheck(Object *obj, uint32_t flags, M &m)
{
    CostScope cost(m.costSink, AssertCostKind::OwnedBy);
    ++m.owneeChecks;
    // kOwnedBit is settled by the direct owner scans of phase 1.
    if (flags & kOwnedBit)
        return;
    Object *owner = engine_.ownership().ownerOf(obj);
    m.report(AssertionKind::OwnedBy, obj,
             format("an object asserted to be owned by a %s is "
                    "reachable without passing through its owner.",
                    owner ? engine_.typeNameOf(owner).c_str()
                          : "<unknown>"),
             false);
}

template <bool kInfra, class M>
void
Collector::visit(Object **slot, Object *obj, M &m)
{
    // One header-word load covers every piggybacked check: the
    // assertion bits share the flag word the mark test reads anyway,
    // which is what makes the checks nearly free (paper section 2).
    uint32_t flags = m.flags(obj);
    if (kInfra && (flags & (kOwneeBit | kDeadBit)) != 0) [[unlikely]] {
        if (flags & kOwneeBit)
            owneeCheck(obj, flags, m);
        if ((flags & kDeadBit) && deadCheck(slot, obj, flags, m))
            return;
    }
    if (!mark<kInfra>(obj, flags, m)) {
        // A second incoming reference, the condition assert-unshared
        // detects. Racing workers may both record it; reportPending
        // dedups to the single report the serial marker emits.
        if (kInfra && (flags & kUnsharedBit) != 0) [[unlikely]]
            unsharedCheck(obj, m);
        return;
    }
    // The ownership phase already visited every slot of an owner and
    // ran every check on those edges; scanning the owner again would
    // count each edge as a second incoming reference.
    if (kInfra && (flags & kOwnerBit) != 0) [[unlikely]]
        return;
    m.push(obj);
}

template <class M, class Visit>
void
Collector::scan(Object *obj, M &m, Visit &&visit)
{
    uint32_t n = obj->numRefs();
    Object **slots = n ? obj->refSlotAddr(0) : nullptr;
    uint32_t first = 0;
    if (hasWeak_ && types_.weakFlags()[obj->typeId()]) [[unlikely]] {
        // Slot 0 of a weak type is not traced through; remember the
        // weak object so the edge can be cleared if its referent
        // dies.
        m.weakRefs.push_back(obj);
        first = 1;
    }
    for (uint32_t i = first; i < n; ++i) {
        if (Object *child = slots[i])
            visit(&slots[i], child);
    }
}

template <bool kPath>
std::vector<Object **>
Collector::rootSlots()
{
    // Registered roots, then thread-local roots: objects pinned by
    // the TLAB fast path until their owning mutator publishes or
    // drops them. The world is stopped, so the rosters are stable.
    // A root object's origin is the first root naming it.
    std::vector<Object **> slots;
    roots_.forEach([&](RootNode &node) {
        if (Object *obj = node.get()) {
            if (kPath)
                paths_.noteOrigin(obj, node.name());
            slots.push_back(node.slotAddr());
        }
    });
    mutators_.forEach([&](MutatorContext &mutator) {
        for (Object *&slot : mutator.localRoots()) {
            if (!slot)
                continue;
            if (kPath)
                paths_.noteOrigin(slot, mutator.name() + " (local)");
            slots.push_back(&slot);
        }
    });
    return slots;
}

template <bool kInfra, bool kPath>
void
Collector::serialMark(const std::vector<Object **> &roots)
{
    SerialMarker<kPath> m(*this, kInfra, costActive_);
    auto visit_edge = [this, &m](Object **slot, Object *obj) {
        visit<kInfra>(slot, obj, m);
    };
    for (Object **slot : roots) {
        visit_edge(slot, *slot);
        // Drain eagerly per root so path attribution stays exact:
        // every tagged chain descends from the root just scanned.
        m.drain(visit_edge);
    }
    mergeTally(m);
}

template <bool kInfra>
void
Collector::parallelMark(const std::vector<Object **> &roots)
{
    const size_t worker_count = config_.markThreads;
    std::deque<ParallelMarker> workers;
    for (size_t i = 0; i < worker_count; ++i)
        workers.emplace_back(*this, kInfra, costActive_);

    // One virtual token per worker: pendingWork_ cannot reach zero
    // until every worker has pushed its whole root slice, so nobody
    // mistakes a not-yet-seeded trace for a finished one.
    pendingWork_.store(static_cast<int64_t>(worker_count),
                       std::memory_order_relaxed);
    std::vector<std::thread> threads;
    for (size_t i = 1; i < worker_count; ++i)
        threads.emplace_back([this, &workers, &roots, i] {
            parallelWorker<kInfra>(workers, i, roots);
        });
    parallelWorker<kInfra>(workers, 0, roots);
    for (std::thread &t : threads)
        t.join();

    std::vector<PendingViolation> verdicts;
    TraceRecorder *tr = traceActive_ ? telemetry_->recorder() : nullptr;
    for (size_t i = 0; i < workers.size(); ++i) {
        ParallelMarker &w = workers[i];
        mergeTally(w);
        stats_.markSteals += w.steals;
        stats_.maxWorklistDepth = std::max<uint64_t>(
            stats_.maxWorklistDepth, w.deque.highWater());
        std::move(w.verdicts.begin(), w.verdicts.end(),
                  std::back_inserter(verdicts));
        if (tr && w.endNs != 0) {
            JsonWriter a;
            a.beginObject()
                .field("marked", w.marked)
                .field("steals", w.steals)
                .endObject();
            tr->complete("mark_worker", "gc.worker", w.beginNs, w.endNs,
                         static_cast<uint32_t>(i + 1), a.str());
        }
    }
    if (kInfra)
        engine_.reportPending(std::move(verdicts));
    ++stats_.parallelMarkPhases;
}

template <bool kInfra>
void
Collector::parallelWorker(std::deque<ParallelMarker> &workers, size_t index,
                          const std::vector<Object **> &roots)
{
    ParallelMarker &w = workers[index];
    const size_t worker_count = workers.size();
    if (traceActive_)
        w.beginNs = nowNanos();
    auto visit_edge = [this, &w](Object **slot, Object *obj) {
        visit<kInfra>(slot, obj, w);
    };

    // Root slots are dealt out in interleaved slices.
    for (size_t i = index; i < roots.size(); i += worker_count)
        visit_edge(roots[i], *roots[i]);
    // Root slice fully pushed: release this worker's seed token.
    pendingWork_.fetch_sub(1, std::memory_order_seq_cst);

    Object *obj = nullptr;
    while (true) {
        bool found = w.deque.pop(obj);
        for (size_t k = 1; !found && k < worker_count; ++k) {
            found = workers[(index + k) % worker_count].deque.steal(obj);
            w.steals += found;
        }
        if (found) {
            scan(obj, w, visit_edge);
            pendingWork_.fetch_sub(1, std::memory_order_seq_cst);
            continue;
        }
        // Nothing local, nothing stealable: the trace is over when
        // no marked-but-unscanned objects remain anywhere.
        if (pendingWork_.load(std::memory_order_seq_cst) == 0)
            break;
        std::this_thread::yield();
    }
    if (traceActive_)
        w.endNs = nowNanos();
}

template <bool kPath>
void
Collector::ownershipPhase()
{
    // {ownee, owner} pairs whose subtrees are scanned after *all*
    // owner regions (truncation queue of section 2.5.2). Completing
    // every owner-region scan first makes ownedness independent of
    // owner registration order.
    std::vector<std::pair<Object *, Object *>> queue;
    SerialMarker<kPath> m(*this, true, false);
    // from_queue is false for the direct owner-region scans (which
    // confer ownedness), true for the deferred ownee subtree scans
    // (which only mark liveness and report unowned ownees).
    auto owner_scan = [&](Object *from, Object *owner, bool from_queue) {
        auto visit_edge = [&](Object **slot, Object *obj) {
            p1Visit(slot, obj, owner, queue, from_queue, m);
        };
        scan(from, m, visit_edge);
        m.drain(visit_edge);
    };

    inOwnershipScan_ = true;
    // Owners are scanned in registration order. Scan order is
    // OBSERVABLE here: a region scan truncates at objects an earlier
    // scan already marked, so which scan first encounters an
    // overlapped ownee — and therefore which misuse/ownedby verdict
    // fires — depends on it.
    // An owner's tag is its position in the table: no lookup.
    const std::vector<Object *> &owners = engine_.ownership().owners();
    for (size_t i = 0; i < owners.size(); ++i) {
        scanKind_ = "owner";
        scanAnchor_ = owners[i];
        currentOwnerTag_ = static_cast<uint32_t>(i) + 1;
        // The owner itself is deliberately not marked: its own
        // liveness is decided by the root scan, which does not
        // rescan its slots (see visit).
        owner_scan(owners[i], owners[i], false);
    }

    // Scan the subtrees under queued ownees; the queue may grow as
    // nested ownees are found. Objects reached here are live, but
    // reaching an ownee here does NOT confer ownedness: ownedness
    // means "reachable through the owner's own structure", which
    // was fully computed above. This is what detects the paper's
    // JBB leak, where a removed Order is reachable only through
    // another Order's Customer (section 3.2.1).
    for (size_t i = 0; i < queue.size(); ++i) {
        auto [ownee, owner] = queue[i];
        scanKind_ = "ownee";
        scanAnchor_ = ownee;
        owner_scan(ownee, owner, true);
    }
    inOwnershipScan_ = false;
    mergeTally(m);
}

template <bool kPath>
void
Collector::p1Visit(Object **slot, Object *obj, Object *owner,
                   std::vector<std::pair<Object *, Object *>> &queue,
                   bool from_queue, SerialMarker<kPath> &m)
{
    uint32_t flags = obj->rawFlags();
    // Everything but the ownee/owner truncation is the phase-2 visit.
    if ((flags & (kOwneeBit | kOwnerBit)) == 0)
        return visit<true>(slot, obj, m);
    // Lifetime checks apply to every encounter, including objects
    // about to be handled by the truncation below.
    if ((flags & kDeadBit) && deadCheck(slot, obj, flags, m))
        return;
    // Another owner: mark it (conservatively keeping it live this
    // cycle) and stop — it is scanned independently.
    if ((flags & kOwneeBit) == 0) {
        mark<true>(obj, flags, m);
        return;
    }

    // Ownee: truncate the scan and queue its subtree for later.
    if (!from_queue && obj->ownerTag() == currentOwnerTag_) {
        // Reached through its owner's own structure: owned.
        ++m.owneeChecks;
        obj->setFlag(kOwnedBit);
        if (mark<true>(obj, flags, m))
            queue.emplace_back(obj, owner);
        return;
    }
    if (from_queue) {
        // Reached inside an ownee subtree. An ownee that was not
        // already owned by a direct owner scan is reachable only
        // *around* its owner's structure: violation.
        owneeCheck(obj, flags, m);
    } else {
        // Direct owner-region scan reached an ownee of a *different*
        // owner: the owner regions overlap, which assert-ownedby
        // requires to be disjoint (improper use, section 2.5.2).
        ++m.owneeChecks;
        Object *actual = engine_.ownership().ownerOf(obj);
        m.report(AssertionKind::OwnershipMisuse, obj,
                 format("improper use of assert-ownedby: an ownee of a "
                        "%s was reached while scanning from a %s (owner "
                        "regions must be disjoint).",
                        actual ? engine_.typeNameOf(actual).c_str()
                               : "<unknown>",
                        engine_.typeNameOf(owner).c_str()),
                 false);
    }
    if (mark<true>(obj, flags, m)) {
        Object *actual = engine_.ownership().ownerOf(obj);
        queue.emplace_back(obj, actual ? actual : owner);
    }
}

// Explicit instantiations for the three configurations collect()
// dispatches to.
template CollectionResult Collector::collectImpl<true, true>();
template CollectionResult Collector::collectImpl<true, false>();
template CollectionResult Collector::collectImpl<false, false>();

} // namespace gcassert
