#include "gc/collector.h"

#include "detectors/backgraph.h"

#include <algorithm>
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
    for (auto &[seq, obj] : dying) {
        markObject<kInfra>(obj);
        // An owner's subtree was traced by the ownership phase.
        if (!kInfra || !obj->testFlag(kOwnerBit)) {
            worklist_.push(obj);
            p2Drain<kInfra, kPath>();
        }
        auto it = finalizables_.find(obj);
        pendingFinalizers_.emplace_back(obj, std::move(it->second.fn));
        finalizables_.erase(it);
    }
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
        bool parallel = false;
        markCost_ = AssertCostTallies{};
        // cost_ arms the sequential checks' CostScopes for exactly
        // this span; parallel workers tally into their own copies
        // and merge into markCost_ after the join.
        if (costActive_)
            cost_ = &markCost_;
        {
            ScopedTimer t(stats_.tracePhase);
            if constexpr (!kPath) {
                if (config_.markThreads > 1) {
                    parallel = true;
                    parallelMarkPhase<kInfra>();
                } else {
                    rootScanPhase<kInfra, kPath>();
                }
            } else {
                rootScanPhase<kInfra, kPath>();
            }
        }
        cost_ = nullptr;
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
    if (hasWeak_) {
        for (Object *weak : weakRefs_) {
            Object *target = weak->ref(0);
            if (target && !target->marked())
                weak->setRef(0, nullptr);
        }
        weakRefs_.clear();
    }

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

template <bool kInfra>
void
Collector::markObject(Object *obj)
{
    obj->setFlag(kMarkBit);
    ++markedThisGc_;
    if (kInfra) {
        // The per-object RVMClass inspection of section 2.4.1: check
        // whether the object's type is instance-tracked. The flag is
        // a dense byte array so the untracked common case stays
        // cheap in the trace loop. Attribution times only the
        // tracked-type tally; the flag test itself is baseline visit
        // cost and lands in the Other bucket.
        TypeId type = obj->typeId();
        if (types_.trackedFlags()[type]) {
            CostScope cost(cost_, AssertCostKind::Instances);
            types_.bumpInstanceCount(type, obj->sizeBytes());
        }
    }
    // Census piggybacks on the mark win exactly as instance tracking
    // does — zero extra traversal, just a tally per newly-live object.
    if (censusActive_) [[unlikely]] {
        TypeId type = obj->typeId();
        ++censusCounts_[type];
        censusBytes_[type] += obj->sizeBytes();
    }
}

template <bool kPath>
void
Collector::reportPathViolation(AssertionKind kind, Object *obj,
                               const std::string &message)
{
    Violation v;
    v.kind = kind;
    v.offendingType = engine_.typeNameOf(obj);
    v.gcNumber = stats_.collections;
    v.message = message;
    v.offendingAddress = obj;
    if (kPath) {
        std::vector<const Object *> path = paths_.buildPath(worklist_, obj);
        // Phase-1 scans attribute the path to the owner or ownee
        // being scanned; the label is built lazily, only here, so
        // the scan itself stays allocation-free.
        if (inOwnershipScan_) {
            v.rootName = std::string(scanKind_) + " " +
                engine_.typeNameOf(scanAnchor_) + " (ownership scan)";
        } else {
            v.rootName = paths_.originOf(path.front());
        }
        v.path.reserve(path.size());
        for (const Object *hop : path)
            v.path.push_back(PathEntry{engine_.typeNameOf(hop), hop});
    }
    engine_.report(std::move(v));
}

template <bool kPath>
bool
Collector::deadCheck(Object **slot, Object *obj)
{
    if (!obj->testFlag(kDeadBit))
        return false;

    // The early-out above keeps the common no-dead-bit path free of
    // the timing scope; only actual check work is attributed.
    CostScope cost(cost_, AssertCostKind::Dead);
    AssertionKind kind = AssertionKind::Dead;
    std::string what = "an object that was asserted dead is reachable.";
    if (obj->testFlag(kOrphanBit)) {
        kind = AssertionKind::OwnedBy;
        cost.reclassify(AssertCostKind::OwnedBy);
        what = "an ownee outlived its owner (the owner was reclaimed in "
               "an earlier collection) and is still reachable.";
    } else if (obj->testFlag(kRegionBit)) {
        kind = AssertionKind::AllDead;
        cost.reclassify(AssertCostKind::AllDead);
        const std::string *label = engine_.regionLabelOf(obj);
        what = label
            ? format("an object allocated in assert-alldead region "
                     "'%s' is reachable.", label->c_str())
            : "an object allocated in an assert-alldead region is "
              "reachable.";
    }
    bool force = engine_.reactions().forKind(kind) == Reaction::ForceTrue;

    if (!engine_.alreadyReported(obj)) {
        if (force)
            what += " Forcing reclamation by nulling the reference.";
        reportPathViolation<kPath>(kind, obj, what);
        if (!engine_.options().stickyDeadAssertions && !force) {
            obj->clearFlag(kDeadBit);
            obj->clearFlag(kRegionBit);
            obj->clearFlag(kOrphanBit);
        }
    }

    if (force) {
        // ForceTrue: sever this incoming reference and never mark the
        // object, so the sweep reclaims it in this very collection.
        *slot = nullptr;
        return true;
    }
    return false;
}

template <bool kPath>
void
Collector::unsharedCheck(Object *obj)
{
    if (!obj->testFlag(kUnsharedBit))
        return;
    CostScope cost(cost_, AssertCostKind::Unshared);
    if (!engine_.alreadyReported(obj)) {
        reportPathViolation<kPath>(
            AssertionKind::Unshared, obj,
            "an object that was asserted unshared has more than one "
            "incoming reference (second path shown).");
    }
}

template <bool kPath>
void
Collector::owneeCheckPhase2(Object *obj)
{
    if (!obj->testFlag(kOwneeBit))
        return;
    CostScope cost(cost_, AssertCostKind::OwnedBy);
    ++stats_.owneeChecks;
    ++stats_.owneeChecksLastGc;
    if (!obj->testFlag(kOwnedBit) && !engine_.alreadyReported(obj)) {
        Object *owner = engine_.ownership().ownerOf(obj);
        std::string owner_name =
            owner ? engine_.typeNameOf(owner) : std::string("<unknown>");
        reportPathViolation<kPath>(
            AssertionKind::OwnedBy, obj,
            format("an object asserted to be owned by a %s is reachable "
                   "without passing through its owner.",
                   owner_name.c_str()));
    }
}

template <bool kInfra, bool kPath>
void
Collector::p2Visit(Object **slot, Object *obj)
{
    // One header-word load covers every piggybacked check: the
    // assertion bits share the flag word the mark test reads anyway,
    // which is what makes the checks nearly free (paper section 2).
    uint32_t flags = obj->rawFlags();
    if (kInfra && (flags & (kOwneeBit | kDeadBit)) != 0) [[unlikely]] {
        if (flags & kOwneeBit)
            owneeCheckPhase2<kPath>(obj);
        if ((flags & kDeadBit) && deadCheck<kPath>(slot, obj))
            return;
    }
    if (flags & kMarkBit) {
        if (kInfra && (flags & kUnsharedBit) != 0) [[unlikely]]
            unsharedCheck<kPath>(obj);
        return;
    }
    markObject<kInfra>(obj);
    // The ownership phase already visited every slot of an owner and
    // ran every check on those edges; scanning the owner again would
    // count each edge as a second incoming reference.
    if (kInfra && (flags & kOwnerBit) != 0) [[unlikely]]
        return;
    worklist_.push(obj);
}

template <bool kInfra, bool kPath>
void
Collector::p2Drain()
{
    while (!worklist_.empty()) {
        uintptr_t word = worklist_.pop();
        if (Worklist::isTagged(word))
            continue;
        Object *obj = Worklist::objectOf(word);
        if (kPath)
            worklist_.pushTagged(obj);
        uint32_t n = obj->numRefs();
        Object **slots = n ? obj->refSlotAddr(0) : nullptr;
        uint32_t first = 0;
        if (hasWeak_ && types_.weakFlags()[obj->typeId()]) [[unlikely]] {
            // Slot 0 of a weak type is not traced through; remember
            // the weak object so the edge can be cleared if its
            // referent dies.
            weakRefs_.push_back(obj);
            first = 1;
        }
        for (uint32_t i = first; i < n; ++i) {
            Object *child = slots[i];
            if (child)
                p2Visit<kInfra, kPath>(&slots[i], child);
        }
    }
}

template <bool kInfra, bool kPath>
void
Collector::rootScanPhase()
{
    roots_.forEach([this](RootNode &node) {
        Object *obj = node.get();
        if (!obj)
            return;
        if (kPath)
            paths_.noteOrigin(obj, node.name());
        p2Visit<kInfra, kPath>(node.slotAddr(), obj);
        // Drain eagerly per root so path attribution stays exact:
        // every tagged chain descends from the root just scanned.
        p2Drain<kInfra, kPath>();
    });
    // Thread-local roots: objects pinned by the TLAB fast path until
    // their owning mutator publishes or drops them. The world is
    // stopped, so the rosters are stable for the whole phase.
    mutators_.forEach([this](MutatorContext &mutator) {
        for (Object *&slot : mutator.localRoots()) {
            Object *obj = slot;
            if (!obj)
                continue;
            if (kPath)
                paths_.noteOrigin(obj, mutator.name() + " (local)");
            p2Visit<kInfra, kPath>(&slot, obj);
            p2Drain<kInfra, kPath>();
        }
    });
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

    inOwnershipScan_ = true;
    // Owners are scanned in registration order. Scan order is
    // OBSERVABLE here: a region scan truncates at objects an earlier
    // scan already marked, so which scan first encounters an
    // overlapped ownee — and therefore which misuse/ownedby verdict
    // fires — depends on it.
    // An owner's tag is its position in the table: no lookup.
    const std::vector<Object *> &owners = engine_.ownership().owners();
    for (size_t i = 0; i < owners.size(); ++i) {
        Object *owner = owners[i];
        scanKind_ = "owner";
        scanAnchor_ = owner;
        currentOwnerTag_ = static_cast<uint32_t>(i) + 1;
        // The owner itself is deliberately not marked: its own
        // liveness is decided by the root scan, which does not
        // rescan its slots (see p2Visit).
        ownerScan<kPath>(owner, owner, queue, false);
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
        ownerScan<kPath>(ownee, owner, queue, true);
    }
    inOwnershipScan_ = false;
}

template <bool kPath>
void
Collector::ownerScan(Object *from, Object *owner,
                     std::vector<std::pair<Object *, Object *>> &queue,
                     bool from_queue)
{
    uint32_t n = from->numRefs();
    Object **slots = n ? from->refSlotAddr(0) : nullptr;
    uint32_t first = 0;
    if (hasWeak_ && types_.weakFlags()[from->typeId()]) [[unlikely]] {
        weakRefs_.push_back(from);
        first = 1;
    }
    for (uint32_t i = first; i < n; ++i) {
        Object *child = slots[i];
        if (child)
            p1Visit<kPath>(&slots[i], child, owner, queue, from_queue);
    }
    while (!worklist_.empty()) {
        uintptr_t word = worklist_.pop();
        if (Worklist::isTagged(word))
            continue;
        Object *obj = Worklist::objectOf(word);
        if (kPath)
            worklist_.pushTagged(obj);
        uint32_t m = obj->numRefs();
        Object **child_slots = m ? obj->refSlotAddr(0) : nullptr;
        uint32_t begin = 0;
        if (hasWeak_ && types_.weakFlags()[obj->typeId()]) [[unlikely]] {
            weakRefs_.push_back(obj);
            begin = 1;
        }
        for (uint32_t i = begin; i < m; ++i) {
            Object *child = child_slots[i];
            if (child)
                p1Visit<kPath>(&child_slots[i], child, owner, queue,
                               from_queue);
        }
    }
}

template <bool kPath>
void
Collector::p1Visit(Object **slot, Object *obj, Object *owner,
                   std::vector<std::pair<Object *, Object *>> &queue,
                   bool from_queue)
{
    // Lifetime checks apply to every encounter, including objects
    // about to be handled by the ownee/owner truncation below.
    if (deadCheck<kPath>(slot, obj))
        return;

    // Ownee: truncate the scan and queue its subtree for later.
    if (obj->testFlag(kOwneeBit)) {
        ++stats_.owneeChecks;
        ++stats_.owneeChecksLastGc;
        bool was_marked = obj->marked();
        if (!from_queue && obj->ownerTag() == currentOwnerTag_) {
            // Reached through its owner's own structure: owned.
            obj->setFlag(kOwnedBit);
            if (!was_marked) {
                markObject<true>(obj);
                queue.emplace_back(obj, owner);
            }
            return;
        }
        if (from_queue) {
            // Reached inside an ownee subtree. An ownee that was not
            // already owned by a direct owner scan is reachable only
            // *around* its owner's structure: violation.
            if (!obj->testFlag(kOwnedBit) &&
                !engine_.alreadyReported(obj)) {
                Object *actual = engine_.ownership().ownerOf(obj);
                reportPathViolation<kPath>(
                    AssertionKind::OwnedBy, obj,
                    format("an object asserted to be owned by a %s is "
                           "reachable without passing through its "
                           "owner.",
                           (actual ? engine_.typeNameOf(actual)
                                   : std::string("<unknown>")).c_str()));
            }
        } else {
            // Direct owner-region scan reached an ownee of a
            // *different* owner: the owner regions overlap, which
            // assert-ownedby requires to be disjoint (improper use,
            // section 2.5.2).
            if (!engine_.alreadyReported(obj)) {
                Object *actual = engine_.ownership().ownerOf(obj);
                reportPathViolation<kPath>(
                    AssertionKind::OwnershipMisuse, obj,
                    format("improper use of assert-ownedby: an ownee of "
                           "a %s was reached while scanning from a %s "
                           "(owner regions must be disjoint).",
                           (actual ? engine_.typeNameOf(actual)
                                   : std::string("<unknown>")).c_str(),
                           engine_.typeNameOf(owner).c_str()));
            }
        }
        if (!was_marked) {
            markObject<true>(obj);
            Object *actual = engine_.ownership().ownerOf(obj);
            queue.emplace_back(obj, actual ? actual : owner);
        }
        return;
    }

    // Another owner: mark it (conservatively keeping it live this
    // cycle) and stop — it is scanned independently.
    if (obj->testFlag(kOwnerBit)) {
        if (!obj->marked())
            markObject<true>(obj);
        return;
    }

    if (obj->marked()) {
        unsharedCheck<kPath>(obj);
        return;
    }

    markObject<true>(obj);
    worklist_.push(obj);
}

// ---------------------------------------------------------------------
// Parallel mark phase (markThreads > 1, path recording off)
// ---------------------------------------------------------------------

/**
 * Private state of one marker thread. Everything a worker touches
 * while tracing is either immutable for the phase (type flags, the
 * ownership table, reaction policy), per-object-exclusive (reference
 * slots: the CAS mark guarantees exactly one worker scans each
 * object), accessed atomically (the object flag word, the
 * termination counter), or lives here and is merged after the join.
 */
struct Collector::MarkWorker {
    MarkDeque deque;
    /** Objects this worker won the mark race for. */
    uint64_t marked = 0;
    /** Ownee-membership checks performed. */
    uint64_t owneeChecks = 0;
    /** Successful steals from peers. */
    uint64_t steals = 0;
    /** Violations to merge-report after the join. */
    std::vector<PendingViolation> pending;
    /** Marked weak-reference objects (merged into weakRefs_). */
    std::vector<Object *> weakRefs;
    /** Dense per-type tallies, indexed by TypeId (kInfra only). */
    std::vector<uint64_t> instanceCounts;
    std::vector<uint64_t> instanceBytes;
    /** Per-type census tallies (armed only when a census is active). */
    std::vector<uint64_t> censusCounts;
    std::vector<uint64_t> censusBytes;
    /** Per-kind check-time tallies (armed when costActive_); merged
     *  into markCost_ after the join like everything above. */
    AssertCostTallies cost;
    /** Wall-clock span of this worker's run (tracing only). */
    uint64_t beginNs = 0;
    uint64_t endNs = 0;
};

template <bool kInfra>
void
Collector::parallelMarkPhase()
{
    const size_t worker_count = config_.markThreads;

    // Snapshot the root slots; workers take interleaved slices.
    // Mutator local-root rosters count as roots too (see
    // rootScanPhase).
    std::vector<Object **> root_slots;
    roots_.forEach([&](RootNode &node) {
        if (node.get())
            root_slots.push_back(node.slotAddr());
    });
    mutators_.forEach([&](MutatorContext &mutator) {
        for (Object *&slot : mutator.localRoots())
            if (slot)
                root_slots.push_back(&slot);
    });

    std::vector<MarkWorker> workers(worker_count);
    if (kInfra) {
        for (MarkWorker &w : workers) {
            w.instanceCounts.assign(types_.size(), 0);
            w.instanceBytes.assign(types_.size(), 0);
        }
    }
    if (censusActive_) {
        for (MarkWorker &w : workers) {
            w.censusCounts.assign(types_.size(), 0);
            w.censusBytes.assign(types_.size(), 0);
        }
    }

    // One virtual token per worker: pendingWork_ cannot reach zero
    // until every worker has pushed its whole root slice, so nobody
    // mistakes a not-yet-seeded trace for a finished one.
    pendingWork_.store(static_cast<int64_t>(worker_count),
                       std::memory_order_relaxed);

    std::vector<std::thread> threads;
    threads.reserve(worker_count - 1);
    for (size_t i = 1; i < worker_count; ++i)
        threads.emplace_back([this, &workers, &root_slots, i] {
            parWorkerRun<kInfra>(workers, i, root_slots);
        });
    parWorkerRun<kInfra>(workers, 0, root_slots);
    for (std::thread &t : threads)
        t.join();

    // Merge, single-threaded again: counters, weak refs, per-type
    // tallies, and the deferred violation reports.
    std::vector<PendingViolation> pending;
    for (MarkWorker &w : workers) {
        markedThisGc_ += w.marked;
        stats_.owneeChecks += w.owneeChecks;
        stats_.owneeChecksLastGc += w.owneeChecks;
        stats_.markSteals += w.steals;
        stats_.maxWorklistDepth = std::max<uint64_t>(
            stats_.maxWorklistDepth, w.deque.highWater());
        weakRefs_.insert(weakRefs_.end(), w.weakRefs.begin(),
                         w.weakRefs.end());
        for (PendingViolation &pv : w.pending)
            pending.push_back(std::move(pv));
        if (costActive_)
            markCost_.merge(w.cost);
        if (censusActive_) {
            for (size_t t = 0; t < w.censusCounts.size(); ++t) {
                censusCounts_[t] += w.censusCounts[t];
                censusBytes_[t] += w.censusBytes[t];
            }
        }
    }
    if (traceActive_) {
        TraceRecorder *tr = telemetry_->recorder();
        for (size_t i = 0; i < workers.size(); ++i) {
            const MarkWorker &w = workers[i];
            if (w.endNs == 0)
                continue;
            JsonWriter a;
            a.beginObject()
                .field("marked", w.marked)
                .field("steals", w.steals)
                .endObject();
            tr->complete("mark_worker", "gc.worker", w.beginNs, w.endNs,
                         static_cast<uint32_t>(i + 1), a.str());
        }
    }
    if (kInfra) {
        for (TypeId id : types_.trackedTypes()) {
            for (MarkWorker &w : workers) {
                if (w.instanceCounts[id] != 0 || w.instanceBytes[id] != 0)
                    types_.bumpInstanceCountBy(id, w.instanceCounts[id],
                                               w.instanceBytes[id]);
            }
        }
        engine_.reportPending(std::move(pending));
    }
    ++stats_.parallelMarkPhases;
}

template <bool kInfra>
void
Collector::parWorkerRun(std::vector<MarkWorker> &workers, size_t index,
                        const std::vector<Object **> &root_slots)
{
    MarkWorker &w = workers[index];
    const size_t worker_count = workers.size();
    if (traceActive_)
        w.beginNs = nowNanos();

    for (size_t i = index; i < root_slots.size(); i += worker_count) {
        Object **slot = root_slots[i];
        if (Object *obj = *slot)
            parVisit<kInfra>(slot, obj, w);
    }
    // Root slice fully pushed: release this worker's seed token.
    pendingWork_.fetch_sub(1, std::memory_order_seq_cst);

    Object *obj = nullptr;
    while (true) {
        if (w.deque.pop(obj)) {
            parScan<kInfra>(obj, w);
            pendingWork_.fetch_sub(1, std::memory_order_seq_cst);
            continue;
        }
        bool stole = false;
        for (size_t attempt = 1; attempt < worker_count; ++attempt) {
            size_t victim = (index + attempt) % worker_count;
            if (workers[victim].deque.steal(obj)) {
                stole = true;
                ++w.steals;
                break;
            }
        }
        if (stole) {
            parScan<kInfra>(obj, w);
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

template <bool kInfra>
void
Collector::parScan(Object *obj, MarkWorker &w)
{
    uint32_t n = obj->numRefs();
    Object **slots = n ? obj->refSlotAddr(0) : nullptr;
    uint32_t first = 0;
    if (hasWeak_ && types_.weakFlags()[obj->typeId()]) [[unlikely]] {
        w.weakRefs.push_back(obj);
        first = 1;
    }
    for (uint32_t i = first; i < n; ++i) {
        Object *child = slots[i];
        if (child)
            parVisit<kInfra>(&slots[i], child, w);
    }
}

template <bool kInfra>
void
Collector::parVisit(Object **slot, Object *obj, MarkWorker &w)
{
    // Same one-flag-word economy as p2Visit, with an atomic load:
    // marker threads mutate the word concurrently via CAS.
    uint32_t flags = obj->rawFlagsAtomic();
    if (kInfra && (flags & (kOwneeBit | kDeadBit)) != 0) [[unlikely]] {
        if (flags & kOwneeBit)
            parOwneeCheck(obj, flags, w);
        if ((flags & kDeadBit) && parDeadCheck(slot, obj, flags, w))
            return;
    }
    if (obj->tryMark()) {
        ++w.marked;
        if (kInfra) {
            TypeId type = obj->typeId();
            if (types_.trackedFlags()[type]) {
                CostScope cost(costActive_ ? &w.cost : nullptr,
                               AssertCostKind::Instances);
                ++w.instanceCounts[type];
                w.instanceBytes[type] += obj->sizeBytes();
            }
        }
        if (censusActive_) [[unlikely]] {
            TypeId type = obj->typeId();
            ++w.censusCounts[type];
            w.censusBytes[type] += obj->sizeBytes();
        }
        // Owners' slots belong to the ownership phase (see p2Visit).
        if (kInfra && (flags & kOwnerBit) != 0) [[unlikely]]
            return;
        pendingWork_.fetch_add(1, std::memory_order_seq_cst);
        w.deque.push(obj);
    } else if (kInfra && (flags & kUnsharedBit) != 0) [[unlikely]] {
        // The loser of the mark race is by definition a second
        // incoming reference — the condition assert-unshared
        // detects. Racing workers may both record it; the merge
        // dedups to the single report the sequential trace emits.
        CostScope cost(costActive_ ? &w.cost : nullptr,
                       AssertCostKind::Unshared);
        w.pending.push_back(
            {AssertionKind::Unshared, obj,
             "an object that was asserted unshared has more than one "
             "incoming reference (second path shown)."});
    }
}

void
Collector::parOwneeCheck(Object *obj, uint32_t flags, MarkWorker &w)
{
    CostScope cost(costActive_ ? &w.cost : nullptr,
                   AssertCostKind::OwnedBy);
    ++w.owneeChecks;
    // kOwnedBit was settled by the (sequential) ownership phase and
    // is read-only during phase 2.
    if ((flags & kOwnedBit) == 0) {
        Object *owner = engine_.ownership().ownerOf(obj);
        std::string owner_name =
            owner ? engine_.typeNameOf(owner) : std::string("<unknown>");
        w.pending.push_back(
            {AssertionKind::OwnedBy, obj,
             format("an object asserted to be owned by a %s is reachable "
                    "without passing through its owner.",
                    owner_name.c_str())});
    }
}

bool
Collector::parDeadCheck(Object **slot, Object *obj, uint32_t flags,
                        MarkWorker &w)
{
    CostScope cost(costActive_ ? &w.cost : nullptr,
                   AssertCostKind::Dead);
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
        // Read-only during the trace: labels are written only under
        // the runtime's exclusive lock, never while markers run.
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
    w.pending.push_back({kind, obj, std::move(what)});
    if (!engine_.options().stickyDeadAssertions && !force)
        obj->clearFlagsAtomic(kDeadBit | kRegionBit | kOrphanBit);

    if (force) {
        // The slot belongs to the object this worker is scanning
        // (or to one of its root-slice RootNodes), so the write is
        // data-race-free; every incoming edge gets severed by
        // whichever worker traverses it, as in the sequential trace.
        *slot = nullptr;
        return true;
    }
    return false;
}

// Explicit instantiations for the three configurations collect()
// dispatches to.
template CollectionResult Collector::collectImpl<true, true>();
template CollectionResult Collector::collectImpl<true, false>();
template CollectionResult Collector::collectImpl<false, false>();

} // namespace gcassert
