#include "runtime/runtime.h"

#include "observe/live_server.h"
#include "runtime/handle.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/strutil.h"

namespace gcassert {

namespace {

/** Propagate runtime-level knobs into the nested heap config. */
RuntimeConfig
withDerivedHeapConfig(RuntimeConfig config)
{
    config.heap.generational = config.generational;
    return config;
}

} // namespace

Runtime::Runtime(RuntimeConfig config)
    : config_(withDerivedHeapConfig(std::move(config))),
      heap_(config_.heap),
      engine_(types_, mutators_, config_.engine),
      collector_(heap_, types_, roots_, mutators_, engine_, remset_,
                 CollectorConfig{config_.infrastructure,
                                 config_.recordPaths,
                                 config_.markThreads,
                                 config_.sweepThreads,
                                 config_.lazySweep})
{
    // Why-alive backgraph: second write-barrier consumer; the
    // collector prunes dead edges during sweep and samples the leak
    // trends after each full collection's verdicts settle.
    if (config_.backgraph) {
        backgraph_ = std::make_unique<Backgraph>(
            types_, engine_,
            Backgraph::Config{config_.backgraphInDegreeCap,
                              config_.backgraphWindow});
        collector_.setBackgraph(backgraph_.get());
    }
    // The barrier arms for generational collection, for the
    // backgraph's full write stream, or both.
    if (config_.generational || backgraph_)
        barrier_ = std::make_unique<BarrierScope>(
            heap_, remset_, &barrierSlowHits_, backgraph_.get());
    if (config_.observe.any()) {
        telemetry_ = std::make_unique<Telemetry>(config_.observe);
        collector_.setTelemetry(telemetry_.get());
        wireTelemetry();
        if (config_.observe.livePort != 0) {
            // A failed bind (port taken) degrades to running
            // without the endpoint — the warn() from the listener
            // names the port — rather than failing the runtime.
            auto server = std::make_unique<LiveTelemetryServer>(
                *telemetry_, config_.observe.livePort);
            if (server->start()) {
                liveServer_ = std::move(server);
                if (config_.verboseGc)
                    inform(format(
                        "live telemetry endpoint on 127.0.0.1:%u",
                        unsigned{liveServer_->port()}));
            }
        }
    } else if (backgraph_) {
        // No telemetry, but the backgraph can still answer what
        // keeps a violation's offender alive — attach the lighter
        // observer variant with only the whyAlive enrichment.
        engine_.setViolationObserver([this](Violation &v) {
            JsonWriter w;
            w.beginObject();
            if (appendWhyAliveJson(w, v)) {
                w.endObject();
                v.provenanceJson = w.str();
            }
        });
    }
}

Runtime::~Runtime()
{
    // Stop the endpoint thread before flushing: the flush's metrics
    // publish and the serving thread both read the telemetry bundle,
    // and nothing may read it once members start destructing. The
    // teardown metrics snapshot is seq-stamped with the last
    // *published* snapshot (no new publish happens here), so the
    // endpoint's final /metrics response and the teardown document
    // agree on the sequence number.
    liveServer_.reset();
    if (telemetry_)
        telemetry_->flush();
}

void
Runtime::publishTelemetry()
{
    if (!telemetry_)
        return;
    // Exclusive: gauge readers touch non-atomic accumulators
    // (GcStats, remset tables) that mutators update under the
    // shared lock, so a shared-mode publish would race them.
    std::lock_guard<std::shared_mutex> guard(lock_);
    collector_.publishTelemetry();
}

uint16_t
Runtime::livePort() const
{
    return liveServer_ ? liveServer_->port() : 0;
}

void
Runtime::wireTelemetry()
{
    // Gauges read the accumulators the hot paths already maintain
    // (GcStats, heap atomics, remset sizes): registering them adds
    // zero cost to allocation or collection — sampling happens only
    // at snapshot()/publish() time.
    MetricsRegistry &m = telemetry_->metrics();
    const GcStats &gs = collector_.stats();
    m.gauge("gc.collections", [&gs] { return gs.collections; });
    m.gauge("gc.minor_collections", [&gs] { return gs.minorCollections; });
    m.gauge("gc.objects_marked", [&gs] { return gs.objectsMarked; });
    m.gauge("gc.objects_swept", [&gs] { return gs.objectsSwept; });
    m.gauge("gc.bytes_swept", [&gs] { return gs.bytesSwept; });
    m.gauge("gc.violations", [&gs] { return gs.violations; });
    m.gauge("gc.last_live_objects", [&gs] { return gs.lastLiveObjects; });
    m.gauge("gc.last_live_bytes", [&gs] { return gs.lastLiveBytes; });
    m.gauge("gc.total_pause_nanos",
            [&gs] { return gs.totalGc.elapsedNanos(); });
    m.gauge("gc.mark_steals", [&gs] { return gs.markSteals; });
    m.gauge("gc.nursery_promoted", [&gs] { return gs.nurseryPromoted; });
    const Heap &h = heap_;
    m.gauge("heap.used_bytes", [&h] { return h.usedBytes(); });
    m.gauge("heap.live_objects", [&h] { return h.liveObjects(); });
    m.gauge("heap.total_allocated_bytes",
            [&h] { return h.totalAllocatedBytes(); });
    m.gauge("heap.total_allocated_objects",
            [&h] { return h.totalAllocatedObjects(); });
    m.gauge("heap.tlab_allocs", [&h] { return h.tlabAllocs(); });
    m.gauge("heap.blocks_minted", [&h] { return h.blocksMinted(); });
    m.gauge("heap.nursery_bytes", [&h] { return h.nurseryBytes(); });
    const RememberedSet &rs = remset_;
    m.gauge("remset.sources", [&rs] { return uint64_t{rs.size()}; });
    m.gauge("remset.total_records", [&rs] { return rs.totalRecords(); });
    const std::atomic<uint64_t> &hits = barrierSlowHits_;
    m.gauge("barrier.slow_path_hits", [&hits] {
        return hits.load(std::memory_order_relaxed);
    });
    if (backgraph_) {
        const Backgraph *bg = backgraph_.get();
        m.gauge("backgraph.nodes", [bg] { return bg->nodeCount(); });
        m.gauge("backgraph.edges", [bg] { return bg->edgeCount(); });
        m.gauge("backgraph.saturated_nodes",
                [bg] { return bg->saturatedCount(); });
        m.gauge("backgraph.sites", [bg] { return bg->siteCount(); });
        m.gauge("backgraph.edge_records",
                [bg] { return bg->edgeRecords(); });
        m.gauge("backgraph.pruned_edges",
                [bg] { return bg->prunedEdges(); });
        m.gauge("backgraph.growth_reports",
                [bg] { return bg->growthReports(); });
        m.gauge("backgraph.find_leak_reports",
                [bg] { return bg->findLeakReports(); });
    }

    // Live-endpoint bookkeeping: the bounded recent-violations ring
    // is a copy for the endpoint only (the engine's own record stays
    // unbounded — it is the verdict surface tests compare), so its
    // drop count is worth a gauge in long server runs.
    const ViolationRing &ring = telemetry_->violationRing();
    m.gauge("observe.violations_dropped",
            [&ring] { return ring.dropped(); });
    m.gauge("observe.snapshot_history_dropped", [this] {
        return telemetry_->history().dropped();
    });

    // Pause SLO: streaming percentiles per pause flavour plus the
    // budget and over-budget count.
    const PauseSloTracker &slo = telemetry_->pauseSlo();
    m.gauge("gc.pause.budget_nanos", [&slo] { return slo.budgetNanos(); });
    m.gauge("gc.pause.slo_violations",
            [&slo] { return slo.violationCount(); });
    m.gauge("gc.pause.full.count", [&slo] { return slo.full().count(); });
    m.gauge("gc.pause.full.p50_nanos",
            [&slo] { return slo.full().percentile(50.0); });
    m.gauge("gc.pause.full.p99_nanos",
            [&slo] { return slo.full().percentile(99.0); });
    m.gauge("gc.pause.full.max_nanos",
            [&slo] { return slo.full().max(); });
    m.gauge("gc.pause.minor.count",
            [&slo] { return slo.minor().count(); });
    m.gauge("gc.pause.minor.p50_nanos",
            [&slo] { return slo.minor().percentile(50.0); });
    m.gauge("gc.pause.minor.p99_nanos",
            [&slo] { return slo.minor().percentile(99.0); });
    m.gauge("gc.pause.minor.max_nanos",
            [&slo] { return slo.minor().max(); });

    // Per-assertion-kind cost attribution: one gauge per (phase,
    // kind) bucket; each phase's buckets sum to (within scope
    // overhead) that phase's cumulative span time.
    const AssertCostAttribution &ac = telemetry_->assertCost();
    for (size_t i = 0; i < kNumAssertCostKinds; ++i) {
        auto kind = static_cast<AssertCostKind>(i);
        std::string name = assertCostKindName(kind);
        m.gauge("assert.cost.mark." + name + "_nanos",
                [&ac, kind] { return ac.markNanos(kind); });
        m.gauge("assert.cost.finish." + name + "_nanos",
                [&ac, kind] { return ac.finishNanos(kind); });
    }

    // Violation provenance: enrich every report with the heap state
    // and latest census at the moment it fired, and drop an instant
    // event into the trace. Context only — the observer never writes
    // kind/message/gcNumber, so verdict streams are identical with
    // telemetry on or off.
    Telemetry *t = telemetry_.get();
    engine_.setViolationObserver([this, t](Violation &v) {
        t->metrics().counter("assert.violations_observed")->increment();
        JsonWriter w;
        w.beginObject()
            .field("heapUsedBytes", heap_.usedBytes())
            .field("heapLiveObjects", heap_.liveObjects())
            .field("nurseryBytes", heap_.nurseryBytes());
        if (v.offendingAddress) {
            const Object *obj =
                static_cast<const Object *>(v.offendingAddress);
            w.field("offenderInNursery", obj->testFlag(kNurseryBit));
        }
        CensusSnapshot census = t->latestCensus();
        if (!census.empty()) {
            w.field("censusGc", census.gcNumber);
            w.key("censusTop").valueRaw(census.topRowsJson(5));
        }
        appendWhyAliveJson(w, v);
        w.endObject();
        v.provenanceJson = w.str();
        t->violationRing().push(assertionKindName(v.kind), v.gcNumber,
                                v.message);
        if (TraceRecorder *tr = t->recorder()) {
            JsonWriter a;
            a.beginObject()
                .field("kind", assertionKindName(v.kind))
                .field("type", v.offendingType)
                .field("gc", v.gcNumber)
                .endObject();
            tr->instant("violation", "assert", nowNanos(), a.str());
        }
    });
}

bool
Runtime::appendWhyAliveJson(JsonWriter &w, const Violation &v)
{
    if (!backgraph_ || !v.offendingAddress)
        return false;
    WhyAliveReport why = backgraph_->whyAlive(
        static_cast<const Object *>(v.offendingAddress));
    if (!why.known)
        return false;
    JsonWriter inner;
    inner.beginObject()
        .field("rootReached", why.rootReached)
        .field("saturated", why.saturated);
    inner.key("path").beginArray();
    for (const PathEntry &hop : why.path)
        inner.value(hop.typeName);
    inner.endArray().endObject();
    w.key("whyAlive").valueRaw(inner.str());
    return true;
}

void
Runtime::requestCensus()
{
    if (!telemetry_)
        return;
    std::lock_guard<std::shared_mutex> guard(lock_);
    collector_.requestCensus();
}

CensusSnapshot
Runtime::latestCensus() const
{
    return telemetry_ ? telemetry_->latestCensus() : CensusSnapshot{};
}

MutatorContext &
Runtime::registerMutator(const std::string &name)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    return mutators_.create(name);
}

Object *
Runtime::tlabFastAlloc(TypeId type, MutatorContext *mutator,
                       bool retain_local, uint32_t site)
{
    std::shared_lock<std::shared_mutex> guard(lock_);
    // Alloc hooks (leak-detector side tables) predate the shared
    // path and assume serialized invocation, so their presence
    // forces the exclusive path.
    if (!allocHooks_.empty())
        return nullptr;
    const TypeDescriptor &desc = types_.get(type);
    if (desc.isArray())
        fatal(format("allocRaw: type '%s' is an array type; use "
                     "allocArrayRaw", desc.name().c_str()));
    MutatorContext &ctx = mutator ? *mutator : mutators_.main();
    Object *obj = heap_.tlabAllocate(ctx.tlab(), type, desc.fixedRefs(),
                                     desc.scalarBytes());
    if (obj) {
        // Pin before the shared lock drops: a GC acquiring the
        // exclusive lock afterwards sees the object rooted.
        if (retain_local)
            ctx.retainLocal(obj);
        if (config_.infrastructure)
            ctx.noteAllocation(obj);
        // Site tagging under the shared lock is safe: the backgraph
        // serializes on its own mutex.
        if (backgraph_)
            backgraph_->noteAlloc(obj, site);
    }
    return obj;
}

void
Runtime::maybeMinorCollect()
{
    if (!config_.generational)
        return;
    uint64_t threshold = uint64_t{config_.nurseryKb} * 1024;
    if (heap_.nurseryBytes() < threshold)
        return;
    std::lock_guard<std::shared_mutex> guard(lock_);
    // Re-check under the lock: another mutator may have collected.
    if (heap_.nurseryBytes() >= threshold)
        collector_.minorCollect();
}

Object *
Runtime::allocRaw(TypeId type, MutatorContext *mutator, uint32_t site)
{
    // Untagged allocation with the backgraph on: hash the caller's
    // return address into an anonymous allocation site, so find-leak
    // trends still name a stable per-call-site bucket.
    if (backgraph_ && site == 0)
        site = Backgraph::siteFromAddress(__builtin_return_address(0));
    maybeMinorCollect();
    Object *obj = nullptr;
    if (config_.tlab)
        obj = tlabFastAlloc(type, mutator, /*retain_local=*/false, site);
    if (!obj) {
        std::lock_guard<std::shared_mutex> guard(lock_);
        const TypeDescriptor &desc = types_.get(type);
        if (desc.isArray())
            fatal(format("allocRaw: type '%s' is an array type; use "
                         "allocArrayRaw", desc.name().c_str()));
        if (config_.tlab && allocHooks_.empty()) {
            MutatorContext &ctx = mutator ? *mutator : mutators_.main();
            obj = tlabRefillAllocLocked(type, desc.fixedRefs(),
                                        desc.scalarBytes(), ctx, site);
        } else {
            obj = allocLocked(type, desc.fixedRefs(), desc.scalarBytes(),
                              mutator, site);
        }
    }
    maybeRunFinalizers();
    return obj;
}

Object *
Runtime::allocLocal(TypeId type, MutatorContext *mutator, uint32_t site)
{
    if (backgraph_ && site == 0)
        site = Backgraph::siteFromAddress(__builtin_return_address(0));
    maybeMinorCollect();
    Object *obj = nullptr;
    if (config_.tlab)
        obj = tlabFastAlloc(type, mutator, /*retain_local=*/true, site);
    if (!obj) {
        std::lock_guard<std::shared_mutex> guard(lock_);
        const TypeDescriptor &desc = types_.get(type);
        if (desc.isArray())
            fatal(format("allocLocal: type '%s' is an array type; use "
                         "allocArray", desc.name().c_str()));
        MutatorContext &ctx = mutator ? *mutator : mutators_.main();
        obj = config_.tlab && allocHooks_.empty()
            ? tlabRefillAllocLocked(type, desc.fixedRefs(),
                                    desc.scalarBytes(), ctx, site)
            : allocLocked(type, desc.fixedRefs(), desc.scalarBytes(),
                          &ctx, site);
        ctx.retainLocal(obj);
    }
    maybeRunFinalizers();
    return obj;
}

void
Runtime::dropLocalRoots(MutatorContext *mutator)
{
    // Shared suffices: the roster is thread-affine, and holding the
    // lock (in any mode) excludes a concurrent collection.
    std::shared_lock<std::shared_mutex> guard(lock_);
    (mutator ? *mutator : mutators_.main()).dropLocalRoots();
}

Object *
Runtime::allocArrayRaw(TypeId type, uint32_t length,
                       MutatorContext *mutator, uint32_t site)
{
    if (backgraph_ && site == 0)
        site = Backgraph::siteFromAddress(__builtin_return_address(0));
    maybeMinorCollect();
    std::lock_guard<std::shared_mutex> guard(lock_);
    const TypeDescriptor &desc = types_.get(type);
    if (!desc.isArray())
        fatal(format("allocArrayRaw: type '%s' is not an array type",
                     desc.name().c_str()));
    return allocLocked(type, length, desc.scalarBytes(), mutator, site);
}

Object *
Runtime::allocScalarRaw(TypeId type, uint32_t scalar_bytes,
                        MutatorContext *mutator, uint32_t site)
{
    if (backgraph_ && site == 0)
        site = Backgraph::siteFromAddress(__builtin_return_address(0));
    maybeMinorCollect();
    std::lock_guard<std::shared_mutex> guard(lock_);
    const TypeDescriptor &desc = types_.get(type);
    if (!desc.isArray())
        fatal(format("allocScalarRaw: type '%s' is not an array type",
                     desc.name().c_str()));
    return allocLocked(type, 0, scalar_bytes, mutator, site);
}

Handle
Runtime::alloc(TypeId type, MutatorContext *mutator)
{
    maybeMinorCollect();
    // Allocate and root under one lock acquisition: a concurrent
    // mutator's collection can never observe the new object
    // unrooted.
    Handle handle;
    {
        std::lock_guard<std::shared_mutex> guard(lock_);
        const TypeDescriptor &desc = types_.get(type);
        if (desc.isArray())
            fatal(format("alloc: type '%s' is an array type; use "
                         "allocArray", desc.name().c_str()));
        Object *obj = allocLocked(type, desc.fixedRefs(),
                                  desc.scalarBytes(), mutator,
                                  /*site=*/0);
        handle.runtime_ = this;
        roots_.add(handle.node_, obj, "local");
    }
    return handle;
}

Handle
Runtime::allocArray(TypeId type, uint32_t length, MutatorContext *mutator)
{
    maybeMinorCollect();
    Handle handle;
    {
        std::lock_guard<std::shared_mutex> guard(lock_);
        const TypeDescriptor &desc = types_.get(type);
        if (!desc.isArray())
            fatal(format("allocArray: type '%s' is not an array type",
                         desc.name().c_str()));
        Object *obj = allocLocked(type, length, desc.scalarBytes(),
                                  mutator, /*site=*/0);
        handle.runtime_ = this;
        roots_.add(handle.node_, obj, "local");
    }
    return handle;
}

Object *
Runtime::allocLocked(TypeId type, uint32_t num_refs,
                     uint32_t scalar_bytes, MutatorContext *mutator,
                     uint32_t site)
{
    Object *obj = heap_.allocate(type, num_refs, scalar_bytes);
    if (!obj) {
        // Budget exhausted: collect, then retry; grow as a last
        // resort when the config allows it.
        collectLocked();
        obj = heap_.allocate(type, num_refs, scalar_bytes);
        while (!obj && config_.heap.allowGrowth) {
            uint64_t grown = static_cast<uint64_t>(
                static_cast<double>(heap_.budgetBytes()) *
                config_.heap.growthFactor);
            if (grown <= heap_.budgetBytes())
                grown = heap_.budgetBytes() + Block::kBlockBytes;
            heap_.setBudgetBytes(grown);
            obj = heap_.allocate(type, num_refs, scalar_bytes);
        }
        if (!obj)
            fatal(format("out of memory: budget %s, live %s",
                         humanBytes(heap_.budgetBytes()).c_str(),
                         humanBytes(heap_.usedBytes()).c_str()));
    }
    if (config_.infrastructure) {
        // The paper's per-allocation region check (section 2.3.2).
        MutatorContext &ctx = mutator ? *mutator : mutators_.main();
        ctx.noteAllocation(obj);
    }
    if (backgraph_)
        backgraph_->noteAlloc(obj, site);
    for (const auto &hook : allocHooks_)
        hook(obj);
    return obj;
}

Object *
Runtime::tlabRefillAllocLocked(TypeId type, uint32_t num_refs,
                               uint32_t scalar_bytes, MutatorContext &ctx,
                               uint32_t site)
{
    uint32_t size = Object::sizeFor(num_refs, scalar_bytes);
    size_t size_class = sizeClassFor(size);
    if (size_class >= kNumSizeClasses)
        return allocLocked(type, num_refs, scalar_bytes, &ctx, site);

    // A fresh lease always has free cells, so a failure after the
    // refill can only be the budget: apply the same collect-then-
    // grow policy as allocLocked. Leased blocks survive collections,
    // so the lease stays valid across collectLocked().
    heap_.refillTlab(ctx.tlab(), size_class);
    Object *obj =
        heap_.tlabAllocate(ctx.tlab(), type, num_refs, scalar_bytes);
    if (!obj) {
        collectLocked();
        heap_.refillTlab(ctx.tlab(), size_class);
        obj = heap_.tlabAllocate(ctx.tlab(), type, num_refs,
                                 scalar_bytes);
        while (!obj && config_.heap.allowGrowth) {
            uint64_t grown = static_cast<uint64_t>(
                static_cast<double>(heap_.budgetBytes()) *
                config_.heap.growthFactor);
            if (grown <= heap_.budgetBytes())
                grown = heap_.budgetBytes() + Block::kBlockBytes;
            heap_.setBudgetBytes(grown);
            obj = heap_.tlabAllocate(ctx.tlab(), type, num_refs,
                                     scalar_bytes);
        }
        if (!obj)
            fatal(format("out of memory: budget %s, live %s",
                         humanBytes(heap_.budgetBytes()).c_str(),
                         humanBytes(heap_.usedBytes()).c_str()));
    }
    if (config_.infrastructure)
        ctx.noteAllocation(obj);
    if (backgraph_)
        backgraph_->noteAlloc(obj, site);
    return obj;
}

uint32_t
Runtime::allocSite(const std::string &name)
{
    return backgraph_ ? backgraph_->registerSite(name) : 0;
}

WhyAliveReport
Runtime::whyAlive(const Object *obj)
{
    if (!backgraph_)
        return {};
    // Shared lock: excludes a concurrent collection (whose sweep
    // mutates the graph) without serializing mutator allocation.
    std::shared_lock<std::shared_mutex> guard(lock_);
    return backgraph_->whyAlive(obj);
}

void
Runtime::addAllocHook(std::function<void(Object *)> hook)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    allocHooks_.push_back(std::move(hook));
}

void
Runtime::addFreeHook(std::function<void(Object *)> hook)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    collector_.addFreeHook(std::move(hook));
}

bool
Runtime::mainMutatorInRegionOrAny()
{
    bool any = false;
    mutators_.forEach(
        [&](MutatorContext &mutator) { any |= mutator.inRegion(); });
    return any;
}

void
Runtime::writeRef(Object *src, uint32_t index, Object *target)
{
    // Shared suffices: holding the lock in any mode excludes a
    // concurrent stop-the-world collection, and distinct mutators
    // write distinct slots (the usual data-race-freedom contract).
    // The write barrier fires inside setRef.
    std::shared_lock<std::shared_mutex> guard(lock_);
    src->setRef(index, target);
}

MinorCollectionResult
Runtime::collectMinor()
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    return collector_.minorCollect();
}

CollectionResult
Runtime::collect()
{
    CollectionResult result;
    {
        std::lock_guard<std::shared_mutex> guard(lock_);
        result = collectLocked();
    }
    if (finalizersPending_.load(std::memory_order_relaxed))
        runPendingFinalizers();
    return result;
}

void
Runtime::setFinalizer(Object *obj, std::function<void(Object *)> fn)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    collector_.registerFinalizer(obj, std::move(fn));
}

size_t
Runtime::finalizableCount()
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    return collector_.finalizableCount();
}

void
Runtime::maybeRunFinalizers()
{
    if (finalizersPending_.load(std::memory_order_relaxed))
        runPendingFinalizers();
}

void
Runtime::runPendingFinalizers()
{
    // One runner at a time; re-entrant requests (a finalizer that
    // allocates and triggers a collection) are deferred to the
    // current drain loop.
    bool expected = false;
    if (!finalizersRunning_.compare_exchange_strong(expected, true))
        return;
    while (true) {
        std::vector<std::pair<Object *, std::function<void(Object *)>>>
            pending;
        {
            std::lock_guard<std::shared_mutex> guard(lock_);
            pending = collector_.takePendingFinalizers();
            if (pending.empty())
                finalizersPending_.store(false,
                                         std::memory_order_relaxed);
        }
        if (pending.empty())
            break;
        // Run outside the lock: finalizers may allocate, root, or
        // even re-register themselves.
        for (auto &[obj, finalizer] : pending)
            finalizer(obj);
    }
    finalizersRunning_.store(false);
}

CollectionResult
Runtime::collectLocked()
{
    CollectionResult result = collector_.collect();
    if (collector_.hasPendingFinalizers())
        finalizersPending_.store(true, std::memory_order_relaxed);
    if (config_.verboseGc) {
        inform(format(
            "GC #%llu: marked %llu, swept %llu (%s), live %s, "
            "%llu violation(s)",
            static_cast<unsigned long long>(
                collector_.stats().collections),
            static_cast<unsigned long long>(result.marked),
            static_cast<unsigned long long>(result.sweep.freedObjects),
            humanBytes(result.sweep.freedBytes).c_str(),
            humanBytes(result.sweep.liveBytes).c_str(),
            static_cast<unsigned long long>(result.violations)));
    }
    return result;
}

bool
Runtime::checkInfraEnabled(const char *what)
{
    if (config_.infrastructure)
        return true;
    if (!warnedInfraOff_) {
        warnedInfraOff_ = true;
        warn(format("%s ignored: the assertion infrastructure is "
                    "disabled in this configuration", what));
    }
    return false;
}

void
Runtime::assertDead(Object *obj)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    if (!checkInfraEnabled("assert-dead"))
        return;
    engine_.assertDead(obj);
}

void
Runtime::startRegion(MutatorContext *mutator, std::string label)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    if (!checkInfraEnabled("start-region"))
        return;
    engine_.startRegion(mutator ? *mutator : mutators_.main(),
                        std::move(label));
}

void
Runtime::assertAllDead(MutatorContext *mutator)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    if (!checkInfraEnabled("assert-alldead"))
        return;
    engine_.assertAllDead(mutator ? *mutator : mutators_.main());
}

void
Runtime::assertInstances(TypeId type, uint64_t limit)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    if (!checkInfraEnabled("assert-instances"))
        return;
    engine_.assertInstances(type, limit);
}

void
Runtime::assertVolume(TypeId type, uint64_t bytes)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    if (!checkInfraEnabled("assert-volume"))
        return;
    engine_.assertVolume(type, bytes);
}

void
Runtime::assertUnshared(Object *obj)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    if (!checkInfraEnabled("assert-unshared"))
        return;
    engine_.assertUnshared(obj);
}

void
Runtime::assertOwnedBy(Object *owner, Object *ownee)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    if (!checkInfraEnabled("assert-ownedby"))
        return;
    engine_.assertOwnedBy(owner, ownee);
}

void
Runtime::addRoot(RootNode &node, Object *obj, const char *name)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    roots_.add(node, obj, name);
}

void
Runtime::removeRoot(RootNode &node)
{
    std::lock_guard<std::shared_mutex> guard(lock_);
    roots_.remove(node);
}

} // namespace gcassert
