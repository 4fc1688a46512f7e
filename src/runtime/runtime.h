/**
 * @file
 * The public facade of the gcassert runtime.
 *
 * A Runtime owns a managed heap, a type registry, roots, mutator
 * contexts, the mark-sweep collector, and the GC-assertion engine.
 * Programs define types, allocate objects, hold them via rooted
 * Handles, and add GC assertions that are checked at the next
 * collection.
 *
 * Thread safety: public entry points serialize on an internal
 * reader-writer lock, modelling a stop-the-world runtime. With
 * RuntimeConfig::tlab enabled, the allocation fast path takes the
 * lock *shared* and bump-allocates from blocks leased to the calling
 * mutator, so hot allocation scales with mutator threads; GC and
 * every other mutation still take it exclusive. Multithreaded
 * workloads register one MutatorContext per thread for per-thread
 * region state (assert-alldead), TLAB leases, and local roots.
 */

#ifndef GCASSERT_RUNTIME_RUNTIME_H
#define GCASSERT_RUNTIME_RUNTIME_H

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "assertions/engine.h"
#include "detectors/backgraph.h"
#include "gc/barrier.h"
#include "gc/collector.h"
#include "gc/mutator.h"
#include "gc/remset.h"
#include "gc/roots.h"
#include "heap/heap.h"
#include "runtime/config.h"
#include "runtime/handle.h"
#include "types/type_registry.h"

namespace gcassert {

class JsonWriter;
class LiveTelemetryServer;

/**
 * A complete managed runtime instance.
 */
class Runtime {
  public:
    explicit Runtime(RuntimeConfig config = {});
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** @name Component access
     *  @{ */
    TypeRegistry &types() { return types_; }
    Heap &heap() { return heap_; }
    Collector &collector() { return collector_; }
    AssertionEngine &engine() { return engine_; }
    RootRegistry &roots() { return roots_; }
    MutatorRegistry &mutators() { return mutators_; }
    RememberedSet &remset() { return remset_; }
    const RuntimeConfig &config() const { return config_; }

    /** Telemetry bundle; nullptr when every observe knob is off. */
    Telemetry *telemetry() { return telemetry_.get(); }

    /** Why-alive backgraph; nullptr unless config.backgraph. */
    Backgraph *backgraph() { return backgraph_.get(); }
    /** @} */

    /** @name Observability
     *  @{ */

    /**
     * Request a heap census at the next full collection (regardless
     * of the censusEvery cadence). No-op without telemetry.
     */
    void requestCensus();

    /**
     * Latest heap census (empty() when none has been taken or
     * telemetry is off). Returns a copy; safe from any thread.
     */
    CensusSnapshot latestCensus() const;

    /**
     * Publish a live-endpoint snapshot now (metrics copy into the
     * history ring + per-named-site why-alive table), in addition
     * to the automatic per-full-GC publishes. Takes the exclusive
     * lock briefly — gauge readers touch non-atomic accumulators —
     * so workloads call it on a cadence, not per operation. No-op
     * without telemetry.
     */
    void publishTelemetry();

    /**
     * The live telemetry endpoint's bound port: the ephemeral
     * answer when livePort was kAutoLivePort ("auto"), 0 when the
     * endpoint is off or its bind failed.
     */
    uint16_t livePort() const;

    /** @} */

    /** The implicit main-thread mutator. */
    MutatorContext &mainMutator() { return mutators_.main(); }

    /** Register a mutator context for a worker thread. */
    MutatorContext &registerMutator(const std::string &name);

    /** @name Allocation
     *
     * Allocation may trigger a collection when the heap budget is
     * exhausted; callers must therefore keep every live object
     * reachable from a Handle or another live object *before*
     * allocating again (the usual managed-runtime contract).
     *  @{ */

    /**
     * Allocate a fixed-shape instance of @p type.
     *
     * @param type A non-array type id.
     * @param mutator Allocating mutator (nullptr = main), consulted
     *                for region tracking.
     * @param site Allocation-site tag for the backgraph's find-leak
     *             mode (see allocSite). 0 = untagged: with the
     *             backgraph on, the caller's return address is
     *             hashed into an anonymous site instead.
     * @return The new object (never nullptr; fatal on OOM).
     */
    Object *allocRaw(TypeId type, MutatorContext *mutator = nullptr,
                     uint32_t site = 0);

    /**
     * Allocate an instance of array type @p type with @p length
     * reference slots.
     */
    Object *allocArrayRaw(TypeId type, uint32_t length,
                          MutatorContext *mutator = nullptr,
                          uint32_t site = 0);

    /**
     * Allocate an instance of scalar-array type @p type with
     * @p scalar_bytes of payload and no reference slots (the analog
     * of a Java char[]/byte[]).
     */
    Object *allocScalarRaw(TypeId type, uint32_t scalar_bytes,
                           MutatorContext *mutator = nullptr,
                           uint32_t site = 0);

    /**
     * Rooted allocation: allocate and register the handle's root
     * under a single lock acquisition, so concurrent mutators can
     * never collect the new object before it is rooted. This is the
     * thread-safe allocation entry point; allocRaw returns an
     * unrooted pointer the caller must protect before the next
     * allocation.
     */
    Handle alloc(TypeId type, MutatorContext *mutator = nullptr);
    Handle allocArray(TypeId type, uint32_t length,
                      MutatorContext *mutator = nullptr);

    /**
     * Thread-locally rooted allocation: allocate (via the TLAB fast
     * path when enabled) and pin the object on @p mutator's
     * local-root roster in the same critical section, so a
     * collection triggered by another thread can never sweep it
     * before the caller links it into reachable structure. Release
     * the pins with dropLocalRoots(). This is the scalable analog of
     * alloc() for worker threads.
     */
    Object *allocLocal(TypeId type, MutatorContext *mutator = nullptr,
                       uint32_t site = 0);

    /** Release every object pinned by allocLocal on @p mutator. */
    void dropLocalRoots(MutatorContext *mutator = nullptr);

    /** @} */

    /** @name Why-alive backgraph (detectors/backgraph)
     *  @{ */

    /**
     * Register a named allocation site for the backgraph's leak
     * reports and return its tag, to be passed to allocRaw /
     * allocLocal. Returns 0 (the untagged site) when the backgraph
     * is off, so call sites need no gating.
     */
    uint32_t allocSite(const std::string &name);

    /**
     * What keeps @p obj alive right now: a rootward path from the
     * bounded backwards points-to graph. known=false when the
     * backgraph is off or the object predates it.
     */
    WhyAliveReport whyAlive(const Object *obj);

    /** @} */

    /**
     * Store a reference: src.refs[index] = target, through the write
     * barrier, under the shared lock (so the store can never race a
     * stop-the-world collection). This is the official reference-
     * write path — workloads and embedders should prefer it over
     * calling Object::setRef directly. Raw setRef remains sound (the
     * barrier hooks setRef itself), but only writeRef also excludes
     * a concurrent GC.
     */
    void writeRef(Object *src, uint32_t index, Object *target);

    /** Trigger a full collection now. */
    CollectionResult collect();

    /**
     * Trigger a minor (nursery-only) collection now. No-op result
     * with generational mode off (the nursery is always empty). See
     * Collector::minorCollect for semantics — no assertion checks,
     * verdicts stay with full collections.
     */
    MinorCollectionResult collectMinor();

    /**
     * Register (or clear, with an empty function) a finalizer for
     * @p obj. Finalizers run after the collection that found the
     * object unreachable, outside the GC-time accounting; the
     * object (and its subtree) survives that collection and may be
     * resurrected by the finalizer re-rooting it, otherwise it dies
     * at the next one.
     */
    void setFinalizer(Object *obj, std::function<void(Object *)> fn);

    /** Objects with a registered, not-yet-run finalizer. */
    size_t finalizableCount();

    /** @name GC assertions (paper section 2)
     *  @{ */

    /** assert-dead(p): @p obj must be unreachable at the next GC. */
    void assertDead(Object *obj);

    /**
     * start-region() on @p mutator (nullptr = main). A non-empty
     * @p label names the region in any alldead violation it later
     * produces (e.g. a server request id).
     */
    void startRegion(MutatorContext *mutator = nullptr,
                     std::string label = {});

    /** assert-alldead() on @p mutator (nullptr = main). */
    void assertAllDead(MutatorContext *mutator = nullptr);

    /** assert-instances(T, I). */
    void assertInstances(TypeId type, uint64_t limit);

    /** assert-volume(T, B): live T bytes must stay within budget. */
    void assertVolume(TypeId type, uint64_t bytes);

    /** assert-unshared(p). */
    void assertUnshared(Object *obj);

    /** assert-ownedby(owner, ownee). */
    void assertOwnedBy(Object *owner, Object *ownee);

    /** @} */

    /** Violations reported so far. */
    const ViolationLog &violations() const
    {
        return engine_.violations();
    }

    GcStats &gcStats() { return collector_.stats(); }
    AssertionStats &assertionStats() { return engine_.stats(); }

    /** Total collections run. */
    uint64_t collections() const { return collector_.stats().collections; }

    /**
     * Register a hook invoked on every allocation (used by the
     * leak-detector baselines). Adds per-allocation cost only while
     * at least one hook is registered.
     */
    void addAllocHook(std::function<void(Object *)> hook);

    /** Register a hook invoked on every swept object. */
    void addFreeHook(std::function<void(Object *)> hook);

    /** True if any mutator currently has an open region (used by the
     *  heap verifier to validate region bits). */
    bool mainMutatorInRegionOrAny();

  private:
    friend class Handle;

    /** Allocation core; assumes the exclusive lock is held. */
    Object *allocLocked(TypeId type, uint32_t num_refs,
                        uint32_t scalar_bytes, MutatorContext *mutator,
                        uint32_t site);

    /**
     * TLAB slow path; assumes the exclusive lock is held. Refills
     * the mutator's lease for the object's size class (delegating
     * large objects to allocLocked) and retries through the same
     * collect-then-grow policy as allocLocked.
     */
    Object *tlabRefillAllocLocked(TypeId type, uint32_t num_refs,
                                  uint32_t scalar_bytes,
                                  MutatorContext &ctx, uint32_t site);

    /**
     * TLAB fast path: bump-allocate under the shared lock. Returns
     * nullptr when the slow path is required. Disabled while alloc
     * hooks are registered — hooks predate the shared path and may
     * assume serialization.
     */
    Object *tlabFastAlloc(TypeId type, MutatorContext *mutator,
                          bool retain_local, uint32_t site);

    /** Collection core; assumes the lock is held. */
    CollectionResult collectLocked();

    /**
     * Allocation-entry nursery check: when generational mode is on
     * and the nursery has outgrown nurseryKb, run a minor collection
     * before allocating — mirroring the full GC's collect-before-
     * allocate discipline, so a freshly returned object is never
     * collected by the trigger that its own allocation tripped.
     * Takes the exclusive lock itself; call before acquiring any.
     */
    void maybeMinorCollect();

    /** Warn once if an assertion is used with infrastructure off. */
    bool checkInfraEnabled(const char *what);

    /** Handle support (locks internally). */
    void addRoot(RootNode &node, Object *obj, const char *name);
    void removeRoot(RootNode &node);

    /** Register the standard gauge set and the violation observer. */
    void wireTelemetry();

    /**
     * Append a "whyAlive" field (rootward path for the violation's
     * offender) to an open provenance object. Returns false — and
     * appends nothing — when the backgraph is off or the violation
     * carries no offending address.
     */
    bool appendWhyAliveJson(JsonWriter &w, const Violation &v);

    RuntimeConfig config_;
    TypeRegistry types_;
    Heap heap_;
    RootRegistry roots_;
    MutatorRegistry mutators_;
    AssertionEngine engine_;
    /** Mature-to-nursery edges recorded by the write barrier. */
    RememberedSet remset_;
    /** Why-alive backgraph; non-null iff config_.backgraph. Declared
     *  before collector_ so the collector's raw pointer never
     *  dangles (barrier_, its other feeder, tears down first). */
    std::unique_ptr<Backgraph> backgraph_;
    Collector collector_;
    /** Write-barrier slow-path entries attributed to this runtime
     *  (fed to the barrier scope; surfaced as a metrics counter). */
    std::atomic<uint64_t> barrierSlowHits_{0};
    /** Arms the global write barrier; non-null only in generational
     *  mode. Declared after collector_ so it unregisters first. */
    std::unique_ptr<BarrierScope> barrier_;
    /** Observability bundle; non-null iff config_.observe.any().
     *  Referenced (raw) by collector_ and the violation observer,
     *  both quiescent by the time the destructor flushes it. */
    std::unique_ptr<Telemetry> telemetry_;
    /** Live telemetry endpoint; non-null iff telemetry_ is set,
     *  observe.livePort != 0 and the bind succeeded. Declared after
     *  telemetry_ (and stopped explicitly in the destructor before
     *  the final flush) so the serving thread can never outlive the
     *  state it reads. */
    std::unique_ptr<LiveTelemetryServer> liveServer_;

    /** Run finalizers queued by the most recent collection. */
    void runPendingFinalizers();

    /** Drain pending finalizers if any are queued (lock-free check). */
    void maybeRunFinalizers();

    /** Reader-writer: shared = TLAB fast path, exclusive = the rest. */
    std::shared_mutex lock_;
    bool warnedInfraOff_ = false;
    std::vector<std::function<void(Object *)>> allocHooks_;
    std::atomic<bool> finalizersPending_{false};
    std::atomic<bool> finalizersRunning_{false};
};

} // namespace gcassert

#endif // GCASSERT_RUNTIME_RUNTIME_H
