/**
 * @file
 * The stop-the-world mark-sweep collector with piggybacked assertion
 * checking.
 *
 * Collection proceeds in four phases, mirroring the paper:
 *
 *  1. *Ownership phase* (only when assert-ownedby pairs exist): trace
 *     from each owner without marking the owner itself, truncating
 *     at ownees (which are queued and scanned afterwards) and at
 *     other owners (section 2.5.2).
 *  2. *Root scan / trace*: standard DFS from the registered roots.
 *     With the assertion infrastructure enabled, every visit also
 *     checks the dead bit, the unshared bit (on re-encounter), the
 *     ownee/owned bits, and tallies instance counts. With path
 *     recording enabled, scanned objects are re-pushed onto the
 *     worklist with their low-order bit set so the tagged entries
 *     always spell the root-to-current path (section 2.7). With
 *     markThreads > 1 (and path recording off) this phase instead
 *     runs N marker threads over work-stealing deques; see
 *     CollectorConfig::markThreads.
 *  3. *Finish*: instance-limit checks, region-queue pruning and
 *     ownership-table pruning (while mark bits are still valid).
 *  4. *Sweep*: reclaim unmarked objects and clear mark bits.
 *
 * The Base benchmark configuration compiles the checks out entirely
 * via the kInfra template parameter, so an unmodified-collector
 * baseline is measured rather than simulated.
 */

#ifndef GCASSERT_GC_COLLECTOR_H
#define GCASSERT_GC_COLLECTOR_H

#include <atomic>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "assertions/engine.h"
#include "gc/gc_stats.h"
#include "observe/assert_cost.h"
#include "gc/mutator.h"
#include "gc/path_recorder.h"
#include "gc/remset.h"
#include "gc/roots.h"
#include "gc/worklist.h"
#include "heap/heap.h"
#include "types/type_registry.h"

namespace gcassert {

class Backgraph;
class Telemetry;
class TraceRecorder;

/** Collector feature switches. */
struct CollectorConfig {
    /**
     * Compile assertion checks into the trace loop. Off = the
     * paper's "Base" configuration (unmodified collector).
     */
    bool infrastructure = true;

    /**
     * Maintain the tagged-worklist path information used for
     * full-path violation reports. Only meaningful when
     * infrastructure is on.
     */
    bool recordPaths = true;

    /**
     * Marker threads for the trace phase; 1 (or 0) keeps the
     * original sequential DFS. With N > 1, phase 2 runs N workers,
     * each owning a work-stealing MarkDeque, with atomic
     * test-and-set mark bits so every object is scanned exactly
     * once. Assertion checks move onto the CAS-mark path (the loser
     * of a mark race is a second incoming reference — exactly what
     * assert-unshared detects); per-class instance tallies become
     * per-worker and merge in the finish phase. Path recording is
     * inherently sequential, so recordPaths = true forces a
     * single-threaded trace with a logged downgrade.
     */
    uint32_t markThreads = 1;

    /**
     * Worker threads for the sweep phase; 1 (or 0) keeps the
     * sequential sweep. Workers sweep contiguous shards of the block
     * lists with private free lists and stats; the on_free callback
     * is buffered per block and replayed in canonical address order
     * on the collecting thread, so detector probes and finalizer
     * discovery observe exactly the sequential sweep (see
     * Heap::sweep). Unlike path recording vs markThreads, no feature
     * conflicts with parallel sweeping.
     */
    uint32_t sweepThreads = 1;

    /**
     * Lazy sweeping: the sweep phase still runs every on_free hook
     * and settles all accounting (so assertion/detector semantics
     * are unchanged), but defers per-block mark-clearing and
     * free-list rebuilding to the allocation path, shrinking the
     * stop-the-world pause. Blocks still pending at the next
     * collection are finished in its prologue.
     */
    bool lazySweep = false;
};

/** Outcome of one collection. */
struct CollectionResult {
    /** Objects marked live. */
    uint64_t marked = 0;
    /** Sweep summary. */
    SweepStats sweep;
    /** Violations reported during this collection. */
    uint64_t violations = 0;
};

/** Outcome of one minor (nursery-only) collection. */
struct MinorCollectionResult {
    /** Nursery survivors promoted to the mature space. */
    uint64_t promoted = 0;
    /** Nursery objects reclaimed. */
    uint64_t freedObjects = 0;
    /** Bytes reclaimed. */
    uint64_t freedBytes = 0;
    /** Remembered-set sources scanned as roots. */
    uint64_t remsetSources = 0;
};

/**
 * The mark-sweep collector.
 */
class Collector {
  public:
    Collector(Heap &heap, TypeRegistry &types, RootRegistry &roots,
              MutatorRegistry &mutators, AssertionEngine &engine,
              RememberedSet &remset, CollectorConfig config);

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    /** Run one full collection. */
    CollectionResult collect();

    /**
     * Run one minor (nursery-only) collection. Stopped-world and
     * sequential; requires the heap to be generational.
     *
     * Traces from roots, mutator local roots, and remembered-set
     * sources, truncating at mature objects; marked nursery objects
     * are promoted in place, unmarked ones reclaimed. Objects the
     * assertion machinery holds raw pointers to (region queues,
     * finalizables, the ownership table) are pinned — their lifetime
     * verdicts belong to the full GC, which remains the sole
     * authority for assertion checking: a minor
     * collection performs NO assertion checks and reports NO
     * assertion violations, it only bounds pause time between full
     * GCs. (A minor pause does count against the pause SLO budget;
     * the resulting PauseSlo report is context-only, never an
     * assertion verdict.)
     *
     * Weak slot 0 is traced as a *strong* edge here: weak-edge
     * clearing is observable behavior and stays full-GC-only, so
     * generational mode cannot change when a weak reference nulls.
     */
    MinorCollectionResult minorCollect();

    GcStats &stats() { return stats_; }
    const GcStats &stats() const { return stats_; }

    const CollectorConfig &config() const { return config_; }

    /** Reconfigure (between collections only). */
    void setConfig(const CollectorConfig &config) { config_ = config; }

    /**
     * Attach (or detach, with nullptr) the runtime's telemetry
     * bundle. With a recorder configured, each GC phase emits one
     * trace span (plus per-worker sub-spans for the parallel mark
     * and sweep workers); with a census cadence configured, full GCs
     * tally live objects/bytes per type during the existing trace.
     * With no telemetry, every phase boundary pays exactly one null
     * test. Set between collections only.
     */
    void setTelemetry(Telemetry *telemetry);

    /**
     * Attach (or detach, with nullptr) the why-alive backgraph.
     * While attached, both sweeps feed freed objects to it (exact
     * dead-edge pruning) and each full collection's epilogue — after
     * the result and every assertion verdict have settled — runs the
     * backgraph's leak-trend sample. Set between collections only.
     */
    void setBackgraph(Backgraph *backgraph)
    {
        backgraph_ = backgraph;
    }

    /**
     * Take a heap census at the next full collection regardless of
     * the configured cadence (no-op without telemetry attached).
     */
    void requestCensus() { censusRequested_ = true; }

    /**
     * Publish the live-endpoint copies: the per-named-site why-alive
     * table (when a backgraph is attached) and a metrics snapshot
     * into the history ring. No-op without telemetry. Called from
     * each full collection's epilogue and from
     * Runtime::publishTelemetry; the caller must hold the runtime
     * lock — gauge readers touch the non-atomic accumulators this
     * collector owns.
     */
    void publishTelemetry();

    /**
     * Register a hook invoked on every object freed by sweep (used
     * by the leak-detector baselines to maintain side tables).
     */
    void addFreeHook(std::function<void(Object *)> hook);

    /**
     * Register (or, with an empty function, clear) a finalizer for
     * @p obj. When a collection finds the object unreachable it is
     * *resurrected* — marked and traced so it and everything it
     * references survive — and queued; the runtime runs the
     * finalizer after the collection, outside the GC timers. The
     * object becomes collectible again at the next collection unless
     * the finalizer re-rooted it. One finalizer per object;
     * registering again replaces it.
     */
    void registerFinalizer(Object *obj,
                           std::function<void(Object *)> finalizer);

    /** Finalizers whose objects died; drained by the runtime. */
    std::vector<std::pair<Object *, std::function<void(Object *)>>>
    takePendingFinalizers();

    /** Objects currently registered for finalization. */
    size_t finalizableCount() const { return finalizables_.size(); }

    /** True when a collection queued finalizers not yet drained. */
    bool
    hasPendingFinalizers() const
    {
        return !pendingFinalizers_.empty();
    }

  private:
    template <bool kInfra, bool kPath>
    CollectionResult collectImpl();

    /** Phase 1: trace from owners. */
    template <bool kPath>
    void ownershipPhase();

    /** Minor-trace edge visit: mark-and-push, truncated at mature. */
    void mnVisit(Object *obj);

    /** Drain the worklist with minor-trace semantics. */
    void mnDrain();

    /**
     * Scan the subtree under @p from on behalf of @p owner.
     *
     * @param from_queue False for the direct owner-region scans
     *        (which confer ownedness), true for the deferred ownee
     *        subtree scans (which only mark liveness and report
     *        unowned ownees).
     */
    template <bool kPath>
    void ownerScan(Object *from, Object *owner,
                   std::vector<std::pair<Object *, Object *>> &queue,
                   bool from_queue);

    /** Phase-1 edge visit (owner-region semantics). */
    template <bool kPath>
    void p1Visit(Object **slot, Object *obj, Object *owner,
                 std::vector<std::pair<Object *, Object *>> &queue,
                 bool from_queue);

    /** Phase 2: root scan and full trace. */
    template <bool kInfra, bool kPath>
    void rootScanPhase();

    /** Phase-2 edge visit (normal trace semantics). */
    template <bool kInfra, bool kPath>
    void p2Visit(Object **slot, Object *obj);

    /** Drain the worklist with phase-2 semantics. */
    template <bool kInfra, bool kPath>
    void p2Drain();

    /** @name Parallel mark phase (markThreads > 1, no path recording)
     *  @{ */

    /** Per-marker-thread state; defined in collector.cpp. */
    struct MarkWorker;

    /** Phase 2, parallel: fan out over N workers and merge. */
    template <bool kInfra>
    void parallelMarkPhase();

    /** One worker: visit its root slice, then drain/steal to empty. */
    template <bool kInfra>
    void parWorkerRun(std::vector<MarkWorker> &workers, size_t index,
                      const std::vector<Object **> &root_slots);

    /** Scan one gray object's reference slots. */
    template <bool kInfra>
    void parScan(Object *obj, MarkWorker &worker);

    /** Parallel edge visit: piggybacked checks + CAS mark. */
    template <bool kInfra>
    void parVisit(Object **slot, Object *obj, MarkWorker &worker);

    /** Ownee check against the phase-1 owned bits (read-only). */
    void parOwneeCheck(Object *obj, uint32_t flags, MarkWorker &worker);

    /**
     * Dead-bit check on the parallel path.
     * @return true when the visit must stop (ForceTrue nulled the
     *         reference).
     */
    bool parDeadCheck(Object **slot, Object *obj, uint32_t flags,
                      MarkWorker &worker);

    /** @} */

    /** Mark @p obj and tally instance counts when kInfra. */
    template <bool kInfra>
    void markObject(Object *obj);

    /**
     * Check the dead bit on an encounter.
     * @return true when the visit must stop because the reference
     *         was nulled by the ForceTrue reaction.
     */
    template <bool kPath>
    bool deadCheck(Object **slot, Object *obj);

    /** Check the unshared bit on a re-encounter. */
    template <bool kPath>
    void unsharedCheck(Object *obj);

    /**
     * Phase-2 ownee check.
     */
    template <bool kPath>
    void owneeCheckPhase2(Object *obj);

    /** Build and report a violation for @p obj with the live path. */
    template <bool kPath>
    void reportPathViolation(AssertionKind kind, Object *obj,
                             const std::string &message);

    Heap &heap_;
    TypeRegistry &types_;
    RootRegistry &roots_;
    MutatorRegistry &mutators_;
    AssertionEngine &engine_;
    RememberedSet &remset_;
    CollectorConfig config_;

    Worklist worklist_;
    PathRecorder paths_;
    GcStats stats_;

    uint64_t markedThisGc_ = 0;
    /**
     * Parallel-phase termination counter: one virtual token per
     * worker until its root slice is pushed, plus one unit per
     * marked-but-unscanned object. Zero means the trace is complete.
     */
    std::atomic<int64_t> pendingWork_{0};
    /** The path-recording downgrade is logged once per collector. */
    bool loggedPathDowngrade_ = false;
    /** Snapshot of TypeRegistry::hasWeakTypes() for this GC. */
    bool hasWeak_ = false;
    /** Marked weak-reference objects awaiting edge clearing. */
    std::vector<Object *> weakRefs_;

    /** Resurrect dead finalizable objects; returns resurrected count. */
    template <bool kInfra, bool kPath>
    void resurrectFinalizables();

    /** @name Telemetry (all inert when telemetry_ is null)
     *  @{ */

    /** The runtime's telemetry bundle; null = all knobs off. */
    Telemetry *telemetry_ = nullptr;
    /** Why-alive backgraph; null = no leak-trend sampling/pruning. */
    Backgraph *backgraph_ = nullptr;
    /** True while the current GC records trace spans. */
    bool traceActive_ = false;
    /** True while the current full GC tallies a heap census. */
    bool censusActive_ = false;
    /** One-shot on-demand census request (requestCensus). */
    bool censusRequested_ = false;
    /** Dense per-TypeId census tallies for the current full GC
     *  (single-threaded marking; parallel workers tally privately
     *  and merge after the join). */
    std::vector<uint64_t> censusCounts_;
    std::vector<uint64_t> censusBytes_;

    /** Decide/arm the census for the GC numbered @p gc_number. */
    void beginCensus(uint64_t gc_number);
    /** Snapshot the tallies into the telemetry bundle. */
    void finishCensus(uint64_t gc_number);

    /** True while the current GC attributes per-check cost. */
    bool costActive_ = false;
    /** Mark-phase tallies for the current GC (sequential trace;
     *  parallel workers tally privately and merge after the join —
     *  the census pattern). */
    AssertCostTallies markCost_;
    /** Points at markCost_ only inside the phase-2 mark span (null
     *  during phase 1 and resurrection, so checks outside the span
     *  never inflate mark attribution); CostScopes are inert on
     *  null. */
    AssertCostTallies *cost_ = nullptr;

    /**
     * Feed a completed pause to the SLO tracker and, over budget,
     * report a context-only PauseSlo violation. Called after the
     * collection's result is fully settled so the violation never
     * perturbs per-GC violation counts or assertion verdicts.
     */
    void notePause(bool minor, uint64_t pauseNanos);

    /** @} */

    /** A registered finalizer plus its registration sequence number
     *  (dying finalizables are processed in registration order so
     *  finalizer order is independent of hash-map iteration). */
    struct FinalizerEntry {
        uint64_t seq;
        std::function<void(Object *)> fn;
    };

    /** Registered finalizers, by object. */
    std::unordered_map<Object *, FinalizerEntry> finalizables_;
    /** Next registration sequence number. */
    uint64_t finalizerSeq_ = 0;
    /** Finalizers queued to run after the current collection. */
    std::vector<std::pair<Object *, std::function<void(Object *)>>>
        pendingFinalizers_;
    /** Header tag of the owner whose region is being scanned. */
    uint32_t currentOwnerTag_ = 0;
    /** @name Lazy phase-1 path attribution (see reportPathViolation)
     *  @{ */
    bool inOwnershipScan_ = false;
    const char *scanKind_ = "";
    Object *scanAnchor_ = nullptr;
    /** @} */
    std::vector<std::function<void(Object *)>> freeHooks_;
};

} // namespace gcassert

#endif // GCASSERT_GC_COLLECTOR_H
