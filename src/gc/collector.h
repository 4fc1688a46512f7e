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
 *     other owners (section 2.5.2). Runs on the serial marker.
 *  2. *Root scan / trace*: DFS from the registered roots. With the
 *     assertion infrastructure enabled, every visit also checks the
 *     dead bit, the unshared bit (on re-encounter), the ownee/owned
 *     bits, and tallies instance counts. There is one visit, one
 *     slot scan and one copy of each check, run by one of two
 *     marker types. The serial marker (markThreads <= 1, or path
 *     recording on) traces on the calling thread with plain flag
 *     writes and the tagged worklist: with path recording, scanned
 *     objects are re-pushed with their low-order bit set so the
 *     tagged entries always spell the root-to-current path (section
 *     2.7), and verdicts are reported at once. The parallel marker
 *     (markThreads > 1) runs N threads with CAS mark bits over
 *     work-stealing deques and queues verdicts for one merged
 *     report after the join. Finalizer resurrection, after the
 *     trace, also runs on the serial marker.
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
#include <deque>
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
     * Marker threads for the trace phase; 1 (or 0) runs the serial
     * marker on the calling thread. With N > 1, phase 2 runs N
     * parallel markers, each owning a work-stealing MarkDeque, with
     * atomic test-and-set mark bits so every object is scanned
     * exactly once. Both run the same visit and checks (the loser
     * of a mark race is a second incoming reference — exactly what
     * assert-unshared detects); tallies are per marker and merge
     * after the trace. Path recording is inherently sequential, so
     * recordPaths = true forces the serial marker with a logged
     * downgrade.
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

    /** Phase 1: trace from owners (serial marker). */
    template <bool kPath>
    void ownershipPhase();

    /** Minor-trace edge visit: mark-and-push, truncated at mature. */
    void mnVisit(Object *obj);

    /** Drain the worklist with minor-trace semantics. */
    void mnDrain();

    /** @name The mark loop
     *
     * One visit, one slot scan and one copy of each check, templated
     * on the marker M that runs them: SerialMarker (the calling
     * thread, tagged Worklist, verdicts reported at once) or
     * ParallelMarker (one of N threads, CAS mark bits, work-stealing
     * MarkDeque, verdicts queued for reportPending). Defined in
     * collector.cpp.
     *  @{ */

    struct MarkTally;
    template <bool kPath>
    struct SerialMarker;
    struct ParallelMarker;

    /** Fold a finished marker's tallies into the collector. */
    void mergeTally(MarkTally &tally);

    /**
     * Claim the mark bit of @p obj (loaded flag word @p flags) and
     * tally it.
     * @return false when it was marked already or another worker won.
     */
    template <bool kInfra, class M>
    bool mark(Object *obj, uint32_t flags, M &m);

    /** Phase-2 edge visit: the piggybacked checks, then mark and push. */
    template <bool kInfra, class M>
    void visit(Object **slot, Object *obj, M &m);

    /** Note a weak slot 0, then @p visit every other non-null slot. */
    template <class M, class Visit>
    void scan(Object *obj, M &m, Visit &&visit);

    /**
     * Check the dead bit on an encounter.
     * @return true when the visit must stop because the reference
     *         was nulled by the ForceTrue reaction.
     */
    template <class M>
    bool deadCheck(Object **slot, Object *obj, uint32_t flags, M &m);

    /** Check the unshared bit on a re-encounter. */
    template <class M>
    void unsharedCheck(Object *obj, M &m);

    /** Check an ownee against its phase-1 owned bit. */
    template <class M>
    void owneeCheck(Object *obj, uint32_t flags, M &m);

    /** Phase-1 edge visit (owner-region semantics). */
    template <bool kPath>
    void p1Visit(Object **slot, Object *obj, Object *owner,
                 std::vector<std::pair<Object *, Object *>> &queue,
                 bool from_queue, SerialMarker<kPath> &m);

    /** Non-null root slots: registered roots, then mutator locals. */
    template <bool kPath>
    std::vector<Object **> rootSlots();

    /** Phase 2 on the serial marker (one worker, or recordPaths). */
    template <bool kInfra, bool kPath>
    void serialMark(const std::vector<Object **> &roots);

    /** Phase 2 on markThreads parallel markers. */
    template <bool kInfra>
    void parallelMark(const std::vector<Object **> &roots);

    /** One worker: visit its root slice, then drain/steal to empty. */
    template <bool kInfra>
    void parallelWorker(std::deque<ParallelMarker> &workers, size_t index,
                        const std::vector<Object **> &roots);

    /** @} */

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

    /** Resurrect dead finalizable objects. */
    template <bool kInfra, bool kPath>
    void resurrectFinalizables();

    /** Null the weak edges of @p weak_refs to unmarked referents,
     *  then empty the list. */
    void clearDeadWeakEdges(std::vector<Object *> &weak_refs);

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
     *  (each marker tallies privately; mergeTally folds them in). */
    std::vector<uint64_t> censusCounts_;
    std::vector<uint64_t> censusBytes_;

    /** Decide/arm the census for the GC numbered @p gc_number. */
    void beginCensus(uint64_t gc_number);
    /** Snapshot the tallies into the telemetry bundle. */
    void finishCensus(uint64_t gc_number);

    /** True while the current GC attributes per-check cost. */
    bool costActive_ = false;
    /** Mark-phase tallies for the current GC, merged from the
     *  phase-2 markers (the census pattern). */
    AssertCostTallies markCost_;

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
