/**
 * @file
 * The GC-assertion engine: the programmer-facing assertion calls and
 * the collector-facing check/report hooks.
 *
 * Executing an assertion merely records intent (header bits, region
 * queues, instance limits, owner/ownee pairs); all checking happens
 * during the next collection, piggybacked on tracing — the paper's
 * central idea.
 */

#ifndef GCASSERT_ASSERTIONS_ENGINE_H
#define GCASSERT_ASSERTIONS_ENGINE_H

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "assertions/assertion_table.h"
#include "assertions/ownership.h"
#include "assertions/reaction.h"
#include "assertions/violation.h"
#include "gc/mutator.h"
#include "types/type_registry.h"

namespace gcassert {

struct AssertCostTallies;

/** Behavioural switches for the engine. */
struct EngineOptions {
    /**
     * Keep the dead bit set after a violation is reported so the
     * object is re-checked at every subsequent GC. Off by default:
     * one report per assert-dead call.
     */
    bool stickyDeadAssertions = false;

    /**
     * When an owner is reclaimed, convert its surviving ownees into
     * orphan dead-assertions: if the *next* collection still finds
     * one reachable, an assert-ownedby violation ("ownee outlived
     * its owner") is reported with a full path. The deferral avoids
     * false positives on ownees that were live only because the
     * ownership phase itself traced them. This is an extension: the
     * paper leaves the owner-death case unspecified. When off, such
     * pairs are dropped silently.
     */
    bool orphanedOwneeIsViolation = true;
};

/**
 * A violation detected by a parallel marker thread.
 *
 * The engine's report path is not thread-safe (and heap paths are
 * unavailable under parallel marking anyway), so workers record
 * these into private buffers; the collector merges the buffers after
 * the markers join and hands them to reportPending().
 */
struct PendingViolation {
    AssertionKind kind = AssertionKind::Dead;
    Object *obj = nullptr;
    std::string message;
    /** A lifetime verdict (dead, alldead, orphan) that disarms its
     *  assertion only if it is the verdict reported for @p obj. */
    bool disarm = false;
};

/**
 * Records assertions, reports violations, and owns the assertion
 * metadata the collector consults while tracing.
 */
class AssertionEngine {
  public:
    AssertionEngine(TypeRegistry &types, MutatorRegistry &mutators,
                    EngineOptions options = {});

    AssertionEngine(const AssertionEngine &) = delete;
    AssertionEngine &operator=(const AssertionEngine &) = delete;

    /** @name Programmer API (invoked through the Runtime facade)
     *  @{ */

    /** assert-dead(p): @p obj must be unreachable at the next GC. */
    void assertDead(Object *obj);

    /**
     * start-region(): begin tracking allocations on @p mutator. A
     * non-empty @p label names the region in any later alldead
     * violation (e.g. a server request id); "" keeps the classic
     * unlabeled message.
     */
    void startRegion(MutatorContext &mutator, std::string label = {});

    /**
     * assert-alldead(): every object allocated in @p mutator's
     * active region must be unreachable at the next GC.
     */
    void assertAllDead(MutatorContext &mutator);

    /** assert-instances(T, I): at most @p limit live instances. */
    void assertInstances(TypeId type, uint64_t limit);

    /** assert-volume(T, B): live T objects total at most @p bytes. */
    void assertVolume(TypeId type, uint64_t bytes);

    /** assert-unshared(p): at most one incoming pointer. */
    void assertUnshared(Object *obj);

    /** assert-ownedby(p, q): @p ownee must not outlive @p owner. */
    void assertOwnedBy(Object *owner, Object *ownee);

    /** @} */

    /** @name Collector integration
     *  @{ */

    /** Reset per-GC state; remember the collection number. */
    void onGcStart(uint64_t gc_number);

    /**
     * Post-trace finish work (run while mark bits are valid, before
     * sweep): instance-limit checks, region-queue pruning, ownership
     * table pruning with orphaned-ownee reporting. When @p cost is
     * non-null, each sub-step's time is attributed to its assertion
     * kind.
     */
    void onTraceDone(AssertCostTallies *cost = nullptr);

    /** Sweep hook: account for satisfied lifetime assertions. */
    void onObjectFreed(Object *obj);

    /**
     * Report a violation. Applies the reaction policy: logs via
     * warn(), notifies handlers, and raises FatalError under
     * LogHalt. Returns after recording under LogContinue/ForceTrue.
     */
    void report(Violation violation);

    /**
     * Install an observer invoked on every violation before it is
     * recorded, free to *add* context (the telemetry layer fills
     * Violation::provenanceJson and emits a trace event here) but
     * expected never to alter the verdict fields — observers must not
     * change kind, message, or gcNumber, so verdict streams stay
     * identical with telemetry on or off. One observer; an empty
     * function clears it.
     */
    void setViolationObserver(std::function<void(Violation &)> observer)
    {
        violationObserver_ = std::move(observer);
    }

    /**
     * One-report-per-object-per-GC filter.
     * @return true if @p obj has already been reported this GC
     *         (and records it otherwise).
     */
    bool alreadyReported(const Object *obj);

    /**
     * Merge and report violations recorded by parallel markers.
     *
     * Racing workers can record the same object more than once (each
     * loser of a mark race records independently), so the buffer is
     * first sorted into a deterministic order — object address, then
     * the sequential trace's checking order (ownee, dead, unshared)
     * — and then filtered through the same one-report-per-object
     * gate the sequential trace uses. A surviving verdict marked
     * disarm then clears its lifetime bits (disarmLifetime), so an
     * assertion whose verdict lost the dedup stays armed for the
     * next collection, as in the sequential trace. The resulting
     * violation multiset is identical to a sequential collection's,
     * modulo heap paths.
     */
    void reportPending(std::vector<PendingViolation> pending);

    /**
     * Clear @p obj's lifetime-assertion bits (dead, region, orphan)
     * once its own verdict has been reported: a lifetime assertion
     * stays armed until then.
     */
    static void disarmLifetime(Object *obj);

    /** @} */

    /** All violations reported so far (across collections). */
    const ViolationLog &violations() const
    {
        return violations_;
    }

    /** Drop recorded violations (report counters are unaffected). */
    void clearViolations() { violations_.clear(); }

    ReactionPolicy &reactions() { return reactions_; }
    const ReactionPolicy &reactions() const { return reactions_; }

    OwnershipTable &ownership() { return ownership_; }
    const OwnershipTable &ownership() const { return ownership_; }

    AssertionStats &stats() { return stats_; }
    const AssertionStats &stats() const { return stats_; }

    const EngineOptions &options() const { return options_; }

    /** Type name helper for reports. */
    std::string typeNameOf(const Object *obj) const;

    /**
     * Label of the labeled region @p obj was flushed from, or
     * nullptr for unlabeled regions. Written only by assertAllDead
     * (under the runtime's exclusive lock) and cleared at the end of
     * every full trace, so reads during a collection — including by
     * parallel markers — see a frozen map.
     */
    const std::string *
    regionLabelOf(const Object *obj) const
    {
        auto it = regionLabels_.find(obj);
        return it == regionLabels_.end() ? nullptr : &it->second;
    }

    /** Current collection number (0 before the first GC). */
    uint64_t gcNumber() const { return gcNumber_; }

  private:
    /**
     * The instance/volume verdict loop over the tallies the mark
     * phase counted (paper: "at the end of GC, we iterate through our
     * list of tracked types").
     */
    void checkTrackedTypeLimits();

    TypeRegistry &types_;
    MutatorRegistry &mutators_;
    EngineOptions options_;

    ReactionPolicy reactions_;
    OwnershipTable ownership_;
    AssertionStats stats_;

    ViolationLog violations_;
    std::unordered_set<const Object *> reportedThisGc_;
    /** Flushed-object -> region label for labeled regions. Every
     *  entry is settled (reported or swept) by the end of the next
     *  full trace, so onTraceDone clears the map wholesale — no
     *  stale label can outlive an address reuse. */
    std::unordered_map<const Object *, std::string> regionLabels_;
    uint64_t gcNumber_ = 0;
    /** Telemetry enrichment hook (see setViolationObserver). */
    std::function<void(Violation &)> violationObserver_;

};

} // namespace gcassert

#endif // GCASSERT_ASSERTIONS_ENGINE_H
