/**
 * @file
 * Collector statistics: phase timings and event counters used by
 * the benchmark harness to reproduce the paper's GC-time figures.
 */

#ifndef GCASSERT_GC_GC_STATS_H
#define GCASSERT_GC_GC_STATS_H

#include <cstdint>
#include <string>

#include "support/stopwatch.h"

namespace gcassert {

/**
 * Cumulative GC statistics for one runtime instance.
 */
struct GcStats {
    /** Number of collections performed. */
    uint64_t collections = 0;

    /** Objects marked live, cumulative over all collections. */
    uint64_t objectsMarked = 0;

    /** Objects reclaimed, cumulative. */
    uint64_t objectsSwept = 0;

    /** Bytes reclaimed, cumulative. */
    uint64_t bytesSwept = 0;

    /** Ownee membership checks performed during tracing. */
    uint64_t owneeChecks = 0;

    /** Ownee checks in the most recent collection only. */
    uint64_t owneeChecksLastGc = 0;

    /** Assertion violations reported, cumulative. */
    uint64_t violations = 0;

    /** @name Phase timers (cumulative wall-clock)
     *  @{ */
    Stopwatch totalGc;
    Stopwatch ownershipPhase;
    Stopwatch tracePhase;
    Stopwatch sweepPhase;
    Stopwatch finishPhase;
    /** @} */

    /** Live objects after the most recent collection. */
    uint64_t lastLiveObjects = 0;

    /** Live bytes after the most recent collection. */
    uint64_t lastLiveBytes = 0;

    /** Deepest tracing worklist (or mark deque) observed. */
    uint64_t maxWorklistDepth = 0;

    /** @name Parallel marking
     *  @{ */

    /** Collections whose trace phase ran parallel markers. */
    uint64_t parallelMarkPhases = 0;

    /** Successful mark-deque steals, cumulative. */
    uint64_t markSteals = 0;

    /**
     * Collections where markThreads > 1 was requested but path
     * recording forced a single-threaded trace (the tagged-worklist
     * path trick of section 2.7 is inherently sequential).
     */
    uint64_t pathDowngrades = 0;

    /** @} */

    /** @name Parallel / lazy sweeping
     *  @{ */

    /** Collections whose sweep phase ran parallel workers. */
    uint64_t parallelSweepPhases = 0;

    /** Collections swept lazily (reclamation deferred per block). */
    uint64_t lazySweepGcs = 0;

    /**
     * Lazily swept blocks whose deferred finish happened in a later
     * collection's prologue (the rest were finished incrementally by
     * the allocation path).
     */
    uint64_t lazyBlocksFinishedAtGc = 0;

    /** Time spent finishing deferred sweeps in GC prologues. */
    Stopwatch lazyFinishPhase;

    /** @} */

    /** @name Generational (nursery) collection
     *  @{ */

    /** Minor (nursery-only) collections performed. */
    uint64_t minorCollections = 0;

    /** Nursery objects that survived a minor GC and were promoted. */
    uint64_t nurseryPromoted = 0;

    /** Nursery objects reclaimed by minor GCs. */
    uint64_t nurserySweptObjects = 0;

    /** Bytes reclaimed by minor GCs. */
    uint64_t nurserySweptBytes = 0;

    /** Nursery objects promoted wholesale in full-GC prologues. */
    uint64_t nurseryPromotedAtFullGc = 0;

    /** Remembered-set sources traced as minor-GC roots, cumulative. */
    uint64_t remsetSourcesScanned = 0;

    /** Stop-the-world time spent in minor collections. */
    Stopwatch minorGc;

    /** @} */

    /** Reset all counters and timers. */
    void reset();

    /** Multi-line human-readable dump. */
    std::string toString() const;

    /**
     * JSON object with every counter and phase timer (timers in
     * nanoseconds, keys suffixed "Nanos"). The bench harnesses and
     * the metrics registry both serialize through this.
     */
    std::string toJson() const;
};

} // namespace gcassert

#endif // GCASSERT_GC_GC_STATS_H
