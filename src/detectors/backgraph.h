/**
 * @file
 * Always-on "why-alive" backgraph with a growing-leak detector and a
 * find-leak mode — the precise complement to the cork/staleness
 * heuristics.
 *
 * The paper reconstructs root paths from worklist tag bits, which
 * only works during the trace that catches a violation. Following
 * bdwgc's backgraph.c, this detector maintains a *bounded* backwards
 * points-to graph continuously: the write-barrier stream feeds
 * per-object predecessor lists (one entry per reference edge), and
 * the sweep prunes edges whose endpoints die. Bounding follows the
 * access-graph idea (Heap Reference Analysis Using Access Graphs):
 * per-node in-degree is capped, and a node whose cap is exceeded is
 * *saturated* — its predecessors are dropped and it is treated as a
 * pseudo-root from then on, so the graph's size stays proportional
 * to the live heap, not to its sharing structure.
 *
 * Three services sit on top:
 *
 *  - whyAlive(obj): a rootward path at *any* time, not just at
 *    violation time, used to enrich violation provenance.
 *  - A growing-leak detector: each full GC computes every tracked
 *    object's root-path height (multi-source BFS from the roots and
 *    pseudo-roots) and reports allocation sites whose *maximum*
 *    height grows monotonically across a configurable window of
 *    collections — a leaked list grows away from its root without
 *    bound, while healthy bounded structures (an LRU cache, a
 *    connection pool) plateau.
 *  - A bdwgc-leak.md-style find-leak mode: per allocation site, the
 *    count of objects still live after each full GC; sites whose
 *    survivor count grows monotonically across the window are
 *    reported ("allocated but never becoming unreachable" trends).
 *
 * Allocation sites are lightweight uint32 tags threaded through the
 * allocation entry points: workloads register named sites via
 * Runtime::allocSite(), and untagged allocations hash the caller's
 * return address so find-leak reports still name a stable site.
 *
 * Verdict neutrality: the backgraph writes only its own side tables
 * (C++ heap, never the GC budget), never records into the remembered
 * set, and reports its findings as context-only violations after the
 * collection's verdicts have settled — GC cadence, freed sets and
 * assertion verdicts are bit-identical with the detector on or off
 * (pinned by the 100-seed differentials in test_backgraph).
 */

#ifndef GCASSERT_DETECTORS_BACKGRAPH_H
#define GCASSERT_DETECTORS_BACKGRAPH_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "assertions/violation.h"
#include "heap/object.h"

namespace gcassert {

class AssertionEngine;
class TypeRegistry;

/** A rootward path answered by Backgraph::whyAlive. */
struct WhyAliveReport {
    /** The object is tracked by the backgraph. */
    bool known = false;
    /** The walk reached a (pseudo-)root. With bounded predecessor
     *  lists this is the norm; false means the predecessor structure
     *  was cyclic with no root entry (stale edges can cause this). */
    bool rootReached = false;
    /** The rootward endpoint is a *saturated* pseudo-root (its true
     *  predecessors were dropped at the in-degree cap). */
    bool saturated = false;
    /** Rootmost-first path ending at the queried object, in the same
     *  order as Violation::path. */
    std::vector<PathEntry> path;
};

/**
 * The bounded backwards points-to graph. One instance per Runtime,
 * created only when RuntimeConfig::backgraph is set; wired as the
 * second consumer of the write-barrier slow path (beside the nursery
 * remembered set), into the
 * allocation paths (site tags + node creation) and into both sweeps
 * (dead-edge pruning).
 *
 * Locking: one internal mutex guards every table. The barrier slow
 * path calls noteWrite() while holding the barrier registry lock
 * (registry -> backgraph, never inverted); every other entry point
 * is called under the runtime lock (alloc/sweep/sample) or from the
 * violation observer, and takes only the backgraph mutex. Reports
 * are emitted through the engine funnel *outside* the mutex, so an
 * observer may re-enter whyAlive().
 */
class Backgraph {
  public:
    struct Config {
        /** Predecessor entries kept per node before it saturates. */
        uint32_t inDegreeCap = 8;
        /** Consecutive growing full-GC samples before a site is
         *  reported (both the height trend and find-leak trend). */
        uint32_t window = 3;
    };

    Backgraph(TypeRegistry &types, AssertionEngine &engine,
              Config config);

    Backgraph(const Backgraph &) = delete;
    Backgraph &operator=(const Backgraph &) = delete;

    /** @name Feeds (barrier, allocation, sweep)
     *  @{ */

    /**
     * Barrier slow path: slot of @p src is about to change from
     * @p old_target to @p new_target. Removes the old backward edge
     * and records the new one (subject to the in-degree cap). Called
     * with the barrier registry lock held.
     */
    void noteWrite(Object *src, Object *old_target, Object *new_target);

    /** A new object was allocated at @p site (0 = unknown site). */
    void noteAlloc(Object *obj, uint32_t site);

    /** @p obj is being swept (full or nursery sweep): drop its node
     *  and every edge in which it participates. */
    void noteFreed(Object *obj);

    /** @} */

    /** @name Allocation sites
     *  @{ */

    /**
     * Register (or look up) a named allocation site. Ids are stable
     * for the runtime's lifetime and never 0.
     */
    uint32_t registerSite(const std::string &name);

    /** Derive a site id from a code address (return-address hash).
     *  Deterministic per address, never 0, never collides with
     *  registered ids. */
    static uint32_t siteFromAddress(const void *address);

    /** Human-readable name for @p site ("site-0x…" for hashed ids,
     *  "?" for 0). */
    std::string siteName(uint32_t site) const;

    /** @} */

    /** Rootward path for @p obj right now. */
    WhyAliveReport whyAlive(const Object *obj) const;

    /**
     * Rootward paths for every *registered* (named) allocation site
     * with at least one live tracked object: one deterministic
     * representative per site (the lowest-addressed node), answered
     * with the same walk as whyAlive. Bounded work — sites are the
     * handful a workload registers, never the hashed-id space.
     * Called at the full-GC publish point under the runtime lock;
     * the live endpoint serves the published copies.
     */
    std::vector<std::pair<std::string, WhyAliveReport>>
    namedSiteReports() const;

    /** Aggregate outcome of one post-GC sample. */
    struct SampleStats {
        uint64_t nodes = 0;
        uint64_t sites = 0;
        uint64_t growthReports = 0;
        uint64_t findLeakReports = 0;
    };

    /**
     * Full-GC epilogue: compute root-path heights (multi-source BFS
     * from every rootlike node over the forward mirror), fold them
     * into per-site trend state, and report growing sites through
     * the engine funnel as context-only LeakGrowth violations.
     * Called by the collector after the collection's result — and
     * every assertion verdict — has settled.
     */
    SampleStats onFullGcDone(uint64_t gc_number);

    /** @name Metrics surface (gauges)
     *  @{ */
    uint64_t nodeCount() const;
    uint64_t edgeCount() const;
    uint64_t saturatedCount() const;
    uint64_t siteCount() const;
    uint64_t edgeRecords() const
    {
        return edgeRecords_.load(std::memory_order_relaxed);
    }
    uint64_t prunedEdges() const
    {
        return prunedEdges_.load(std::memory_order_relaxed);
    }
    uint64_t growthReports() const
    {
        return growthReports_.load(std::memory_order_relaxed);
    }
    uint64_t findLeakReports() const
    {
        return findLeakReports_.load(std::memory_order_relaxed);
    }
    /** @} */

    const Config &config() const { return config_; }

  private:
    /** Per-object backgraph state. Objects are side-table keys only
     *  — the heap is non-moving, so addresses are stable. */
    struct Node {
        /** Known referrers, one entry per reference edge (duplicate
         *  objects allowed: two slots, two entries). Empty once
         *  saturated. */
        std::vector<Object *> preds;
        /** In-degree cap exceeded: treated as a pseudo-root. */
        bool saturated = false;
        /** Allocation-site tag (0 = unknown). */
        uint32_t site = 0;
        /** BFS scratch for the current sample. */
        uint32_t height = 0;
        bool heightKnown = false;
    };

    /** Trend state for one allocation site. */
    struct SiteTrend {
        uint64_t lastMaxHeight = 0;
        uint32_t heightStreak = 0;
        uint64_t lastLiveCount = 0;
        uint32_t liveStreak = 0;
        bool sampled = false;
    };

    Node &nodeFor(Object *obj);
    /** siteName body without taking the mutex (for callers already
     *  holding it, e.g. report building in onFullGcDone). */
    std::string siteNameLocked(uint32_t site) const;
    /** whyAlive body; requires mutex_ held. */
    WhyAliveReport whyAliveLocked(const Object *obj) const;
    void removeEdgeLocked(Object *src, Object *target);
    /** Erase one matching entry from @p vec (latest first). */
    static bool eraseOne(std::vector<Object *> &vec, Object *value);

    TypeRegistry &types_;
    AssertionEngine &engine_;
    Config config_;

    mutable std::mutex mutex_;
    std::unordered_map<Object *, Node> nodes_;
    /** Forward mirror: for each source, the targets whose pred lists
     *  contain it — makes pruning a dying source exact even when a
     *  raw slot write bypassed the barrier, and doubles as the edge
     *  relation for the height BFS. */
    std::unordered_map<Object *, std::vector<Object *>> succs_;
    std::unordered_map<std::string, uint32_t> siteIds_;
    std::unordered_map<uint32_t, std::string> siteNames_;
    std::unordered_map<uint32_t, SiteTrend> trends_;
    uint32_t nextSiteId_ = 1;

    std::atomic<uint64_t> edgeRecords_{0};
    std::atomic<uint64_t> prunedEdges_{0};
    std::atomic<uint64_t> growthReports_{0};
    std::atomic<uint64_t> findLeakReports_{0};
};

} // namespace gcassert

#endif // GCASSERT_DETECTORS_BACKGRAPH_H
