/**
 * @file
 * Top-level runtime configuration.
 *
 * The three benchmark configurations of the paper map onto this
 * struct directly:
 *
 *  - "Base":           infrastructure = false
 *  - "Infrastructure": infrastructure = true (no assertions added)
 *  - "WithAssertions": infrastructure = true + workload assertions
 */

#ifndef GCASSERT_RUNTIME_CONFIG_H
#define GCASSERT_RUNTIME_CONFIG_H

#include <string>

#include "assertions/engine.h"
#include "heap/heap.h"
#include "observe/telemetry.h"

namespace gcassert {

/** @name CI matrix defaults
 *
 * Environment-driven *defaults* for the sweep/alloc knobs, so the CI
 * matrix can run the whole test suite in every sweep configuration
 * without touching each test: GCASSERT_MARK_THREADS and
 * GCASSERT_SWEEP_THREADS (integers), GCASSERT_LAZY_SWEEP and
 * GCASSERT_TLAB (0/1). They only seed the default member
 * initializers below — code that sets the fields explicitly (e.g.
 * the differential harnesses pinning a configuration) is unaffected.
 *  @{ */
uint32_t defaultMarkThreads();
uint32_t defaultSweepThreads();
bool defaultLazySweep();
bool defaultTlabEnabled();
bool defaultGenerational();
uint32_t defaultNurseryKb();
bool defaultBackgraph();
uint32_t defaultBackgraphInDegreeCap();
uint32_t defaultBackgraphWindow();
/** @} */

/**
 * Configuration for a Runtime instance.
 */
struct RuntimeConfig {
    /** Heap budget and growth policy. */
    HeapConfig heap;

    /**
     * Compile the assertion-checking infrastructure into the GC
     * trace loop. When false the runtime behaves like an unmodified
     * collector and assertion calls are ignored (with a one-time
     * warning).
     */
    bool infrastructure = true;

    /** Maintain tagged-worklist path recording for reports. */
    bool recordPaths = true;

    /**
     * Marker threads for the GC trace phase (see
     * CollectorConfig::markThreads). 1 keeps the sequential DFS.
     * Values > 1 require recordPaths = false; otherwise each
     * collection downgrades to a single-threaded trace with a
     * logged warning. Defaults to $GCASSERT_MARK_THREADS or 1.
     */
    uint32_t markThreads = defaultMarkThreads();

    /**
     * Sweep workers for the GC sweep phase (see
     * CollectorConfig::sweepThreads). Defaults to
     * $GCASSERT_SWEEP_THREADS or 1.
     */
    uint32_t sweepThreads = defaultSweepThreads();

    /**
     * Lazy sweeping (see CollectorConfig::lazySweep). Defaults to
     * $GCASSERT_LAZY_SWEEP or false.
     */
    bool lazySweep = defaultLazySweep();

    /**
     * Per-mutator allocation buffers: allocRaw/allocLocal bump-
     * allocate from blocks leased to the calling mutator under a
     * shared lock, taking the exclusive lock only to refill, collect
     * or allocate large objects. Defaults to $GCASSERT_TLAB or
     * false.
     */
    bool tlab = defaultTlabEnabled();

    /**
     * Generational (nursery) collection: new objects join a logical
     * nursery, the write barrier records mature-to-nursery edges in a
     * remembered set, and minor collections reclaim short-lived
     * garbage between full GCs without whole-heap traces. Assertion
     * verdicts are unchanged — minor GCs perform no checks, and the
     * full GC promotes the nursery wholesale before running exactly
     * the non-generational algorithm. Defaults to
     * $GCASSERT_GENERATIONAL or false.
     */
    bool generational = defaultGenerational();

    /**
     * Nursery size in KiB: a minor collection triggers when this
     * many bytes of young objects have accumulated (checked at
     * allocation entry). Only meaningful with generational = true.
     * Defaults to $GCASSERT_NURSERY_KB or 4096.
     */
    uint32_t nurseryKb = defaultNurseryKb();

    /**
     * Always-on why-alive backgraph + leak detectors
     * (detectors/backgraph): maintain a bounded backwards points-to
     * graph from the write-barrier stream, answer
     * Runtime::whyAlive() at any time, and report allocation sites
     * whose root-path height or survivor count grows monotonically
     * across full collections. Verdict-neutral: GC cadence, freed
     * sets and assertion verdicts are bit-identical on or off; leak
     * findings arrive as context-only LeakGrowth violations.
     * Defaults to $GCASSERT_BACKGRAPH or false.
     */
    bool backgraph = defaultBackgraph();

    /**
     * Backgraph per-node in-degree cap: predecessor entries kept
     * before a node saturates into a pseudo-root (the access-graph
     * bound). Defaults to $GCASSERT_BACKGRAPH_INDEGREE_CAP or 8.
     */
    uint32_t backgraphInDegreeCap = defaultBackgraphInDegreeCap();

    /**
     * Backgraph trend window: consecutive growing full-GC samples
     * before an allocation site is reported as leaking. Defaults to
     * $GCASSERT_BACKGRAPH_WINDOW or 3.
     */
    uint32_t backgraphWindow = defaultBackgraphWindow();

    /** Engine behaviour switches. */
    EngineOptions engine;

    /**
     * Observability knobs (trace file, metrics sink, census cadence).
     * All default-off; the environment seeds the defaults via
     * GCASSERT_TRACE_FILE / GCASSERT_METRICS / GCASSERT_CENSUS_EVERY
     * just like the sweep/alloc knobs above.
     */
    ObserveConfig observe;

    /** Log one line per collection. */
    bool verboseGc = false;

    /** @return a Base configuration with the given heap budget. */
    static RuntimeConfig base(uint64_t heap_bytes);

    /** @return an Infrastructure configuration (checks on). */
    static RuntimeConfig infra(uint64_t heap_bytes);

    /**
     * @return an Infrastructure configuration with @p threads
     * parallel markers (path recording off, since the tagged
     * worklist is inherently sequential).
     */
    static RuntimeConfig parallel(uint64_t heap_bytes, uint32_t threads);
};

} // namespace gcassert

#endif // GCASSERT_RUNTIME_CONFIG_H
