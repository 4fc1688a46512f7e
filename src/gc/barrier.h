/**
 * @file
 * The generational write barrier.
 *
 * Reference stores funnel through Object::setRef, whose inline fast
 * path (heap/object.h) loads one global armed flag and, when some
 * runtime is generational, applies header-bit filters. Everything
 * past the filters lives here: a process-wide registry maps the
 * mutated object back to its owning runtime, and the slow path then
 *
 *  - records mature->nursery edges in the remembered set (so a minor
 *    collection can treat remembered sources as roots into the
 *    nursery), and
 *  - feeds every reference mutation to the why-alive backgraph when
 *    one is armed (detectors/backgraph).
 *
 * One registry probe per slow-path entry resolves the runtime and
 * with it both consumers.
 *
 * The registry indirection is what keeps raw Object::setRef callers
 * (tests, embedders that never adopted Runtime::writeRef) sound in
 * generational mode: the barrier does not depend on the caller
 * holding a runtime reference, only on the store going through
 * setRef. Without a backgraph, lookups are rare by construction — the
 * remembered-set filter latches until the next collection clears it.
 */

#ifndef GCASSERT_GC_BARRIER_H
#define GCASSERT_GC_BARRIER_H

#include <atomic>
#include <cstdint>

#include "heap/object.h"

namespace gcassert {

class Heap;
class RememberedSet;
class Backgraph;

/**
 * Arms the write barrier for one runtime's lifetime: registers the
 * (heap, remset, backgraph) triple with the process-wide barrier
 * registry on construction and removes it on destruction. Owned by
 * Runtime; constructed in generational mode or with a backgraph.
 */
class BarrierScope {
  public:
    /**
     * @param slow_hits Optional telemetry counter bumped once per
     *        slow-path entry attributed to this runtime's heap (the
     *        metrics registry reads it as a gauge). May be nullptr.
     * @param backgraph Optional second consumer: every reference
     *        mutation from this runtime's heap (old target, new
     *        target) is fed to the why-alive backgraph. Unlatched —
     *        this is the one consumer that needs the full write
     *        stream — so it arms the separate g_trackBackgraph
     *        inline filter.
     */
    BarrierScope(Heap &heap, RememberedSet &remset,
                 std::atomic<uint64_t> *slow_hits = nullptr,
                 Backgraph *backgraph = nullptr);
    ~BarrierScope();

    BarrierScope(const BarrierScope &) = delete;
    BarrierScope &operator=(const BarrierScope &) = delete;

  private:
    Heap &heap_;
};

} // namespace gcassert

#endif // GCASSERT_GC_BARRIER_H
