#include "gc/barrier.h"

#include <mutex>
#include <vector>

#include "detectors/backgraph.h"
#include "gc/remset.h"
#include "heap/heap.h"

namespace gcassert {

namespace {

/**
 * One registered barrier-armed runtime. The registry is a flat
 * vector: processes embed a handful of runtimes at most, and the
 * latched remembered-set feed reaches the slow path at most once per
 * source per GC cycle, so a linear ownership probe is cheaper than
 * any indexing scheme would be to maintain. (The unlatched backgraph
 * feed pays the probe per mutation — an enabled-only cost.)
 */
struct BarrierContext {
    Heap *heap;
    RememberedSet *remset;
    /** Telemetry: slow-path entries for this runtime (may be null). */
    std::atomic<uint64_t> *slowHits;
    /** Why-alive backgraph consumer (null = not armed). */
    Backgraph *backgraph;
};

std::mutex &
registryMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::vector<BarrierContext> &
registry()
{
    static std::vector<BarrierContext> contexts;
    return contexts;
}

/** Find the registered context whose heap owns @p obj, else nullptr. */
BarrierContext *
contextOwning(const Object *obj)
{
    for (BarrierContext &ctx : registry())
        if (ctx.heap->contains(obj))
            return &ctx;
    return nullptr;
}

} // namespace

namespace detail {

std::atomic<uint32_t> g_writeBarriersArmed{0};
std::atomic<uint32_t> g_trackBackgraph{0};

void
writeBarrierSlow(Object *src, Object **slot, Object *target)
{
    // The inline filter ran against racy flag snapshots; re-evaluate
    // under the registry lock so the remembered-set latch fires
    // exactly once.
    std::lock_guard<std::mutex> guard(registryMutex());

    // Single dispatch point: one ownership probe resolves the source
    // runtime and with it both consumers.
    BarrierContext *ctx = contextOwning(src);
    if (!ctx)
        return;
    if (ctx->slowHits)
        ctx->slowHits->fetch_add(1, std::memory_order_relaxed);

    uint32_t sf = src->rawFlagsAtomic();
    uint32_t tf = target ? target->rawFlagsAtomic() : 0;

    // Remembered-set feed, latched (kRememberedBit): only a
    // mature->nursery edge is worth remembering.
    if ((tf & kNurseryBit) != 0 &&
        (sf & (kNurseryBit | kRememberedBit)) == 0)
        ctx->remset->record(src);

    // Backgraph feed, unlatched: *slot still holds the old target
    // (the inline path stores after the slow call), so the old
    // backward edge can be retired exactly.
    if (ctx->backgraph && *slot != target)
        ctx->backgraph->noteWrite(src, *slot, target);
}

} // namespace detail

BarrierScope::BarrierScope(Heap &heap, RememberedSet &remset,
                           std::atomic<uint64_t> *slow_hits,
                           Backgraph *backgraph)
    : heap_(heap)
{
    std::lock_guard<std::mutex> guard(registryMutex());
    registry().push_back(
        BarrierContext{&heap, &remset, slow_hits, backgraph});
    detail::g_writeBarriersArmed.fetch_add(1, std::memory_order_relaxed);
    if (backgraph)
        detail::g_trackBackgraph.fetch_add(1, std::memory_order_relaxed);
}

BarrierScope::~BarrierScope()
{
    bool backgraph = false;
    {
        std::lock_guard<std::mutex> guard(registryMutex());
        auto &contexts = registry();
        for (auto it = contexts.begin(); it != contexts.end(); ++it) {
            if (it->heap == &heap_) {
                backgraph = it->backgraph != nullptr;
                contexts.erase(it);
                break;
            }
        }
    }
    detail::g_writeBarriersArmed.fetch_sub(1, std::memory_order_relaxed);
    if (backgraph)
        detail::g_trackBackgraph.fetch_sub(1, std::memory_order_relaxed);
}

} // namespace gcassert
