/**
 * @file
 * The mark-sweep heap: segregated-fit small-object space plus a
 * large-object space, with a fixed byte budget that drives GC
 * triggering (the benchmark methodology fixes the budget at twice
 * each workload's minimum live size, as in the paper).
 *
 * The heap is non-moving: Object addresses are stable for the life
 * of the object, which is what makes header-bit assertions and the
 * sorted ownee arrays (binary search by address) sound.
 *
 * Concurrency contract: all entry points except tlabAllocate()
 * require exclusive access (the Runtime's writer lock). Any number
 * of mutators may call tlabAllocate() concurrently under the
 * Runtime's shared lock — it touches only atomics and blocks leased
 * exclusively to the calling mutator.
 */

#ifndef GCASSERT_HEAP_HEAP_H
#define GCASSERT_HEAP_HEAP_H

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "heap/block.h"
#include "heap/object.h"
#include "heap/size_classes.h"

namespace gcassert {

/** Result of one sweep pass. */
struct SweepStats {
    uint64_t freedBytes = 0;
    uint64_t freedObjects = 0;
    uint64_t liveBytes = 0;
    uint64_t liveObjects = 0;
    uint64_t releasedBlocks = 0;
};

/** Timing/tally record for one parallel sweep worker (telemetry). */
struct SweepWorkerSpan {
    uint64_t beginNanos = 0;
    uint64_t endNanos = 0;
    /** Blocks in this worker's shard. */
    uint64_t blocks = 0;
    /** Dead objects this worker identified or reclaimed. */
    uint64_t objects = 0;
};

/** How a sweep pass should run; defaults reproduce the sequential
 *  eager sweep. */
struct SweepOptions {
    /** Worker threads sweeping block shards (clamped to the block
     *  count; 0 and 1 both mean sequential). */
    uint32_t threads = 1;
    /** Defer mark-clearing and free-list threading per block to the
     *  allocation path / next-GC prologue. */
    bool lazy = false;
    /**
     * When non-null and the sweep runs parallel workers, receives one
     * timing span per worker (resized by the sweep). Observation
     * only: filling it never changes what the sweep does.
     */
    std::vector<SweepWorkerSpan> *workerSpans = nullptr;
};

/**
 * Heap configuration.
 */
struct HeapConfig {
    /** Allocation budget in bytes; exceeding it signals "GC needed". */
    uint64_t budgetBytes = 64ull * 1024 * 1024;
    /** Grow the budget instead of failing when a GC frees nothing. */
    bool allowGrowth = true;
    /** Multiplier applied when growing. */
    double growthFactor = 1.5;
    /**
     * Track new objects as a logical nursery generation. The nursery
     * is not a separate region — the heap stays non-moving — but a
     * roster of young objects tagged kNurseryBit, collectible by a
     * minor GC (Collector::minorCollect) and promoted in place by
     * clearing the tag.
     */
    bool generational = false;
};

/** Result of one nursery sweep (minor collection epilogue). */
struct NurserySweepStats {
    uint64_t promotedObjects = 0;
    uint64_t freedObjects = 0;
    uint64_t freedBytes = 0;
};

/**
 * The managed heap.
 *
 * Allocation returns nullptr when the byte budget would be exceeded;
 * the Runtime responds by collecting and retrying. The heap itself
 * never triggers a collection.
 */
class Heap {
  public:
    /**
     * Per-mutator allocation buffer: one block leased per size
     * class, bump-allocated without the global lock. Owned by a
     * MutatorContext; the heap fills it via refillTlab() and keeps
     * leased blocks out of the shared allocation path.
     */
    struct TlabCache {
        Block *blocks[kNumSizeClasses] = {};
    };

    explicit Heap(const HeapConfig &config);

    ~Heap();

    Heap(const Heap &) = delete;
    Heap &operator=(const Heap &) = delete;

    /**
     * Allocate and format an object.
     *
     * @param type_id Runtime type of the new object.
     * @param num_refs Number of reference slots.
     * @param scalar_bytes Scalar payload size.
     * @return The new object, or nullptr if the budget is exhausted
     *         (caller should collect and retry).
     */
    Object *allocate(TypeId type_id, uint32_t num_refs,
                     uint32_t scalar_bytes);

    /**
     * Thread-safe fast-path allocation from the calling mutator's
     * leased blocks. Safe under the Runtime's *shared* lock: only
     * atomics and the exclusively leased block are touched.
     *
     * @return The new object, or nullptr when the slow path is
     *         needed — no lease yet, leased block full, large
     *         object, or budget exhausted.
     */
    Object *tlabAllocate(TlabCache &cache, TypeId type_id,
                         uint32_t num_refs, uint32_t scalar_bytes);

    /**
     * Replace the lease for @p size_class in @p cache with a block
     * that has free cells, minting one if every unleased block is
     * full. Returns the previous lease (if any) to the shared pool.
     * Requires exclusive access.
     */
    void refillTlab(TlabCache &cache, size_t size_class);

    /**
     * Return every lease held by @p cache to the shared pool (on
     * mutator teardown). Requires exclusive access.
     */
    void returnTlab(TlabCache &cache);

    /**
     * Sweep all spaces: reclaim unmarked objects, clear mark bits on
     * survivors, release empty (unleased) blocks.
     *
     * Regardless of @p options, the @p on_free hook observes exactly
     * the sequential eager sweep's behavior: invoked once per dying
     * object, headers intact, in canonical order — small-object
     * blocks by (size class, block list index), cells within a block
     * by ascending address, then large objects in allocation order.
     * Parallel workers buffer their dead sets and the calling thread
     * replays them; lazy mode runs the hooks and the accounting at
     * GC time and defers only mark-clearing and free-list threading.
     *
     * @param on_free Hook invoked on each dying object before its
     *                memory is recycled.
     * @param options Worker count and eager/lazy mode.
     */
    SweepStats sweep(const std::function<void(Object *)> &on_free,
                     const SweepOptions &options = {});

    /**
     * Finish every lazily swept block: clear stale mark bits and
     * rebuild free lists. The collector calls this before marking so
     * no stale mark bit can hide a live object.
     *
     * @return Number of blocks finished.
     */
    uint64_t finishLazySweep();

    /** Blocks still awaiting their deferred sweep finish. */
    uint64_t lazyPendingBlocks() const;

    /**
     * @return true if @p p sits in a block whose sweep finish is
     * still deferred (its live objects carry stale mark bits).
     */
    bool inLazyPendingBlock(const Object *p) const;

    /** Visit every allocated object (marked or not). */
    void forEachObject(const std::function<void(Object *)> &visit) const;

    /**
     * @return true if @p p is a currently allocated heap object —
     * exact (used-bit / large-set membership), not address-range.
     */
    bool contains(const Object *p) const;

    /** Bytes currently allocated (cells + large objects). */
    uint64_t
    usedBytes() const
    {
        return usedBytes_.load(std::memory_order_relaxed);
    }

    /** Current allocation budget. */
    uint64_t budgetBytes() const { return config_.budgetBytes; }

    /** Replace the budget (used by the growth policy). */
    void setBudgetBytes(uint64_t bytes) { config_.budgetBytes = bytes; }

    const HeapConfig &config() const { return config_; }

    /** Objects currently allocated. */
    uint64_t
    liveObjects() const
    {
        return liveObjects_.load(std::memory_order_relaxed);
    }

    /** Lifetime totals, for workload volume reporting. */
    uint64_t
    totalAllocatedBytes() const
    {
        return totalAllocatedBytes_.load(std::memory_order_relaxed);
    }
    uint64_t
    totalAllocatedObjects() const
    {
        return totalAllocatedObjects_.load(std::memory_order_relaxed);
    }

    /** Lifetime count of lock-free TLAB fast-path allocations. */
    uint64_t
    tlabAllocs() const
    {
        return tlabAllocs_.load(std::memory_order_relaxed);
    }

    /** Lifetime count of small-object blocks minted (allocation and
     *  TLAB-refill slow paths; telemetry gauge). */
    uint64_t
    blocksMinted() const
    {
        return blocksMinted_.load(std::memory_order_relaxed);
    }

    /** @return true when the heap tracks a nursery generation. */
    bool generational() const { return config_.generational; }

    /** Bytes charged to nursery objects since the last collection. */
    uint64_t
    nurseryBytes() const
    {
        return nurseryBytes_.load(std::memory_order_relaxed);
    }

    /** Nursery objects currently on the roster. */
    size_t nurseryCount() const;

    /** @return true if @p p is on the nursery roster. */
    bool nurseryContains(const Object *p) const;

    /** Visit every nursery object, in allocation order. Stopped-world
     *  use only. */
    void forEachNursery(const std::function<void(Object *)> &visit) const;

    /**
     * Minor-collection epilogue: promote marked nursery objects in
     * place (clear kMarkBit and kNurseryBit) and reclaim unmarked
     * ones, invoking @p on_dead first, headers intact, in allocation
     * order. Afterwards the roster is empty.
     *
     * Reclaimed memory is recycled immediately, but the budget
     * counters (usedBytes / liveObjects) are deliberately NOT
     * decremented here: they settle at the next full sweep, so
     * full-GC trigger points are identical with the nursery on or
     * off — the cornerstone of the generational equivalence argument.
     */
    NurserySweepStats
    sweepNursery(const std::function<void(Object *)> &on_dead);

    /**
     * Full-GC prologue: promote the entire nursery wholesale so the
     * full collection runs with zero nursery state and is textually
     * identical to the non-generational path.
     *
     * @return Number of objects promoted.
     */
    uint64_t promoteAllNursery();

  private:
    struct LargeObject {
        std::unique_ptr<char[]> memory;
        uint32_t bytes;
    };

    Object *allocateSmall(size_t size_class, TypeId type_id,
                          uint32_t num_refs, uint32_t scalar_bytes,
                          uint32_t size);
    Object *allocateLarge(TypeId type_id, uint32_t num_refs,
                          uint32_t scalar_bytes, uint32_t size);

    /** Sweep the small-object space per @p options into @p stats. */
    void sweepSmall(const std::function<void(Object *)> &on_free,
                    const SweepOptions &options, SweepStats &stats);

    /**
     * Tag @p obj as nursery and append it to the roster. @p block is
     * its small-object block, or nullptr for a large object; @p
     * charged is the budget charge (cell bytes or large size).
     * Thread-safe: tlabAllocate() calls this under the Runtime's
     * shared lock.
     */
    void noteNursery(Object *obj, Block *block, uint32_t charged);

    HeapConfig config_;
    std::atomic<uint64_t> usedBytes_{0};
    std::atomic<uint64_t> liveObjects_{0};
    std::atomic<uint64_t> totalAllocatedBytes_{0};
    std::atomic<uint64_t> totalAllocatedObjects_{0};
    std::atomic<uint64_t> tlabAllocs_{0};

    std::atomic<uint64_t> blocksMinted_{0};

    /** Per-size-class block lists. */
    std::vector<std::unique_ptr<Block>> blocks_[kNumSizeClasses];
    /** Index into blocks_[c] of a block known to have room, or -1. */
    ssize_t allocHint_[kNumSizeClasses];

    std::vector<LargeObject> large_;
    /** Fast membership test for large objects. */
    std::unordered_set<const Object *> largeSet_;

    /** One nursery roster entry; block is null for large objects. */
    struct NurseryEntry {
        Object *obj;
        Block *block;
        uint32_t charged;
    };
    /** Guards the roster (appended to under the shared lock). */
    mutable std::mutex nurseryMutex_;
    /** Young objects in allocation order. */
    std::vector<NurseryEntry> nursery_;
    /** Fast roster membership for the verifier. */
    std::unordered_set<const Object *> nurseryMembers_;
    std::atomic<uint64_t> nurseryBytes_{0};

    /**
     * Budget charge reclaimed by minor collections since the last
     * full sweep. Settled (subtracted from usedBytes_/liveObjects_)
     * at the end of sweep() so that the budget counters evolve
     * exactly as they would with the nursery off.
     */
    uint64_t minorFreedBytes_ = 0;
    uint64_t minorFreedObjects_ = 0;
};

} // namespace gcassert

#endif // GCASSERT_HEAP_HEAP_H
