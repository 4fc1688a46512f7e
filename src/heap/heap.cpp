#include "heap/heap.h"

#include <algorithm>
#include <thread>

#include "support/logging.h"
#include "support/stopwatch.h"
#include "support/strutil.h"

namespace gcassert {

Heap::Heap(const HeapConfig &config) : config_(config)
{
    for (size_t c = 0; c < kNumSizeClasses; ++c)
        allocHint_[c] = -1;
}

Heap::~Heap() = default;

Object *
Heap::allocate(TypeId type_id, uint32_t num_refs, uint32_t scalar_bytes)
{
    uint32_t size = Object::sizeFor(num_refs, scalar_bytes);
    size_t size_class = sizeClassFor(size);
    uint32_t charged = size_class < kNumSizeClasses
        ? kSizeClassBytes[size_class] : size;

    if (usedBytes() + charged > config_.budgetBytes)
        return nullptr;

    Object *obj = size_class < kNumSizeClasses
        ? allocateSmall(size_class, type_id, num_refs, scalar_bytes, size)
        : allocateLarge(type_id, num_refs, scalar_bytes, size);
    if (obj) {
        usedBytes_.fetch_add(charged, std::memory_order_relaxed);
        liveObjects_.fetch_add(1, std::memory_order_relaxed);
        totalAllocatedBytes_.fetch_add(charged, std::memory_order_relaxed);
        totalAllocatedObjects_.fetch_add(1, std::memory_order_relaxed);
    }
    return obj;
}

Object *
Heap::allocateSmall(size_t size_class, TypeId type_id, uint32_t num_refs,
                    uint32_t scalar_bytes, uint32_t size)
{
    (void)size;
    auto &list = blocks_[size_class];

    // Fast path: the hinted block still has room. Leased blocks
    // belong to one mutator's TLAB and are never touched here.
    ssize_t hint = allocHint_[size_class];
    if (hint >= 0 && static_cast<size_t>(hint) < list.size() &&
        !list[hint]->leased()) {
        if (void *cell = list[hint]->allocateCell()) {
            auto *obj = static_cast<Object *>(cell);
            obj->format(type_id, num_refs, scalar_bytes);
            if (config_.generational)
                noteNursery(obj, list[hint].get(),
                            kSizeClassBytes[size_class]);
            return obj;
        }
    }

    // Slow path: find any unleased block with room.
    for (size_t i = 0; i < list.size(); ++i) {
        if (!list[i]->leased() && !list[i]->full()) {
            void *cell = list[i]->allocateCell();
            allocHint_[size_class] = static_cast<ssize_t>(i);
            auto *obj = static_cast<Object *>(cell);
            obj->format(type_id, num_refs, scalar_bytes);
            if (config_.generational)
                noteNursery(obj, list[i].get(),
                            kSizeClassBytes[size_class]);
            return obj;
        }
    }

    // No room anywhere: mint a new block.
    list.push_back(std::make_unique<Block>(kSizeClassBytes[size_class]));
    blocksMinted_.fetch_add(1, std::memory_order_relaxed);
    allocHint_[size_class] = static_cast<ssize_t>(list.size() - 1);
    auto *obj = static_cast<Object *>(list.back()->allocateCell());
    obj->format(type_id, num_refs, scalar_bytes);
    if (config_.generational)
        noteNursery(obj, list.back().get(), kSizeClassBytes[size_class]);
    return obj;
}

Object *
Heap::allocateLarge(TypeId type_id, uint32_t num_refs,
                    uint32_t scalar_bytes, uint32_t size)
{
    LargeObject large;
    large.memory.reset(new char[size]);
    large.bytes = size;
    auto *obj = reinterpret_cast<Object *>(large.memory.get());
    obj->format(type_id, num_refs, scalar_bytes);
    largeSet_.insert(obj);
    large_.push_back(std::move(large));
    if (config_.generational)
        noteNursery(obj, nullptr, size);
    return obj;
}

Object *
Heap::tlabAllocate(TlabCache &cache, TypeId type_id, uint32_t num_refs,
                   uint32_t scalar_bytes)
{
    uint32_t size = Object::sizeFor(num_refs, scalar_bytes);
    size_t size_class = sizeClassFor(size);
    if (size_class >= kNumSizeClasses)
        return nullptr; // large objects take the locked path
    Block *block = cache.blocks[size_class];
    if (!block)
        return nullptr;

    // Reserve the budget up front so concurrent fast paths cannot
    // collectively overshoot it; undo the reservation on failure.
    uint32_t charged = kSizeClassBytes[size_class];
    uint64_t prev =
        usedBytes_.fetch_add(charged, std::memory_order_relaxed);
    if (prev + charged > config_.budgetBytes) {
        usedBytes_.fetch_sub(charged, std::memory_order_relaxed);
        return nullptr;
    }
    void *cell = block->allocateCell();
    if (!cell) {
        usedBytes_.fetch_sub(charged, std::memory_order_relaxed);
        return nullptr;
    }
    auto *obj = static_cast<Object *>(cell);
    obj->format(type_id, num_refs, scalar_bytes);
    liveObjects_.fetch_add(1, std::memory_order_relaxed);
    totalAllocatedBytes_.fetch_add(charged, std::memory_order_relaxed);
    totalAllocatedObjects_.fetch_add(1, std::memory_order_relaxed);
    tlabAllocs_.fetch_add(1, std::memory_order_relaxed);
    if (config_.generational)
        noteNursery(obj, block, charged);
    return obj;
}

void
Heap::refillTlab(TlabCache &cache, size_t size_class)
{
    if (Block *old_lease = cache.blocks[size_class]) {
        old_lease->setLeased(false);
        cache.blocks[size_class] = nullptr;
    }
    auto &list = blocks_[size_class];
    for (auto &block : list) {
        if (!block->leased() && !block->full()) {
            block->setLeased(true);
            cache.blocks[size_class] = block.get();
            return;
        }
    }
    list.push_back(std::make_unique<Block>(kSizeClassBytes[size_class]));
    blocksMinted_.fetch_add(1, std::memory_order_relaxed);
    list.back()->setLeased(true);
    cache.blocks[size_class] = list.back().get();
}

void
Heap::returnTlab(TlabCache &cache)
{
    for (size_t c = 0; c < kNumSizeClasses; ++c) {
        if (cache.blocks[c]) {
            cache.blocks[c]->setLeased(false);
            cache.blocks[c] = nullptr;
        }
    }
}

void
Heap::sweepSmall(const std::function<void(Object *)> &on_free,
                 const SweepOptions &options, SweepStats &stats)
{
    // Canonical block order: size classes ascending, blocks in list
    // order. Sequential sweep, parallel replay, and stat merging all
    // follow it, so every configuration observes the same effects.
    std::vector<Block *> items;
    for (size_t c = 0; c < kNumSizeClasses; ++c)
        for (auto &block : blocks_[c])
            items.push_back(block.get());

    uint32_t threads = options.threads;
    if (threads > items.size())
        threads = static_cast<uint32_t>(items.size());

    if (threads <= 1) {
        for (Block *block : items) {
            if (options.lazy)
                stats.freedBytes += block->lazySweep([&](Object *obj) {
                    ++stats.freedObjects;
                    if (on_free)
                        on_free(obj);
                });
            else if (on_free)
                stats.freedBytes += block->sweepWith([&](Object *obj) {
                    ++stats.freedObjects;
                    on_free(obj);
                });
            else
                stats.freedBytes += block->sweepWith(
                    [&](Object *) { ++stats.freedObjects; });
        }
        return;
    }

    // Parallel sweep. Workers own contiguous shards of the block
    // list (state touched by exactly one worker, so no locks). With
    // a callback, workers only *identify* dead objects into per-item
    // buffers — headers and free lists untouched — and this thread
    // replays the buffers in canonical order afterwards, making the
    // callback stream identical to the sequential sweep's.
    const bool buffered = options.lazy || static_cast<bool>(on_free);
    std::vector<std::vector<Object *>> dead;
    if (buffered)
        dead.resize(items.size());
    struct Tally {
        uint64_t bytes = 0;
        uint64_t objects = 0;
    };
    std::vector<Tally> tallies(threads);
    // Telemetry out-param: one timing span per worker. Pure
    // observation — filled alongside the tallies, never consulted.
    if (options.workerSpans)
        options.workerSpans->assign(threads, SweepWorkerSpan{});
    auto work = [&](uint32_t w) {
        size_t begin = items.size() * w / threads;
        size_t end = items.size() * (w + 1) / threads;
        Tally &tally = tallies[w];
        SweepWorkerSpan *span =
            options.workerSpans ? &(*options.workerSpans)[w] : nullptr;
        if (span) {
            span->beginNanos = nowNanos();
            span->blocks = end - begin;
        }
        uint64_t dead_found = 0;
        for (size_t i = begin; i < end; ++i) {
            Block *block = items[i];
            if (options.lazy)
                tally.bytes += block->lazySweep([&](Object *obj) {
                    ++tally.objects;
                    ++dead_found;
                    dead[i].push_back(obj);
                });
            else if (on_free)
                block->identifyDead([&](Object *obj) {
                    ++dead_found;
                    dead[i].push_back(obj);
                });
            else
                tally.bytes += block->sweepWith([&](Object *) {
                    ++tally.objects;
                    ++dead_found;
                });
        }
        if (span) {
            span->objects = dead_found;
            span->endNanos = nowNanos();
        }
    };
    std::vector<std::thread> workers;
    workers.reserve(threads - 1);
    for (uint32_t w = 1; w < threads; ++w)
        workers.emplace_back(work, w);
    work(0);
    for (auto &worker : workers)
        worker.join();

    // Shard tallies merge in worker order, which is canonical order
    // because shards are contiguous.
    for (const Tally &tally : tallies) {
        stats.freedBytes += tally.bytes;
        stats.freedObjects += tally.objects;
    }
    if (!buffered)
        return;
    for (size_t i = 0; i < items.size(); ++i) {
        for (Object *obj : dead[i]) {
            if (!options.lazy)
                ++stats.freedObjects;
            if (on_free)
                on_free(obj);
            if (!options.lazy)
                stats.freedBytes += items[i]->releaseCell(obj);
        }
    }
}

SweepStats
Heap::sweep(const std::function<void(Object *)> &on_free,
            const SweepOptions &options)
{
    SweepStats stats;
    sweepSmall(on_free, options, stats);

    // Large-object space: always sequential — the list walk is cheap
    // and allocation order is the canonical callback order.
    size_t kept = 0;
    for (auto &large : large_) {
        auto *obj = reinterpret_cast<Object *>(large.memory.get());
        if (obj->marked()) {
            obj->clearFlag(kMarkBit);
            large_[kept++] = std::move(large);
        } else {
            ++stats.freedObjects;
            if (on_free)
                on_free(obj);
            stats.freedBytes += large.bytes;
            largeSet_.erase(obj);
        }
    }
    large_.resize(kept);

    // Release empty blocks so long-running region workloads hand
    // memory back; compact each list in place. Leased blocks stay: a
    // mutator may be bump-allocating into them without the lock, and
    // TLAB caches hold raw pointers to them.
    for (size_t c = 0; c < kNumSizeClasses; ++c) {
        auto &list = blocks_[c];
        size_t kept_blocks = 0;
        for (auto &block : list) {
            if (!block->empty() || block->leased())
                list[kept_blocks++] = std::move(block);
            else
                ++stats.releasedBlocks;
        }
        list.resize(kept_blocks);
        allocHint_[c] = list.empty() ? -1 : 0;
    }

    if (stats.freedBytes + minorFreedBytes_ > usedBytes())
        panic("sweep freed more bytes than were allocated");
    usedBytes_.fetch_sub(stats.freedBytes, std::memory_order_relaxed);
    liveObjects_.fetch_sub(stats.freedObjects, std::memory_order_relaxed);

    // Settle the minor-collection debt: nursery sweeps recycle memory
    // immediately but leave the budget counters untouched (so full-GC
    // trigger points match the non-generational run); the counters
    // catch up here, at the full sweep where the non-generational run
    // would have freed the same objects.
    usedBytes_.fetch_sub(minorFreedBytes_, std::memory_order_relaxed);
    liveObjects_.fetch_sub(minorFreedObjects_, std::memory_order_relaxed);
    minorFreedBytes_ = 0;
    minorFreedObjects_ = 0;

    stats.liveBytes = usedBytes();
    stats.liveObjects = liveObjects();
    return stats;
}

uint64_t
Heap::finishLazySweep()
{
    uint64_t finished = 0;
    for (size_t c = 0; c < kNumSizeClasses; ++c) {
        for (auto &block : blocks_[c]) {
            if (block->lazyPending()) {
                block->finishLazySweep();
                ++finished;
            }
        }
    }
    return finished;
}

uint64_t
Heap::lazyPendingBlocks() const
{
    uint64_t pending = 0;
    for (size_t c = 0; c < kNumSizeClasses; ++c)
        for (const auto &block : blocks_[c])
            if (block->lazyPending())
                ++pending;
    return pending;
}

bool
Heap::inLazyPendingBlock(const Object *p) const
{
    for (size_t c = 0; c < kNumSizeClasses; ++c)
        for (const auto &block : blocks_[c])
            if (block->contains(p))
                return block->lazyPending();
    return false;
}

void
Heap::forEachObject(const std::function<void(Object *)> &visit) const
{
    for (size_t c = 0; c < kNumSizeClasses; ++c)
        for (const auto &block : blocks_[c])
            block->forEachObject(visit);
    for (const auto &large : large_)
        visit(reinterpret_cast<Object *>(large.memory.get()));
}

void
Heap::noteNursery(Object *obj, Block *block, uint32_t charged)
{
    obj->setFlag(kNurseryBit);
    std::lock_guard<std::mutex> guard(nurseryMutex_);
    nursery_.push_back(NurseryEntry{obj, block, charged});
    nurseryMembers_.insert(obj);
    nurseryBytes_.fetch_add(charged, std::memory_order_relaxed);
}

size_t
Heap::nurseryCount() const
{
    std::lock_guard<std::mutex> guard(nurseryMutex_);
    return nursery_.size();
}

bool
Heap::nurseryContains(const Object *p) const
{
    std::lock_guard<std::mutex> guard(nurseryMutex_);
    return nurseryMembers_.count(p) != 0;
}

void
Heap::forEachNursery(const std::function<void(Object *)> &visit) const
{
    for (const NurseryEntry &entry : nursery_)
        visit(entry.obj);
}

NurserySweepStats
Heap::sweepNursery(const std::function<void(Object *)> &on_dead)
{
    NurserySweepStats stats;
    for (const NurseryEntry &entry : nursery_) {
        Object *obj = entry.obj;
        if (obj->marked()) {
            // Promote in place: the heap is non-moving, so promotion
            // is just dropping the nursery tag.
            obj->clearFlag(kMarkBit);
            obj->clearFlag(kNurseryBit);
            ++stats.promotedObjects;
            continue;
        }
        if (on_dead)
            on_dead(obj);
        if (entry.block) {
            entry.block->releaseCell(obj);
        } else {
            largeSet_.erase(obj);
            for (auto it = large_.begin(); it != large_.end(); ++it) {
                if (reinterpret_cast<Object *>(it->memory.get()) == obj) {
                    large_.erase(it);
                    break;
                }
            }
        }
        ++stats.freedObjects;
        stats.freedBytes += entry.charged;
    }
    minorFreedBytes_ += stats.freedBytes;
    minorFreedObjects_ += stats.freedObjects;
    nursery_.clear();
    nurseryMembers_.clear();
    nurseryBytes_.store(0, std::memory_order_relaxed);
    return stats;
}

uint64_t
Heap::promoteAllNursery()
{
    uint64_t promoted = 0;
    for (const NurseryEntry &entry : nursery_) {
        entry.obj->clearFlag(kNurseryBit);
        ++promoted;
    }
    nursery_.clear();
    nurseryMembers_.clear();
    nurseryBytes_.store(0, std::memory_order_relaxed);
    return promoted;
}

bool
Heap::contains(const Object *p) const
{
    if (largeSet_.count(p))
        return true;
    for (size_t c = 0; c < kNumSizeClasses; ++c)
        for (const auto &block : blocks_[c])
            if (block->contains(p))
                return block->isAllocatedCell(p);
    return false;
}

} // namespace gcassert
