/**
 * @file
 * Per-worker mark deque for the parallel trace phase.
 *
 * The collector has one mark loop and two marker types. The serial
 * marker keeps the tagged LIFO Worklist (path recording needs the
 * whole stack to spell a root-to-object path, which is inherently
 * single-threaded); each parallel marker instead owns one of these
 * Chase-Lev work-stealing deques. The owner pushes and pops at the
 * bottom (depth-first, cache-friendly), idle workers steal from the
 * top (oldest entries, which tend to root the largest subtrees).
 *
 * The implementation follows the C11 formulation of Lê, Pop, Cohen
 * and Zappa Nardelli, "Correct and Efficient Work-Stealing for
 * Weakly Ordered Memory Models" (PPoPP 2013) — the same algorithm
 * production parallel markers use. The ring grows on demand; retired
 * rings are kept alive until clear()/destruction because a
 * concurrent thief may still be reading a stale ring pointer.
 */

#ifndef GCASSERT_GC_MARK_DEQUE_H
#define GCASSERT_GC_MARK_DEQUE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "heap/object.h"

namespace gcassert {

/**
 * A single-owner, multi-thief work-stealing deque of gray objects.
 *
 * Thread contract: push(), pop(), clear() and highWater() are
 * owner-only; steal() may be called from any thread; empty() and
 * size() are racy estimates usable from any thread.
 */
class MarkDeque {
  public:
    /** @param initial_capacity Ring size; rounded up to a power of 2. */
    explicit MarkDeque(size_t initial_capacity = 256);
    ~MarkDeque();

    MarkDeque(const MarkDeque &) = delete;
    MarkDeque &operator=(const MarkDeque &) = delete;

    /** Owner: push @p obj at the bottom. Grows the ring when full. */
    void push(Object *obj);

    /**
     * Owner: pop the most recently pushed entry.
     * @return false when the deque is empty (or the last entry was
     *         lost to a concurrent thief).
     */
    bool pop(Object *&out);

    /**
     * Thief: take the oldest entry.
     * @return false when the deque is empty or the steal lost a race
     *         (callers treat both as "try elsewhere").
     */
    bool steal(Object *&out);

    /** Racy size estimate (exact when quiescent). */
    size_t size() const;

    /** Racy emptiness estimate (exact when quiescent). */
    bool empty() const { return size() == 0; }

    /** Deepest bottom-top span the owner has observed. */
    size_t highWater() const { return highWater_; }

    /**
     * Owner, quiescent only: drop all entries and release retired
     * rings from past growth.
     */
    void clear();

  private:
    /** Power-of-two ring of object slots. */
    struct Ring {
        explicit Ring(int64_t cap)
            : capacity(cap), mask(cap - 1),
              slots(new std::atomic<Object *>[static_cast<size_t>(cap)])
        {
        }

        Object *
        get(int64_t i) const
        {
            return slots[i & mask].load(std::memory_order_relaxed);
        }

        void
        put(int64_t i, Object *obj)
        {
            slots[i & mask].store(obj, std::memory_order_relaxed);
        }

        const int64_t capacity;
        const int64_t mask;
        std::unique_ptr<std::atomic<Object *>[]> slots;
    };

    /** Owner: replace the ring with one twice the size. */
    Ring *grow(Ring *ring, int64_t top, int64_t bottom);

    std::atomic<int64_t> top_{0};
    std::atomic<int64_t> bottom_{0};
    std::atomic<Ring *> ring_;
    /**
     * Rings replaced by grow(), kept until clear()/destruction so
     * thieves holding stale ring pointers never read freed memory.
     */
    std::vector<std::unique_ptr<Ring>> retired_;
    size_t highWater_ = 0;
};

} // namespace gcassert

#endif // GCASSERT_GC_MARK_DEQUE_H
