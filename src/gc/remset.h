/**
 * @file
 * The remembered set for generational collection.
 *
 * Records every mature object that holds at least one reference into
 * the nursery. The write barrier filters on header bits (nursery
 * target, mature unremembered source) before calling record(), so the
 * set sees one insertion per source object per GC cycle. The heap
 * verifier checks the remset invariant against contains(): a
 * mature->nursery slot whose source is not recorded proves a barrier
 * bypass.
 *
 * The set is source-precise rather than slot-precise: a minor
 * collection rescans every reference slot of each remembered source,
 * trading a little scan work for a single header-bit latch
 * (kRememberedBit) and no per-slot metadata — the sparse-card-table
 * economy of generational collectors, at object granularity.
 */

#ifndef GCASSERT_GC_REMSET_H
#define GCASSERT_GC_REMSET_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "heap/object.h"

namespace gcassert {

/**
 * The set of mature objects with recorded nursery references.
 */
class RememberedSet {
  public:
    /**
     * Record @p src as holding a nursery reference. Sets
     * kRememberedBit on @p src (the barrier's filter latch), which
     * keeps later writes from the same source out of the slow path;
     * the minor GC rescans every slot of a recorded source, so the
     * whole slot array is covered. Idempotent per source; thread-safe
     * (the barrier may fire from concurrent mutators).
     *
     * @return true when @p src was newly recorded.
     */
    bool record(Object *src);

    /** @return true if @p src is in the set. */
    bool
    contains(const Object *src) const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        return members_.count(src) != 0;
    }

    /** Recorded source objects. */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        return sources_.size();
    }

    /**
     * Visit every recorded source, in recording order (deterministic
     * for a deterministic mutator). Single-threaded use only (the
     * minor GC runs stopped-world).
     */
    void forEachSource(const std::function<void(Object *)> &visit) const;

    /**
     * Drop every entry and clear the kRememberedBit latches. Called
     * after each minor collection (the surviving nursery is promoted
     * wholesale, so no mature->nursery edge can remain) and in the
     * full-GC prologue.
     */
    void clear();

    /** Lifetime counters for GcStats. */
    uint64_t
    totalRecords() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        return totalRecords_;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<Object *> sources_;
    std::unordered_set<const Object *> members_;
    uint64_t totalRecords_ = 0;
};

} // namespace gcassert

#endif // GCASSERT_GC_REMSET_H
