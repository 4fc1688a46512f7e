/**
 * @file
 * Owner/ownee bookkeeping for assert-ownedby (paper section 2.5.2).
 *
 * The metadata is one word per owner and per ownee, as in the paper:
 * the owners in registration order, and every ownee in one array
 * sorted by address (the heap is non-moving, so addresses are stable
 * keys). An ownee's owner is named by its header *owner tag*, the
 * owner's index + 1 (see kOwnerTagShift); a small open-addressing
 * index, one 32-bit word per slot and at most half full, maps an
 * owner back to its tag.
 *
 * No lookup scans the owner list, so the costs are:
 *
 *  - addPair: one index probe, amortized O(1);
 *  - the ownership phase reads owners()[i] with tag i + 1: O(1) per
 *    owner, so the phase is O(owners + owner-structure size);
 *  - ownerOf / isOwneeOf: the ownee's tag names the owner, confirmed
 *    by one O(log n) binary search in the n registered ownees;
 *  - ownerTagOf: one index probe;
 *  - prune / clear: O(owners + ownees).
 *
 * Rooting: the table holds raw pointers. It is touched only by the
 * mutator registering a pair (under the runtime lock) and by the
 * collector with the world stopped; prune() drops owners and ownees
 * before the sweep frees them. The objects handed to addPair must be
 * rooted by the caller (a Handle or a mutator local root) until the
 * call returns, like any object a mutator holds across a runtime
 * call. Moving a Handle keeps its object rooted throughout: the move
 * registers the new root before it drops the old one.
 */

#ifndef GCASSERT_ASSERTIONS_OWNERSHIP_H
#define GCASSERT_ASSERTIONS_OWNERSHIP_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "heap/object.h"

namespace gcassert {

/**
 * The owner/ownee pair table.
 */
class OwnershipTable {
  public:
    /**
     * Register an owner/ownee pair. Sets the kOwnerBit/kOwneeBit
     * header flags and the ownee's owner tag so the trace loop can
     * test membership in O(1) before doing any binary search.
     * Duplicate pairs are ignored. Registering an ownee again under
     * another owner moves it to that owner.
     *
     * @pre owner != ownee, both non-null.
     */
    void addPair(Object *owner, Object *ownee);

    /** @return true when no pairs are registered. */
    bool empty() const { return owners_.empty(); }

    size_t ownerCount() const { return owners_.size(); }

    /** Number of registered ownees. */
    size_t owneeCount() const;

    /** Owners in registration order; owners()[i] has tag i + 1. */
    const std::vector<Object *> &owners() const { return owners_; }

    /** Every registered ownee, sorted by address. */
    const std::vector<Object *> &ownees() const;

    /** @return true if @p ownee is registered under @p owner. */
    bool isOwneeOf(const Object *owner, const Object *ownee) const;

    /**
     * Header tag value (owner index + 1) for @p owner, or 0 if the
     * owner is not registered: the value Object::ownerTag() holds
     * for the owner's ownees.
     */
    uint32_t ownerTagOf(const Object *owner) const;

    /**
     * Find the owner @p ownee is registered under: the one its header
     * tag names, once a binary search confirms @p ownee is registered.
     * @return The owner, or nullptr if @p ownee is not registered
     *         (possible when its kOwneeBit is stale).
     */
    Object *ownerOf(const Object *ownee) const;

    /** Result of the post-trace prune. */
    struct PruneResult {
        /** Live ownees whose owner died in this collection. */
        std::vector<Object *> orphanedOwnees;
        /** Ownees removed because they died (assertions satisfied). */
        size_t deadOwnees = 0;
        /** Owners removed because they died. */
        size_t deadOwners = 0;
    };

    /**
     * Post-trace maintenance (run before sweep, while mark bits are
     * valid): drop dead ownees, and drop owners that are about to be
     * reclaimed, returning their surviving ownees so the engine can
     * flag them as having outlived their owner. Owners left with no
     * ownee leave the table too; the rest move down, and their
     * ownees' tags and the index follow them.
     */
    PruneResult prune();

    /** Remove every pair (used on engine reset). */
    void clear();

  private:
    /** Index slot holding @p owner, or the empty slot it would take. */
    size_t slotOf(const Object *owner) const;

    /** Re-index owners_, with room for one more owner. */
    void rebuildIndex();

    /**
     * Sort (and deduplicate) the ownees registered since the last
     * call and merge them in. Registration appends in O(1); a batch
     * of k costs O(k log k) plus one linear merge.
     */
    void ensureSorted() const;

    std::vector<Object *> owners_;
    /** ownees_[0, sorted_) is sorted ascending and duplicate-free. */
    mutable std::vector<Object *> ownees_;
    mutable size_t sorted_ = 0;
    /**
     * Open-addressing owner index, a power of two in size: a slot
     * holds an owner's tag, 0 when empty. Rebuilt whole when it
     * grows and when prune() moves owners.
     */
    std::vector<uint32_t> index_;
};

} // namespace gcassert

#endif // GCASSERT_ASSERTIONS_OWNERSHIP_H
