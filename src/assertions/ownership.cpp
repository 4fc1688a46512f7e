#include "assertions/ownership.h"

#include <algorithm>

#include "support/logging.h"

namespace gcassert {

namespace {

/** Pointer hash for the owner index (the murmur3 finalizer). */
size_t
hashOf(const Object *obj)
{
    uint64_t x = reinterpret_cast<uintptr_t>(obj);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<size_t>(x);
}

} // namespace

void
OwnershipTable::addPair(Object *owner, Object *ownee)
{
    if (!owner || !ownee)
        fatal("assert-ownedby requires non-null owner and ownee");
    if (owner == ownee)
        fatal("assert-ownedby: an object cannot own itself");

    if (index_.size() < 2 * (owners_.size() + 1))
        rebuildIndex();
    uint32_t &tag = index_[slotOf(owner)];
    if (tag == 0) {
        if (owners_.size() + 1 > kMaxOwnerTag)
            fatal("assert-ownedby: too many distinct owners");
        owners_.push_back(owner);
        tag = static_cast<uint32_t>(owners_.size());
        owner->setFlag(kOwnerBit);
    }
    // Registration is append-only: the ownee array is sorted lazily
    // (once per GC or query batch), so the mutator-side cost of
    // assert-ownedby stays O(1) no matter how large the container
    // is. Duplicates are folded in by the sort.
    ownees_.push_back(ownee);
    ownee->setFlag(kOwneeBit);
    // The header tag is the ownee's only link to its owner: the
    // ownership scan's belongs-to-this-owner test and the
    // ownee-to-owner lookup both read it. Registration under another
    // owner retargets it (owner regions must be disjoint anyway).
    ownee->setOwnerTag(tag);
}

size_t
OwnershipTable::slotOf(const Object *owner) const
{
    size_t mask = index_.size() - 1;
    for (size_t slot = hashOf(owner) & mask;; slot = (slot + 1) & mask) {
        uint32_t tag = index_[slot];
        if (tag == 0 || owners_[tag - 1] == owner)
            return slot;
    }
}

void
OwnershipTable::rebuildIndex()
{
    // At most half full after one more owner, so probes stay short.
    size_t slots = 16;
    while (slots < 2 * (owners_.size() + 1))
        slots <<= 1;
    index_.assign(slots, 0);
    for (size_t i = 0; i < owners_.size(); ++i)
        index_[slotOf(owners_[i])] = static_cast<uint32_t>(i) + 1;
}

void
OwnershipTable::ensureSorted() const
{
    if (sorted_ == ownees_.size())
        return;
    // Sort only what was appended since the last call, then merge.
    auto tail = ownees_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    std::sort(tail, ownees_.end());
    std::inplace_merge(ownees_.begin(), tail, ownees_.end());
    ownees_.erase(std::unique(ownees_.begin(), ownees_.end()),
                  ownees_.end());
    sorted_ = ownees_.size();
}

size_t
OwnershipTable::owneeCount() const
{
    ensureSorted();
    return ownees_.size();
}

const std::vector<Object *> &
OwnershipTable::ownees() const
{
    ensureSorted();
    return ownees_;
}

uint32_t
OwnershipTable::ownerTagOf(const Object *owner) const
{
    return index_.empty() ? 0 : index_[slotOf(owner)];
}

Object *
OwnershipTable::ownerOf(const Object *ownee) const
{
    ensureSorted();
    // An atomic read: parallel markers call this while others set
    // mark bits in the same flag word.
    uint32_t tag = ownee->rawFlagsAtomic() >> kOwnerTagShift;
    if (tag == 0 || tag > owners_.size() ||
        !std::binary_search(ownees_.begin(), ownees_.end(), ownee))
        return nullptr;
    return owners_[tag - 1];
}

bool
OwnershipTable::isOwneeOf(const Object *owner, const Object *ownee) const
{
    return owner != nullptr && ownerOf(ownee) == owner;
}

OwnershipTable::PruneResult
OwnershipTable::prune()
{
    ensureSorted();
    PruneResult result;

    // Ownees first: drop the dead ones (their assertion is satisfied)
    // and orphan the survivors of a dead owner. Compaction keeps the
    // array sorted. live[i] counts what owner i still has to check.
    std::vector<uint32_t> live(owners_.size(), 0);
    size_t kept_ownees = 0;
    for (Object *ownee : ownees_) {
        if (!ownee->marked()) {
            ownee->clearFlag(kOwneeBit);
            ++result.deadOwnees;
            continue;
        }
        uint32_t tag = ownee->ownerTag();
        if (!owners_[tag - 1]->marked()) {
            // Its owner dies in this collection: it outlived it. It is
            // no ownee any more, so this GC's owned bit goes too.
            ownee->clearFlag(kOwneeBit);
            ownee->clearFlag(kOwnedBit);
            ownee->setOwnerTag(0);
            result.orphanedOwnees.push_back(ownee);
            continue;
        }
        ++live[tag - 1];
        ownees_[kept_ownees++] = ownee;
    }
    ownees_.resize(kept_ownees);
    sorted_ = kept_ownees;

    // Then owners: a dead owner, or one with nothing left to check,
    // leaves the table; the rest move down, and live[i] becomes the
    // new tag of old owner i.
    size_t kept = 0;
    for (size_t i = 0; i < owners_.size(); ++i) {
        Object *owner = owners_[i];
        if (!owner->marked())
            ++result.deadOwners;
        if (live[i] == 0) {
            owner->clearFlag(kOwnerBit);
            continue;
        }
        owners_[kept++] = owner;
        live[i] = static_cast<uint32_t>(kept);
    }
    if (kept != owners_.size()) {
        // In the steady state no owner leaves the table, nothing
        // moves and this is skipped entirely.
        owners_.resize(kept);
        for (Object *ownee : ownees_)
            ownee->setOwnerTag(live[ownee->ownerTag() - 1]);
        rebuildIndex();
    }
    return result;
}

void
OwnershipTable::clear()
{
    for (Object *owner : owners_)
        owner->clearFlag(kOwnerBit);
    for (Object *ownee : ownees_) {
        ownee->clearFlag(kOwneeBit);
        ownee->clearFlag(kOwnedBit);
        ownee->setOwnerTag(0);
    }
    owners_.clear();
    ownees_.clear();
    index_.clear();
    sorted_ = 0;
}

} // namespace gcassert
