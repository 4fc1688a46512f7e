#include "heap/verifier.h"

#include <unordered_set>

#include "runtime/runtime.h"
#include "support/logging.h"
#include "support/strutil.h"

namespace gcassert {

std::vector<VerifierIssue>
HeapVerifier::verify() const
{
    std::vector<VerifierIssue> issues;
    auto report = [&](const Object *obj, std::string what) {
        issues.push_back(VerifierIssue{obj, std::move(what)});
    };

    // Snapshot the allocated set for O(1) membership checks.
    std::unordered_set<const Object *> allocated;
    runtime_.heap().forEachObject(
        [&](Object *obj) { allocated.insert(obj); });

    runtime_.heap().forEachObject([&](Object *obj) {
        // Shape consistency for fixed-shape types.
        const TypeDescriptor &desc = runtime_.types().get(obj->typeId());
        if (!desc.isArray()) {
            if (obj->numRefs() != desc.fixedRefs())
                report(obj, format("fixed type '%s' instance has %u ref "
                                   "slots, descriptor says %u",
                                   desc.name().c_str(), obj->numRefs(),
                                   desc.fixedRefs()));
            if (obj->scalarBytes() < desc.scalarBytes())
                report(obj, format("fixed type '%s' instance has %u "
                                   "scalar bytes, descriptor says %u",
                                   desc.name().c_str(),
                                   obj->scalarBytes(),
                                   desc.scalarBytes()));
        }

        // Reference sanity.
        for (uint32_t i = 0; i < obj->numRefs(); ++i) {
            const Object *child = obj->ref(i);
            if (child && !allocated.count(child))
                report(obj, format("ref slot %u points outside the "
                                   "allocated set", i));
        }

        // No stale collector state between collections. Exception:
        // live objects in a block whose lazy sweep has not been
        // finished yet legitimately keep their mark until allocation
        // or the next GC prologue reaches the block.
        if (obj->marked() &&
            !runtime_.heap().inLazyPendingBlock(obj))
            report(obj, "stale mark bit outside a collection");
        // The owned bit is per-GC state but is only reset at the
        // *start* of each collection, so between collections it may
        // legitimately linger on registered ownees — never on
        // anything else.
        if (obj->testFlag(kOwnedBit) && !obj->testFlag(kOwneeBit))
            report(obj, "stale per-GC owned bit on a non-ownee");

        // Assertion-state consistency.
        if (obj->ownerTag() != 0 && !obj->testFlag(kOwneeBit))
            report(obj, "owner tag set on a non-ownee");
        if (obj->testFlag(kOrphanBit) && !obj->testFlag(kDeadBit))
            report(obj, "orphan bit without dead bit");
        if (obj->testFlag(kRegionBit) && !obj->testFlag(kDeadBit) &&
            !runtime_.mainMutatorInRegionOrAny())
            report(obj, "region bit outside any active region and "
                        "not dead-asserted");

        // Generational state consistency.
        bool in_nursery = runtime_.heap().nurseryContains(obj);
        if (obj->testFlag(kNurseryBit) != in_nursery)
            report(obj, in_nursery
                       ? "nursery roster entry without kNurseryBit"
                       : "kNurseryBit set on an object off the roster");
        if (obj->testFlag(kRememberedBit) &&
            !runtime_.remset().contains(obj))
            report(obj, "kRememberedBit set but the object is not in "
                        "the remembered set");

        // Remembered-set invariant: at a mutator quiescent point,
        // every mature->nursery edge must have been recorded by the
        // write barrier — the source is in the remembered set (which
        // rescans the source's every slot). An unrecorded edge proves a
        // barrier bypass and would let a minor collection reclaim a
        // live nursery object.
        if (!obj->testFlag(kNurseryBit)) {
            for (uint32_t i = 0; i < obj->numRefs(); ++i) {
                const Object *child = obj->ref(i);
                if (!child || !child->testFlag(kNurseryBit))
                    continue;
                if (!runtime_.remset().contains(obj))
                    report(obj, format("unrecorded mature->nursery edge "
                                       "in ref slot %u (source not in "
                                       "the remembered set)", i));
            }
        }
    });

    // Root sanity.
    runtime_.roots().forEach([&](RootNode &node) {
        const Object *obj = node.get();
        if (obj && !allocated.count(obj))
            report(obj, format("root '%s' points outside the allocated "
                               "set", node.name()));
    });

    return issues;
}

void
HeapVerifier::verifyOrPanic() const
{
    auto issues = verify();
    if (!issues.empty())
        panic(format("heap verification failed (%zu issues): %s",
                     issues.size(), issues[0].what.c_str()));
}

} // namespace gcassert
