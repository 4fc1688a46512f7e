#include "assertions/engine.h"

#include <algorithm>

#include "observe/assert_cost.h"
#include "support/logging.h"
#include "support/strutil.h"

namespace gcassert {

namespace {

/**
 * Rank kinds by the sequential trace's per-object checking order
 * (p2Visit: ownee check, then dead check, then unshared on
 * re-encounter), so same-object dedup keeps the violation the
 * sequential collector would have reported.
 */
int
kindRank(AssertionKind kind)
{
    switch (kind) {
    case AssertionKind::OwnedBy: return 0;
    case AssertionKind::OwnershipMisuse: return 1;
    case AssertionKind::AllDead: return 2;
    case AssertionKind::Dead: return 3;
    case AssertionKind::Unshared: return 4;
    default: return 5;
    }
}

} // namespace

AssertionEngine::AssertionEngine(TypeRegistry &types,
                                 MutatorRegistry &mutators,
                                 EngineOptions options)
    : types_(types), mutators_(mutators), options_(options)
{
}

void
AssertionEngine::assertDead(Object *obj)
{
    if (!obj)
        fatal("assert-dead called on null");
    obj->setFlag(kDeadBit);
    ++stats_.assertDeadCalls;
}

void
AssertionEngine::startRegion(MutatorContext &mutator, std::string label)
{
    if (mutator.inRegion())
        fatal(format("start-region: mutator '%s' is already in a region",
                     mutator.name().c_str()));
    mutator.setInRegion(true);
    mutator.regionLabel_ = std::move(label);
    ++stats_.startRegionCalls;
}

void
AssertionEngine::assertAllDead(MutatorContext &mutator)
{
    if (!mutator.inRegion())
        fatal(format("assert-alldead: mutator '%s' has no active region",
                     mutator.name().c_str()));
    mutator.setInRegion(false);
    std::vector<Object *> queue = mutator.takeRegionQueue();
    // Flushing the queue reuses assert-dead's mechanism: one header
    // bit per object, no extra metadata survives the flush. The
    // kRegionBit is retained so a violation is attributed to
    // assert-alldead rather than assert-dead.
    for (Object *obj : queue)
        obj->setFlag(kDeadBit);
    // Labeled regions additionally remember which region each
    // flushed object came from, so a violation can name it. The map
    // only grows until the next full trace consumes every verdict.
    if (!mutator.regionLabel_.empty()) {
        for (Object *obj : queue)
            regionLabels_[obj] = mutator.regionLabel_;
        mutator.regionLabel_.clear();
    }
    stats_.regionObjectsFlushed += queue.size();
    ++stats_.assertAllDeadCalls;
}

void
AssertionEngine::assertInstances(TypeId type, uint64_t limit)
{
    types_.trackInstances(type, limit);
    ++stats_.assertInstancesCalls;
}

void
AssertionEngine::assertVolume(TypeId type, uint64_t bytes)
{
    types_.trackVolume(type, bytes);
    ++stats_.assertVolumeCalls;
}

void
AssertionEngine::assertUnshared(Object *obj)
{
    if (!obj)
        fatal("assert-unshared called on null");
    obj->setFlag(kUnsharedBit);
    ++stats_.assertUnsharedCalls;
}

void
AssertionEngine::assertOwnedBy(Object *owner, Object *ownee)
{
    ownership_.addPair(owner, ownee);
    ++stats_.assertOwnedByCalls;
}

void
AssertionEngine::onGcStart(uint64_t gc_number)
{
    gcNumber_ = gc_number;
    reportedThisGc_.clear();
    types_.resetInstanceCounts();
    // Clear per-GC ownership scan state.
    for (Object *ownee : ownership_.ownees())
        ownee->clearFlag(kOwnedBit);
}

void
AssertionEngine::checkTrackedTypeLimits()
{
    for (TypeId id : types_.trackedTypes()) {
        const TypeDescriptor &desc = types_.get(id);
        if (desc.instanceCount() > desc.instanceLimit()) {
            Violation v;
            v.kind = AssertionKind::Instances;
            v.offendingType = desc.name();
            v.gcNumber = gcNumber_;
            v.message = format(
                "%llu instances of %s are live; the limit is "
                "%llu.",
                static_cast<unsigned long long>(
                    desc.instanceCount()),
                desc.name().c_str(),
                static_cast<unsigned long long>(
                    desc.instanceLimit()));
            report(std::move(v));
        }
        if (desc.volumeBytes() > desc.volumeLimit()) {
            Violation v;
            v.kind = AssertionKind::Volume;
            v.offendingType = desc.name();
            v.gcNumber = gcNumber_;
            v.message = format(
                "live %s instances total %llu bytes; the budget "
                "is %llu bytes.",
                desc.name().c_str(),
                static_cast<unsigned long long>(
                    desc.volumeBytes()),
                static_cast<unsigned long long>(
                    desc.volumeLimit()));
            report(std::move(v));
        }
    }
}

void
AssertionEngine::onTraceDone(AssertCostTallies *cost)
{
    // Instance- and volume-limit checks over the mark phase's tallies.
    {
        CostScope scope(cost, AssertCostKind::Instances);
        checkTrackedTypeLimits();
    }

    // Region queues: drop entries that died in this collection so
    // the queues never hold dangling pointers. Region labels are all
    // consumed by now — every flushed object was either reported
    // during this trace or is about to be swept — so the map resets
    // before lazy sweeping can recycle any of its addresses.
    {
        CostScope scope(cost, AssertCostKind::AllDead);
        mutators_.forEach(
            [](MutatorContext &mutator) { mutator.pruneRegionQueue(); });
        regionLabels_.clear();
    }

    // Ownership table: drop satisfied pairs; convert ownees that
    // survived a reclaimed owner into orphan dead-assertions. They
    // may be live only because the ownership phase itself traced
    // them, so the verdict is deferred: if the *next* collection
    // still finds them reachable (now necessarily from real roots),
    // the dead check reports them as assert-ownedby violations with
    // a full path; if they die, the assertion was satisfied.
    {
        CostScope scope(cost, AssertCostKind::OwnedBy);
        OwnershipTable::PruneResult pruned = ownership_.prune();
        stats_.owneeAssertsSatisfied += pruned.deadOwnees;
        if (options_.orphanedOwneeIsViolation) {
            for (Object *ownee : pruned.orphanedOwnees) {
                ownee->setFlag(kDeadBit);
                ownee->setFlag(kOrphanBit);
            }
        }
    }
}

void
AssertionEngine::onObjectFreed(Object *obj)
{
    if (obj->testFlag(kOrphanBit))
        ++stats_.owneeAssertsSatisfied;
    else if (obj->testFlag(kDeadBit))
        ++stats_.deadAssertsSatisfied;
}

void
AssertionEngine::report(Violation violation)
{
    ++stats_.violationsReported;
    Reaction reaction = reactions_.forKind(violation.kind);
    // Enrich before recording so the stored violation carries the
    // provenance; the observer adds context only, never verdicts.
    if (violationObserver_)
        violationObserver_(violation);
    violations_.push_back(violation);
    warn(violation.toString());
    reactions_.notify(violations_.back());
    if (reaction == Reaction::LogHalt)
        fatal(std::string("halting on ") +
              assertionKindName(violation.kind) + " violation: " +
              violation.message);
}

bool
AssertionEngine::alreadyReported(const Object *obj)
{
    return !reportedThisGc_.insert(obj).second;
}

void
AssertionEngine::reportPending(std::vector<PendingViolation> pending)
{
    std::sort(pending.begin(), pending.end(),
              [](const PendingViolation &a, const PendingViolation &b) {
                  if (a.obj != b.obj)
                      return a.obj < b.obj;
                  return kindRank(a.kind) < kindRank(b.kind);
              });
    for (PendingViolation &pv : pending) {
        if (alreadyReported(pv.obj))
            continue;
        Violation v;
        v.kind = pv.kind;
        v.offendingType = typeNameOf(pv.obj);
        v.offendingAddress = pv.obj;
        v.gcNumber = gcNumber_;
        v.message = std::move(pv.message);
        report(std::move(v));
        if (pv.disarm)
            disarmLifetime(pv.obj);
    }
}

void
AssertionEngine::disarmLifetime(Object *obj)
{
    obj->clearFlag(kDeadBit);
    obj->clearFlag(kRegionBit);
    obj->clearFlag(kOrphanBit);
}

std::string
AssertionEngine::typeNameOf(const Object *obj) const
{
    return types_.get(obj->typeId()).name();
}

} // namespace gcassert
