/**
 * @file
 * Tests for assert-ownedby (paper section 2.5.2): the two-phase
 * ownership trace, truncation at ownees, owner-region overlap
 * warnings, owner-liveness handling, and table pruning.
 */

#include "heap/verifier.h"
#include "test_util.h"

namespace gcassert {
namespace {

using testutil::RuntimeTest;

class AssertOwnedByTest : public RuntimeTest {};

/**
 * Every lookup agrees with the others for a registered pair: the
 * owner's tag is the ownee's header tag, and both ownee queries name
 * the owner.
 */
void
expectIndexed(const OwnershipTable &table, Object *owner, Object *ownee)
{
    uint32_t tag = table.ownerTagOf(owner);
    EXPECT_NE(tag, 0u);
    EXPECT_LE(tag, table.ownerCount());
    EXPECT_EQ(ownee->ownerTag(), tag);
    EXPECT_EQ(table.ownerOf(ownee), owner);
    EXPECT_TRUE(table.isOwneeOf(owner, ownee));
}

TEST_F(AssertOwnedByTest, OwneeReachableThroughOwnerIsSatisfied)
{
    Handle owner = rootedNode(0, "owner-root");
    Object *ownee = node(1);
    owner->setRef(0, ownee);
    runtime_->assertOwnedBy(owner.get(), ownee);
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_F(AssertOwnedByTest, OwneeAlsoCachedElsewhereIsStillSatisfied)
{
    // The paper's canonical example: elements live in a container
    // and are also cached in a side table; the cache reference is
    // fine while the container path exists.
    Handle owner = rootedNode(0, "container");
    Handle cache = rootedNode(1, "cache");
    Object *element = node(2);
    owner->setRef(0, element);
    cache->setRef(0, element);
    runtime_->assertOwnedBy(owner.get(), element);
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_F(AssertOwnedByTest, OwneeOnlyReachableViaCacheIsViolation)
{
    Handle owner = rootedNode(0, "container");
    Handle cache = rootedNode(1, "cache");
    Object *element = node(2);
    owner->setRef(0, element);
    cache->setRef(0, element);
    runtime_->assertOwnedBy(owner.get(), element);
    // Remove from the container but forget the cache: the classic
    // managed-language leak.
    owner->setRef(0, nullptr);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    const Violation &v = violations()[0];
    EXPECT_EQ(v.kind, AssertionKind::OwnedBy);
    EXPECT_NE(v.message.find("without passing through its owner"),
              std::string::npos);
    EXPECT_EQ(v.offendingType, "Node");
}

TEST_F(AssertOwnedByTest, OwneeDiesBeforeOwnerIsSatisfied)
{
    Handle owner = rootedNode(0, "owner-root");
    Object *ownee = node(1);
    owner->setRef(0, ownee);
    runtime_->assertOwnedBy(owner.get(), ownee);
    owner->setRef(0, nullptr); // properly removed everywhere
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
    EXPECT_FALSE(alive(ownee));
    EXPECT_EQ(runtime_->assertionStats().owneeAssertsSatisfied, 1u);
}

TEST_F(AssertOwnedByTest, DeepPathThroughOwnerCounts)
{
    // owner -> a -> b -> ownee : the path passes through the owner.
    Handle owner = rootedNode(0, "owner-root");
    Object *a = node(1);
    Object *b = node(2);
    Object *ownee = node(3);
    owner->setRef(0, a);
    a->setRef(0, b);
    b->setRef(0, ownee);
    runtime_->assertOwnedBy(owner.get(), ownee);
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_F(AssertOwnedByTest, ManyOwneesMixedOutcome)
{
    Handle owner = rootedNode(0, "owner-root");
    Handle stray = rootedNode(9, "stray");
    Handle arr(*runtime_, runtime_->allocArrayRaw(arrayType_, 16),
               "elements");
    owner->setRef(0, arr.get());
    std::vector<Object *> ownees;
    for (uint32_t i = 0; i < 10; ++i) {
        Object *e = node(i);
        arr->setRef(i, e);
        runtime_->assertOwnedBy(owner.get(), e);
        ownees.push_back(e);
    }
    // Detach two: one kept via stray (violation), one fully dead.
    stray->setRef(0, ownees[3]);
    arr->setRef(3, nullptr);
    arr->setRef(7, nullptr);
    runtime_->collect();
    ASSERT_EQ(violationsOf(AssertionKind::OwnedBy).size(), 1u);
    EXPECT_EQ(runtime_->assertionStats().owneeAssertsSatisfied, 1u);
    EXPECT_FALSE(alive(ownees[7]));
}

TEST_F(AssertOwnedByTest, OwnerItselfUnreachableIsCollected)
{
    // The owner must not be kept alive just because it is an owner:
    // the ownership phase deliberately avoids marking the owner.
    Object *owner = node(0);
    Object *ownee = node(1);
    owner->setRef(0, ownee);
    runtime_->assertOwnedBy(owner, ownee);
    runtime_->collect();
    EXPECT_FALSE(alive(owner)) << "unreachable owner must die";
    // The ownee was reachable only from the owner; the paper notes
    // such objects survive one extra collection (traced in the
    // ownership phase) and die at the next one.
    runtime_->collect();
    EXPECT_FALSE(alive(ownee));
}

TEST_F(AssertOwnedByTest, OrphanedOwneeIsReportedWhenOwnerDies)
{
    Handle keeper = rootedNode(9, "keeper");
    Object *owner = node(0);
    Object *ownee = node(1);
    owner->setRef(0, ownee);
    keeper->setRef(0, ownee); // ownee outlives its owner
    runtime_->assertOwnedBy(owner, ownee);
    // First collection reclaims the owner and arms the orphan check;
    // the verdict is deferred to the next collection.
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
    EXPECT_FALSE(ownee->testFlag(kOwneeBit));
    EXPECT_FALSE(ownee->testFlag(kOwnedBit)) << "no stale per-GC state";
    EXPECT_TRUE(HeapVerifier(*runtime_).verify().empty());
    runtime_->collect();
    auto orphaned = violationsOf(AssertionKind::OwnedBy);
    ASSERT_EQ(orphaned.size(), 1u);
    EXPECT_NE(orphaned[0].message.find("outlived its owner"),
              std::string::npos);
    EXPECT_FALSE(orphaned[0].path.empty()) << "full path is available";
}

TEST_F(AssertOwnedByTest, OrphanedOwneeThatDiesIsSatisfied)
{
    // The ownee was reachable only through its (dead) owner: it
    // survives one extra collection because the ownership phase
    // traced it, then dies quietly — no false positive.
    Object *owner = node(0);
    Object *ownee = node(1);
    owner->setRef(0, ownee);
    runtime_->assertOwnedBy(owner, ownee);
    runtime_->collect();
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
    EXPECT_FALSE(alive(ownee));
    EXPECT_EQ(runtime_->assertionStats().owneeAssertsSatisfied, 1u);
}

TEST_F(AssertOwnedByTest, OrphanedOwneeSilentWhenOptionDisabled)
{
    RuntimeConfig config = defaultConfig();
    config.engine.orphanedOwneeIsViolation = false;
    Runtime quiet(config);
    TypeId t = quiet.types().define("N").refCount(2).build();
    Handle keeper(quiet, quiet.allocRaw(t), "keeper");
    Object *owner = quiet.allocRaw(t);
    Object *ownee = quiet.allocRaw(t);
    owner->setRef(0, ownee);
    keeper->setRef(0, ownee);
    quiet.assertOwnedBy(owner, ownee);
    quiet.collect();
    EXPECT_TRUE(quiet.violations().empty());
}

TEST_F(AssertOwnedByTest, SharedStructureWithBackEdges)
{
    // Container with internal back edges: nodes point back at the
    // owner and at each other. Truncation at ownees avoids the
    // back-edge problem (paper section 2.5.2).
    Handle owner = rootedNode(0, "owner-root");
    Object *e1 = node(1);
    Object *e2 = node(2);
    owner->setRef(0, e1);
    owner->setRef(1, e2);
    e1->setRef(0, owner.get()); // back edge to owner
    e1->setRef(1, e2);          // cross edge between ownees
    e2->setRef(0, e1);
    runtime_->assertOwnedBy(owner.get(), e1);
    runtime_->assertOwnedBy(owner.get(), e2);
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_F(AssertOwnedByTest, OwneeOnlyInsideAnotherOwneeIsViolation)
{
    // ownee1 -> ownee2: ownee2 is reachable only *through ownee1*,
    // not through the owner's own structure — i.e. it is no longer
    // an element of the owning container. This is the shape of the
    // paper's JBB leak (a removed Order reachable only via another
    // Order's Customer), and it is reported.
    Handle owner = rootedNode(0, "owner-root");
    Object *e1 = node(1);
    Object *e2 = node(2);
    owner->setRef(0, e1);
    e1->setRef(0, e2);
    runtime_->assertOwnedBy(owner.get(), e1);
    runtime_->assertOwnedBy(owner.get(), e2);
    runtime_->collect();
    ASSERT_EQ(violationsOf(AssertionKind::OwnedBy).size(), 1u);
    EXPECT_TRUE(alive(e2)) << "reported, but still traced live";

    // Making e2 a direct element again satisfies the assertion.
    owner->setRef(1, e2);
    runtime_->collect();
    EXPECT_EQ(violationsOf(AssertionKind::OwnedBy).size(), 1u)
        << "no new report once e2 is back in the owner's structure";
}

TEST_F(AssertOwnedByTest, DisjointOwnersCoexist)
{
    Handle o1 = rootedNode(1, "owner-1");
    Handle o2 = rootedNode(2, "owner-2");
    Object *e1 = node(11);
    Object *e2 = node(22);
    o1->setRef(0, e1);
    o2->setRef(0, e2);
    runtime_->assertOwnedBy(o1.get(), e1);
    runtime_->assertOwnedBy(o2.get(), e2);
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_F(AssertOwnedByTest, OverlappingOwnerRegionsWarn)
{
    // o1's region contains an ownee of o2: improper use per the
    // paper ("owner regions must be disjoint").
    Handle o1 = rootedNode(1, "owner-1");
    Handle o2 = rootedNode(2, "owner-2");
    Object *mid = node(3);
    Object *e2 = node(4);
    o1->setRef(0, mid);
    mid->setRef(0, e2); // e2 (ownee of o2) inside o1's region
    o2->setRef(0, e2);
    runtime_->assertOwnedBy(o1.get(), mid);
    runtime_->assertOwnedBy(o2.get(), e2);
    runtime_->collect();
    auto misuse = violationsOf(AssertionKind::OwnershipMisuse);
    // Whether the warning fires depends on scan order reaching e2
    // from o1 before o2 owns it; with truncation at `mid` (an ownee
    // of o1) the overlap is actually hidden. Rewire so the overlap
    // is direct.
    (void)misuse;
    o1->setRef(1, e2);
    runtime_->collect();
    EXPECT_GE(violationsOf(AssertionKind::OwnershipMisuse).size(), 1u);
}

TEST_F(AssertOwnedByTest, SelfOwnershipIsFatal)
{
    Handle obj = rootedNode(1);
    EXPECT_THROW(runtime_->assertOwnedBy(obj.get(), obj.get()),
                 FatalError);
}

TEST_F(AssertOwnedByTest, NullArgumentsAreFatal)
{
    Handle obj = rootedNode(1);
    EXPECT_THROW(runtime_->assertOwnedBy(nullptr, obj.get()), FatalError);
    EXPECT_THROW(runtime_->assertOwnedBy(obj.get(), nullptr), FatalError);
}

TEST_F(AssertOwnedByTest, DuplicatePairsAreIdempotent)
{
    Handle owner = rootedNode(0, "owner-root");
    Object *ownee = node(1);
    owner->setRef(0, ownee);
    runtime_->assertOwnedBy(owner.get(), ownee);
    runtime_->assertOwnedBy(owner.get(), ownee);
    const OwnershipTable &table = runtime_->engine().ownership();
    EXPECT_EQ(table.ownerCount(), 1u);
    EXPECT_EQ(table.owneeCount(), 1u);
    expectIndexed(table, owner.get(), ownee);
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_F(AssertOwnedByTest, TablePrunesDeadPairs)
{
    Handle owner = rootedNode(0, "owner-root");
    for (int i = 0; i < 10; ++i) {
        Object *ownee = node(i);
        owner->setRef(0, ownee); // only the latest is retained
        runtime_->assertOwnedBy(owner.get(), ownee);
    }
    EXPECT_EQ(runtime_->engine().ownership().owneeCount(), 10u);
    runtime_->collect();
    // Nine ownees died; the table keeps only the live one.
    EXPECT_EQ(runtime_->engine().ownership().owneeCount(), 1u);
    EXPECT_EQ(runtime_->assertionStats().owneeAssertsSatisfied, 9u);
}

TEST_F(AssertOwnedByTest, OwnerWithNoLiveOwneesLeavesTable)
{
    Handle owner = rootedNode(0, "owner-root");
    Object *ownee = node(1);
    owner->setRef(0, ownee);
    runtime_->assertOwnedBy(owner.get(), ownee);
    owner->setRef(0, nullptr);
    runtime_->collect();
    EXPECT_TRUE(runtime_->engine().ownership().empty());
    EXPECT_FALSE(owner->testFlag(kOwnerBit));
}

TEST_F(AssertOwnedByTest, PruneInTheMiddleKeepsLookupsConsistent)
{
    // Five owners with two ownees each. The second dies; the fourth
    // survives but loses both ownees. Both leave the table, and the
    // owners behind them move down.
    std::vector<Handle> owners;
    std::vector<std::vector<Object *>> ownees(5);
    for (uint32_t i = 0; i < 5; ++i) {
        owners.push_back(rootedNode(i, "owner"));
        for (uint32_t j = 0; j < 2; ++j) {
            Object *ownee = node(10 * i + j);
            owners[i]->setRef(j, ownee);
            runtime_->assertOwnedBy(owners[i].get(), ownee);
            ownees[i].push_back(ownee);
        }
    }
    const OwnershipTable &table = runtime_->engine().ownership();
    for (uint32_t i = 0; i < 5; ++i)
        for (Object *ownee : ownees[i])
            expectIndexed(table, owners[i].get(), ownee);

    owners[1].reset();
    owners[3]->setRef(0, nullptr);
    owners[3]->setRef(1, nullptr);
    runtime_->collect();

    EXPECT_EQ(table.ownerCount(), 3u);
    EXPECT_EQ(table.owneeCount(), 6u);
    EXPECT_EQ(table.ownerTagOf(owners[3].get()), 0u);
    EXPECT_FALSE(owners[3]->testFlag(kOwnerBit));
    for (uint32_t i : {0u, 2u, 4u})
        for (Object *ownee : ownees[i])
            expectIndexed(table, owners[i].get(), ownee);
    // The scan sees the moved tags too.
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_F(AssertOwnedByTest, ManyOwnersGrowAndShrinkTheIndex)
{
    // Enough owners to grow the index several times; then every other
    // owner loses its ownee and the index is rebuilt smaller.
    constexpr uint32_t kOwners = 300;
    Handle all(*runtime_, runtime_->allocArrayRaw(arrayType_, kOwners),
               "owners");
    std::vector<Object *> ownees;
    for (uint32_t i = 0; i < kOwners; ++i) {
        Object *owner = node(i);
        all->setRef(i, owner);
        Object *ownee = node(1000 + i);
        owner->setRef(0, ownee);
        runtime_->assertOwnedBy(owner, ownee);
        ownees.push_back(ownee);
    }
    const OwnershipTable &table = runtime_->engine().ownership();
    EXPECT_EQ(table.ownerCount(), kOwners);
    for (uint32_t i = 0; i < kOwners; ++i) {
        expectIndexed(table, all->ref(i), ownees[i]);
        EXPECT_EQ(table.ownerTagOf(all->ref(i)), i + 1);
    }

    for (uint32_t i = 0; i < kOwners; i += 2)
        all->ref(i)->setRef(0, nullptr);
    runtime_->collect();
    EXPECT_EQ(table.ownerCount(), kOwners / 2);
    for (uint32_t i = 0; i < kOwners; ++i) {
        if (i % 2 == 0)
            EXPECT_EQ(table.ownerTagOf(all->ref(i)), 0u);
        else
            expectIndexed(table, all->ref(i), ownees[i]);
    }
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_F(AssertOwnedByTest, PrunedOwnerRegisteredAgainGetsAFreshIndex)
{
    Handle first = rootedNode(0, "first");
    Handle second = rootedNode(1, "second");
    Object *a = node(2);
    Object *b = node(3);
    first->setRef(0, a);
    second->setRef(0, b);
    runtime_->assertOwnedBy(first.get(), a);
    runtime_->assertOwnedBy(second.get(), b);
    const OwnershipTable &table = runtime_->engine().ownership();
    EXPECT_EQ(table.ownerTagOf(first.get()), 1u);

    first->setRef(0, nullptr); // a dies: first leaves the table
    runtime_->collect();
    EXPECT_EQ(table.ownerCount(), 1u);
    EXPECT_EQ(table.ownerTagOf(second.get()), 1u);
    expectIndexed(table, second.get(), b);

    Object *c = node(4);
    first->setRef(0, c);
    runtime_->assertOwnedBy(first.get(), c);
    EXPECT_EQ(table.ownerCount(), 2u);
    EXPECT_EQ(table.ownerTagOf(first.get()), 2u);
    expectIndexed(table, first.get(), c);
    expectIndexed(table, second.get(), b);
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_F(AssertOwnedByTest, ClearThenRegisterAgain)
{
    Handle first = rootedNode(0, "first");
    Handle second = rootedNode(1, "second");
    Object *a = node(2);
    Object *b = node(3);
    first->setRef(0, a);
    second->setRef(0, b);
    runtime_->assertOwnedBy(first.get(), a);
    OwnershipTable &table = runtime_->engine().ownership();
    table.clear();
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.ownerTagOf(first.get()), 0u);
    EXPECT_FALSE(first->testFlag(kOwnerBit));
    EXPECT_FALSE(a->testFlag(kOwneeBit));
    EXPECT_EQ(table.ownerOf(a), nullptr);

    // The cleared owner starts over behind a new one.
    runtime_->assertOwnedBy(second.get(), b);
    runtime_->assertOwnedBy(first.get(), a);
    EXPECT_EQ(table.ownerTagOf(second.get()), 1u);
    EXPECT_EQ(table.ownerTagOf(first.get()), 2u);
    expectIndexed(table, first.get(), a);
    expectIndexed(table, second.get(), b);
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_F(AssertOwnedByTest, OwneeRegisteredAgainBelongsToItsLatestOwner)
{
    // Its tag now names the second owner, which is the owner the
    // scan checks against, so the lookups name that owner as well;
    // the first owner keeps only its other ownee.
    Handle first = rootedNode(0, "first");
    Handle second = rootedNode(1, "second");
    Object *anchor = node(2);
    Object *ownee = node(3);
    first->setRef(0, anchor);
    second->setRef(0, ownee);
    runtime_->assertOwnedBy(first.get(), anchor);
    runtime_->assertOwnedBy(first.get(), ownee);
    runtime_->assertOwnedBy(second.get(), ownee);
    const OwnershipTable &table = runtime_->engine().ownership();
    expectIndexed(table, second.get(), ownee);
    EXPECT_FALSE(table.isOwneeOf(first.get(), ownee));
    runtime_->collect();
    EXPECT_TRUE(violations().empty())
        << "reached through the owner its tag names";

    // Reached only from a root now: one violation for the ownee.
    Handle cache = rootedNode(4, "cache");
    cache->setRef(0, ownee);
    second->setRef(0, nullptr);
    runtime_->collect();
    auto v = violationsOf(AssertionKind::OwnedBy);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].offendingAddress, ownee);
}

TEST_F(AssertOwnedByTest, ViolationReportedOncePerGc)
{
    Handle owner = rootedNode(0, "owner");
    Handle c1 = rootedNode(1, "cache-1");
    Handle c2 = rootedNode(2, "cache-2");
    Object *element = node(3);
    owner->setRef(0, element);
    c1->setRef(0, element);
    c2->setRef(0, element);
    runtime_->assertOwnedBy(owner.get(), element);
    owner->setRef(0, nullptr);
    runtime_->collect();
    EXPECT_EQ(violationsOf(AssertionKind::OwnedBy).size(), 1u)
        << "two cache paths still yield one report per GC";
}

TEST_F(AssertOwnedByTest, OwneeChecksAreCounted)
{
    Handle owner = rootedNode(0, "owner-root");
    for (uint32_t i = 0; i < 5; ++i) {
        Object *ownee = node(i);
        owner->setRef(i % 2, ownee);
        runtime_->assertOwnedBy(owner.get(), ownee);
    }
    runtime_->collect();
    EXPECT_GT(runtime_->gcStats().owneeChecksLastGc, 0u);
    EXPECT_GE(runtime_->gcStats().owneeChecks,
              runtime_->gcStats().owneeChecksLastGc);
}

TEST_F(AssertOwnedByTest, ChurnScenarioOrderTable)
{
    // Simplified JBB pattern: orders owned by a table, removed and
    // destroyed over time; a rogue reference keeps one alive.
    Handle table(*runtime_, runtime_->allocArrayRaw(arrayType_, 32),
                 "order-table");
    Handle rogue = rootedNode(0, "rogue");
    std::vector<Object *> orders;
    for (uint32_t i = 0; i < 20; ++i) {
        Object *order = node(i);
        table->setRef(i, order);
        runtime_->assertOwnedBy(table.get(), order);
        orders.push_back(order);
    }
    runtime_->collect();
    EXPECT_TRUE(violations().empty());

    rogue->setRef(0, orders[5]);
    for (uint32_t i = 0; i < 10; ++i)
        table->setRef(i, nullptr); // process the first ten
    runtime_->collect();
    ASSERT_EQ(violationsOf(AssertionKind::OwnedBy).size(), 1u);
    EXPECT_EQ(runtime_->assertionStats().owneeAssertsSatisfied, 9u);
}

} // namespace
} // namespace gcassert
