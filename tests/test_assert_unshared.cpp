/**
 * @file
 * Tests for assert-unshared (ownership/connectivity assertions,
 * paper section 2.5.1).
 */

#include "test_util.h"

namespace gcassert {
namespace {

using testutil::RuntimeTest;

class AssertUnsharedTest : public RuntimeTest {};

TEST_F(AssertUnsharedTest, SingleParentIsSatisfied)
{
    Handle root = rootedNode(0);
    Object *child = node(1);
    root->setRef(0, child);
    runtime_->assertUnshared(child);
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_F(AssertUnsharedTest, TwoParentsIsViolation)
{
    Handle root = rootedNode(0);
    Object *p1 = node(1);
    Object *p2 = node(2);
    Object *shared = node(3);
    root->setRef(0, p1);
    root->setRef(1, p2);
    p1->setRef(0, shared);
    p2->setRef(0, shared);
    runtime_->assertUnshared(shared);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    const Violation &v = violations()[0];
    EXPECT_EQ(v.kind, AssertionKind::Unshared);
    EXPECT_NE(v.message.find("more than one incoming"),
              std::string::npos);
}

TEST_F(AssertUnsharedTest, TwoRootsIsViolation)
{
    Object *shared = node(1);
    Handle r1(*runtime_, shared, "root-1");
    Handle r2(*runtime_, shared, "root-2");
    runtime_->assertUnshared(shared);
    runtime_->collect();
    EXPECT_EQ(violations().size(), 1u);
}

TEST_F(AssertUnsharedTest, ReportedOncePerGc)
{
    Handle root = rootedNode(0);
    Object *shared = node(1);
    root->setRef(0, shared);
    root->setRef(1, shared);
    // Give the shared object extra parents.
    Object *p = node(2);
    p->setRef(0, shared);
    Handle proot(*runtime_, p, "p-root");
    runtime_->assertUnshared(shared);
    runtime_->collect();
    EXPECT_EQ(violations().size(), 1u)
        << "three incoming edges still produce a single report per GC";
}

TEST_F(AssertUnsharedTest, PersistsAcrossCollections)
{
    Handle root = rootedNode(0);
    Object *shared = node(1);
    root->setRef(0, shared);
    runtime_->assertUnshared(shared);
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
    // Sharing introduced *after* the first GC is still caught: the
    // unshared bit persists for the object's lifetime.
    root->setRef(1, shared);
    runtime_->collect();
    EXPECT_EQ(violations().size(), 1u);
}

TEST_F(AssertUnsharedTest, TreeVersusDagDetection)
{
    // The paper's usage example: verify a tree has not become a DAG.
    Handle root = rootedNode(0);
    Object *a = node(1);
    Object *b = node(2);
    Object *leaf = node(3);
    root->setRef(0, a);
    root->setRef(1, b);
    a->setRef(0, leaf);
    runtime_->assertUnshared(a);
    runtime_->assertUnshared(b);
    runtime_->assertUnshared(leaf);
    runtime_->collect();
    EXPECT_TRUE(violations().empty()) << "still a tree";

    b->setRef(0, leaf); // now a DAG
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    EXPECT_EQ(violations()[0].kind, AssertionKind::Unshared);
}

TEST_F(AssertUnsharedTest, CycleBackEdgeCountsAsSecondParent)
{
    Handle root = rootedNode(0);
    Object *a = node(1);
    Object *b = node(2);
    root->setRef(0, a);
    a->setRef(0, b);
    b->setRef(0, a); // back edge: a now has two incoming references
    runtime_->assertUnshared(a);
    runtime_->collect();
    EXPECT_EQ(violations().size(), 1u);
}

TEST_F(AssertUnsharedTest, SelfReferenceCountsAsSecondParent)
{
    Handle root = rootedNode(0);
    Object *a = node(1);
    root->setRef(0, a);
    a->setRef(0, a);
    runtime_->assertUnshared(a);
    runtime_->collect();
    EXPECT_EQ(violations().size(), 1u);
}

TEST_F(AssertUnsharedTest, DeadObjectNeverReported)
{
    Object *garbage = node(1);
    Object *p1 = node(2);
    Object *p2 = node(3);
    p1->setRef(0, garbage);
    p2->setRef(0, garbage);
    runtime_->assertUnshared(garbage);
    runtime_->collect();
    EXPECT_TRUE(violations().empty())
        << "unreachable objects are reclaimed, not checked";
    EXPECT_FALSE(alive(garbage));
}

TEST_F(AssertUnsharedTest, NullObjectIsFatal)
{
    EXPECT_THROW(runtime_->assertUnshared(nullptr), FatalError);
}

TEST_F(AssertUnsharedTest, SharedThenUnsharedAgainStillSatisfiedLater)
{
    Handle root = rootedNode(0);
    Object *obj = node(1);
    root->setRef(0, obj);
    root->setRef(1, obj);
    runtime_->assertUnshared(obj);
    runtime_->collect();
    EXPECT_EQ(violations().size(), 1u);
    root->setRef(1, nullptr); // repair the sharing
    runtime_->collect();
    EXPECT_EQ(violations().size(), 1u) << "no new report after repair";
}

/**
 * An owner's reference slots are visited once, by the ownership
 * phase. The root scan that later reaches the (unmarked) owner must
 * not visit them again, or every object the owner references
 * directly would seem to have a second incoming reference. Run with
 * the sequential and the parallel marker.
 */
class UnsharedUnderOwnerTest : public RuntimeTest,
                               public ::testing::WithParamInterface<uint32_t> {
  protected:
    UnsharedUnderOwnerTest() : RuntimeTest(configFor(GetParam())) {}

    static RuntimeConfig
    configFor(uint32_t mark_threads)
    {
        RuntimeConfig config = defaultConfig();
        config.recordPaths = false;
        config.markThreads = mark_threads;
        return config;
    }

    /** Rooted owner -> {leaf0 (its ownee), leaf1}. */
    void
    SetUp() override
    {
        owner_ = rootedNode(0, "owner");
        leaf0_ = node(1);
        leaf1_ = node(2);
        owner_->setRef(0, leaf0_);
        owner_->setRef(1, leaf1_);
        runtime_->assertOwnedBy(owner_.get(), leaf0_);
    }

    Handle owner_;
    Object *leaf0_ = nullptr;
    Object *leaf1_ = nullptr;
};

TEST_P(UnsharedUnderOwnerTest, OwneeAssertedUnsharedIsSatisfied)
{
    runtime_->assertUnshared(leaf0_);
    runtime_->collect();
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_P(UnsharedUnderOwnerTest, OwnerChildAssertedUnsharedIsSatisfied)
{
    runtime_->assertUnshared(leaf1_);
    runtime_->collect();
    runtime_->collect();
    EXPECT_TRUE(violations().empty());
}

TEST_P(UnsharedUnderOwnerTest, SecondReferenceFromRootIsReported)
{
    Handle extra(*runtime_, leaf1_, "extra");
    runtime_->assertUnshared(leaf1_);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    EXPECT_EQ(violations()[0].kind, AssertionKind::Unshared);
    EXPECT_EQ(violations()[0].offendingAddress, leaf1_);
}

TEST_P(UnsharedUnderOwnerTest, ResurrectedOwnerIsNotRescanned)
{
    // An unreachable owner is still traced by the ownership phase;
    // reviving it for its finalizer must not trace it again.
    runtime_->assertUnshared(leaf1_);
    runtime_->setFinalizer(owner_.get(), [](Object *) {});
    owner_.reset();
    runtime_->collect();
    EXPECT_TRUE(violationsOf(AssertionKind::Unshared).empty());
}

INSTANTIATE_TEST_SUITE_P(MarkThreads, UnsharedUnderOwnerTest,
                         ::testing::Values(1u, 4u));

} // namespace
} // namespace gcassert
