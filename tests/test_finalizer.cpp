/**
 * @file
 * Tests for finalization: resurrection semantics, run-once
 * guarantees, interaction with weak references and lifetime
 * assertions.
 */

#include "test_util.h"

namespace gcassert {
namespace {

using testutil::RuntimeTest;

class FinalizerTest : public RuntimeTest {};

TEST_F(FinalizerTest, RunsWhenObjectBecomesUnreachable)
{
    int runs = 0;
    Object *obj = node(1);
    runtime_->setFinalizer(obj, [&](Object *) { ++runs; });
    runtime_->collect();
    EXPECT_EQ(runs, 1);
}

TEST_F(FinalizerTest, DoesNotRunWhileReachable)
{
    int runs = 0;
    Handle root = rootedNode(1);
    runtime_->setFinalizer(root.get(), [&](Object *) { ++runs; });
    runtime_->collect();
    runtime_->collect();
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(runtime_->finalizableCount(), 1u);
}

TEST_F(FinalizerTest, ObjectSurvivesTheCollectionThatQueuedIt)
{
    Object *seen = nullptr;
    uint64_t tag_at_finalize = 0;
    Object *obj = node(42);
    runtime_->setFinalizer(obj, [&](Object *o) {
        seen = o;
        tag_at_finalize = o->scalar<uint64_t>(0);
    });
    runtime_->collect();
    EXPECT_EQ(seen, obj) << "finalizer sees the live object";
    EXPECT_EQ(tag_at_finalize, 42u) << "payload intact at finalize time";
    // Not resurrected: gone after the next collection.
    runtime_->collect();
    EXPECT_FALSE(alive(obj));
}

TEST_F(FinalizerTest, SubtreeSurvivesUntilFinalizerRan)
{
    Object *child_seen = nullptr;
    Object *obj = node(1);
    Object *child = node(2);
    obj->setRef(0, child);
    runtime_->setFinalizer(obj, [&](Object *o) {
        child_seen = o->ref(0); // must still be valid
    });
    runtime_->collect();
    EXPECT_EQ(child_seen, child);
    runtime_->collect();
    EXPECT_FALSE(alive(child));
}

TEST_F(FinalizerTest, RunsExactlyOnce)
{
    int runs = 0;
    Object *obj = node(1);
    runtime_->setFinalizer(obj, [&](Object *) { ++runs; });
    runtime_->collect();
    runtime_->collect();
    runtime_->collect();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(runtime_->finalizableCount(), 0u);
}

TEST_F(FinalizerTest, ResurrectionByReRooting)
{
    Handle graveyard(*runtime_, runtime_->allocArrayRaw(arrayType_, 1),
                     "graveyard");
    Object *obj = node(7);
    runtime_->setFinalizer(obj, [&](Object *o) {
        graveyard->setRef(0, o); // resurrect
    });
    runtime_->collect();
    runtime_->collect();
    EXPECT_TRUE(alive(obj)) << "resurrected objects stay alive";
    EXPECT_EQ(graveyard->ref(0), obj);

    // Dropped again: no finalizer remains, so it dies quietly.
    graveyard->setRef(0, nullptr);
    runtime_->collect();
    EXPECT_FALSE(alive(obj));
}

TEST_F(FinalizerTest, ClearingPreventsTheRun)
{
    int runs = 0;
    Object *obj = node(1);
    runtime_->setFinalizer(obj, [&](Object *) { ++runs; });
    runtime_->setFinalizer(obj, nullptr);
    runtime_->collect();
    EXPECT_EQ(runs, 0);
    EXPECT_FALSE(alive(obj)) << "dies immediately without a finalizer";
}

TEST_F(FinalizerTest, ReplacementUsesTheLatestFinalizer)
{
    int first = 0, second = 0;
    Object *obj = node(1);
    runtime_->setFinalizer(obj, [&](Object *) { ++first; });
    runtime_->setFinalizer(obj, [&](Object *) { ++second; });
    runtime_->collect();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1);
}

TEST_F(FinalizerTest, FinalizerMayAllocate)
{
    Object *obj = node(1);
    bool allocated_ok = false;
    runtime_->setFinalizer(obj, [&](Object *) {
        Handle fresh = runtime_->alloc(nodeType_);
        allocated_ok = fresh.get() != nullptr;
    });
    runtime_->collect();
    EXPECT_TRUE(allocated_ok);
}

TEST_F(FinalizerTest, ChainedFinalizersAcrossCollections)
{
    // obj's finalizer registers a finalizer on its child; the child
    // dies at the following collection and finalizes then.
    std::vector<int> order;
    Object *obj = node(1);
    Object *child = node(2);
    obj->setRef(0, child);
    runtime_->setFinalizer(obj, [&](Object *o) {
        order.push_back(1);
        runtime_->setFinalizer(o->ref(0),
                               [&](Object *) { order.push_back(2); });
    });
    runtime_->collect();
    runtime_->collect();
    runtime_->collect();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(FinalizerTest, WeakRefClearedBeforeFinalizerRuns)
{
    TypeId weak_type = runtime_->types()
                           .define("WeakRef")
                           .refs({"referent"})
                           .weak()
                           .build();
    Object *target = node(1);
    Object *weak = runtime_->allocRaw(weak_type);
    Handle weak_root(*runtime_, weak, "weak");
    weak->setRef(0, target);

    bool weak_was_cleared = false;
    runtime_->setFinalizer(target, [&](Object *) {
        weak_was_cleared = weak->ref(0) == nullptr;
    });
    runtime_->collect();
    EXPECT_TRUE(weak_was_cleared)
        << "weak edges clear before finalization (Java ordering)";
}

TEST_F(FinalizerTest, WeakRefReachedOnlyByRevivalDoesNotDangle)
{
    // f -> w ~> t, all unreachable, only f finalizable. Reviving f
    // marks w but not t, which the sweep reclaims, so w's weak edge
    // must be cleared as well.
    TypeId weak_type = runtime_->types()
                           .define("WeakRef")
                           .refs({"referent"})
                           .weak()
                           .build();
    Object *f = node(1);
    Object *w = runtime_->allocRaw(weak_type);
    Object *t = node(2);
    f->setRef(0, w);
    w->setRef(0, t);
    Object *referent_at_finalize = t;
    runtime_->setFinalizer(f, [&](Object *o) {
        referent_at_finalize = o->ref(0)->ref(0);
    });
    runtime_->collect();
    EXPECT_FALSE(alive(t));
    EXPECT_EQ(referent_at_finalize, nullptr);
}

TEST_F(FinalizerTest, AssertDeadOnFinalizableObject)
{
    // assert-dead is not falsely triggered by the resurrection trace
    // (the object is not *reachable*, just deferred); if the
    // finalizer permanently resurrects it, the next collection
    // reports it.
    Handle graveyard(*runtime_, runtime_->allocArrayRaw(arrayType_, 1),
                     "graveyard");
    Object *obj = node(1);
    runtime_->setFinalizer(obj, [&](Object *o) {
        graveyard->setRef(0, o);
    });
    runtime_->assertDead(obj);
    runtime_->collect();
    EXPECT_TRUE(violations().empty())
        << "finalization deferral is not a reachability violation";
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u)
        << "the resurrected object is genuinely reachable now";
    EXPECT_EQ(violations()[0].kind, AssertionKind::Dead);
}

TEST_F(FinalizerTest, RevivalReachingAnotherFinalizableMarksItOnce)
{
    // a -> b -> c, all unreachable, a and b finalizable. Reviving a
    // marks b and c, so b's own revival must neither count b again
    // nor rescan it: a rescan would take c's one incoming reference
    // for a second one.
    int runs = 0;
    Object *a = node(1);
    Object *b = node(2);
    Object *c = node(3);
    a->setRef(0, b);
    b->setRef(0, c);
    runtime_->setFinalizer(a, [&](Object *) { ++runs; });
    runtime_->setFinalizer(b, [&](Object *) { ++runs; });
    runtime_->assertUnshared(c);
    CollectionResult result = runtime_->collect();
    EXPECT_EQ(result.marked, 3u);
    EXPECT_TRUE(violations().empty());
    EXPECT_EQ(runs, 2);
}

TEST_F(FinalizerTest, ManyFinalizablesInOneCollection)
{
    int runs = 0;
    for (int i = 0; i < 500; ++i)
        runtime_->setFinalizer(node(static_cast<uint64_t>(i)),
                               [&](Object *) { ++runs; });
    runtime_->collect();
    EXPECT_EQ(runs, 500);
    runtime_->collect();
    EXPECT_EQ(liveCount(nodeType_), 0u);
}

TEST_F(FinalizerTest, NullObjectIsFatal)
{
    EXPECT_THROW(runtime_->setFinalizer(nullptr, [](Object *) {}),
                 FatalError);
}

} // namespace
} // namespace gcassert
