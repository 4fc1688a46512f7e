/**
 * @file
 * Sequential-vs-parallel differential harness for the mark phase.
 *
 * The strongest statement one can make about the parallel marker is
 * that it is *observationally identical* to the sequential trace: for
 * the same heap program, every thread count must produce the same
 * mark count, the same sweep count, the same per-type instance
 * tallies, the same ownee-check count, and the same multiset of
 * assertion violations. The harness builds randomized heap programs
 * (graphs with shared subtrees and cycles, weak references, rooted
 * and garbage regions, plus a spread of assert-dead / assert-unshared
 * / assert-ownedby / assert-instances / assert-alldead seedings) from
 * a deterministic seed, runs one runtime per thread count, and
 * compares the outcomes over 100+ seeds, with the default reactions,
 * with ForceTrue, and with sticky dead assertions.
 *
 * Addresses differ between runtimes, so outcomes are compared via
 * address-free keys (violation kind + offending type + message +
 * gc number). With path recording off, violation records carry no
 * path, making them byte-comparable across thread counts.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "differential.h"
#include "runtime/runtime.h"
#include "support/logging.h"
#include "support/rng.h"

namespace gcassert {
namespace {

using difftest::DiffOutcome;

/**
 * Run the seed-determined heap program on a fresh runtime with the
 * given marker-thread count and summarize what the GC observed.
 *
 * Every random draw is keyed off indices (never addresses), so two
 * runs with the same seed build isomorphic heaps and issue identical
 * assertion sequences regardless of where objects land.
 */
/** Reaction settings a differential configuration arms. */
struct Reactions {
    /** ForceTrue on every forcible kind (dead, alldead). */
    bool forceTrue = false;
    /** EngineOptions::stickyDeadAssertions. */
    bool sticky = false;
};

DiffOutcome
runScenario(uint32_t mark_threads, uint64_t seed, Reactions reactions = {})
{
    RuntimeConfig config;
    config.generational = false; // harness holds unrooted raw pointers
    config.infrastructure = true;
    config.recordPaths = false;
    config.markThreads = mark_threads;
    config.engine.stickyDeadAssertions = reactions.sticky;
    Runtime rt(config);
    if (reactions.forceTrue)
        rt.engine().reactions().setAll(Reaction::ForceTrue);

    TypeId node_type = rt.types()
                           .define("Node")
                           .refs({"left", "right"})
                           .scalars(8)
                           .build();
    TypeId array_type = rt.types().define("Array").array().build();
    TypeId weak_type = rt.types()
                           .define("WeakRef")
                           .refs({"referent", "strong"})
                           .weak()
                           .build();

    Rng rng(seed);

    // --- Build the object population -------------------------------
    const size_t num_nodes = rng.range(300, 900);
    const size_t num_arrays = rng.range(3, 10);
    const size_t num_weaks = rng.range(5, 20);

    std::vector<Object *> objs;
    for (size_t i = 0; i < num_nodes; ++i)
        objs.push_back(rt.allocRaw(node_type));
    std::vector<uint32_t> array_lens;
    for (size_t i = 0; i < num_arrays; ++i) {
        array_lens.push_back(static_cast<uint32_t>(rng.range(1, 24)));
        objs.push_back(rt.allocArrayRaw(array_type, array_lens.back()));
    }
    for (size_t i = 0; i < num_weaks; ++i)
        objs.push_back(rt.allocRaw(weak_type));

    // --- Wire edges (shared subtrees and cycles arise naturally) ---
    auto random_obj = [&]() { return objs[rng.below(objs.size())]; };
    for (size_t i = 0; i < num_nodes; ++i) {
        if (rng.chance(0.75))
            objs[i]->setRef(0, random_obj());
        if (rng.chance(0.60))
            objs[i]->setRef(1, random_obj());
    }
    for (size_t i = 0; i < num_arrays; ++i) {
        Object *arr = objs[num_nodes + i];
        for (uint32_t slot = 0; slot < array_lens[i]; ++slot)
            if (rng.chance(0.5))
                arr->setRef(slot, random_obj());
    }
    for (size_t i = 0; i < num_weaks; ++i) {
        Object *weak = objs[num_nodes + num_arrays + i];
        if (rng.chance(0.8))
            weak->setRef(0, random_obj()); // weak edge
        if (rng.chance(0.5))
            weak->setRef(1, random_obj()); // strong edge
    }

    // --- Roots -----------------------------------------------------
    std::vector<Handle> roots;
    roots.emplace_back(rt, objs[0], "anchor");
    for (size_t i = 1; i < objs.size(); ++i)
        if (rng.chance(0.06))
            roots.emplace_back(rt, objs[i], "root");

    // --- Assertions ------------------------------------------------
    for (size_t i = 0, n = num_nodes / 25; i < n; ++i)
        rt.assertUnshared(objs[rng.below(objs.size())]);
    for (size_t i = 0, n = num_nodes / 25; i < n; ++i)
        rt.assertDead(objs[rng.below(objs.size())]);
    for (size_t i = 0, n = rng.range(0, 5); i < n; ++i) {
        Object *owner = random_obj();
        Object *ownee = random_obj();
        if (owner != ownee)
            rt.assertOwnedBy(owner, ownee);
    }
    if (rng.chance(0.7))
        rt.assertInstances(node_type, rng.range(num_nodes / 4, num_nodes));
    if (rng.chance(0.5))
        rt.assertVolume(node_type, rng.range(1, 64) * 1024);

    // A region whose allocations partly escape into the live graph:
    // the escapees violate assert-alldead, the rest satisfy it.
    if (rng.chance(0.6)) {
        rt.startRegion();
        for (size_t i = 0, n = rng.range(4, 24); i < n; ++i) {
            Object *obj = rt.allocRaw(node_type);
            if (rng.chance(0.35))
                random_obj()->setRef(rng.below(2), obj);
        }
        rt.assertAllDead();
    }

    // --- Collect twice: fresh heap, then a mutated one -------------
    rt.collect();
    for (size_t i = 1; i < roots.size(); i += 2)
        roots[i].reset();
    for (size_t i = 0, n = num_nodes / 40; i < n; ++i)
        rt.assertDead(objs[rng.below(num_nodes)]);
    rt.collect();

    // --- Summarize -------------------------------------------------
    DiffOutcome out;
    difftest::ScenarioOptions opt;
    opt.includeMessages = true; // recordPaths off: byte-comparable
    difftest::summarize(rt, opt, out);
    return out;
}

/** Compare 2/4/8 markers against one over @p seeds seeds. */
void
expectMatchesSequential(uint64_t seeds, Reactions reactions = {})
{
    CaptureLogSink capture; // violation warnings stay off stderr
    const uint32_t thread_counts[] = {2, 4, 8};
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
        DiffOutcome sequential = runScenario(1, seed, reactions);
        for (uint32_t threads : thread_counts) {
            DiffOutcome parallel = runScenario(threads, seed, reactions);
            ASSERT_TRUE(difftest::equivalent(parallel, sequential))
                << "divergence at seed " << seed << " with " << threads
                << " marker threads\n--- sequential ---\n"
                << difftest::describe(sequential)
                << "--- parallel ---\n"
                << difftest::describe(parallel);
        }
    }
}

TEST(ParallelMarkDifferential, MatchesSequentialAcrossSeedsAndThreads)
{
    expectMatchesSequential(104);
}

TEST(ParallelMarkDifferential, ForceTrueMatchesSequential)
{
    // ForceTrue nulls every traversed edge into a forced object, in
    // root slots and in scanned objects alike, so the heap left for
    // the second collection must not depend on the marker count.
    expectMatchesSequential(104, Reactions{.forceTrue = true});
}

TEST(ParallelMarkDifferential, StickyDeadAssertionsMatchSequential)
{
    expectMatchesSequential(104, Reactions{.sticky = true});
}

TEST(ParallelMarkTest, LifetimeAssertionStaysArmedUntilItsOwnVerdict)
{
    // An ownee that is also asserted dead. GC 1 reaches it only
    // around its owner: the ownedby verdict takes the object's one
    // report of the GC, so the dead assertion must stay armed. GC 2
    // reaches it only through its owner, and the ownership phase
    // reports it dead. No marker count may lose the second verdict.
    CaptureLogSink capture;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        RuntimeConfig config;
        config.generational = false; // raw pointer held across GCs
        config.recordPaths = false;
        config.markThreads = threads;
        Runtime rt(config);
        TypeId node = rt.types().define("Node").refs({"next"}).build();
        Handle owner(rt, rt.allocRaw(node), "owner");
        Handle other(rt, rt.allocRaw(node), "other");
        Object *ownee = rt.allocRaw(node);
        other->setRef(0, ownee);
        rt.assertOwnedBy(owner.get(), ownee);
        rt.assertDead(ownee);
        rt.collect();
        other->setRef(0, nullptr);
        owner->setRef(0, ownee);
        rt.collect();

        const ViolationLog &v = rt.violations();
        ASSERT_EQ(v.size(), 2u) << "threads=" << threads;
        EXPECT_EQ(v[0].kind, AssertionKind::OwnedBy) << "threads=" << threads;
        EXPECT_EQ(v[0].gcNumber, 1u) << "threads=" << threads;
        EXPECT_EQ(v[1].kind, AssertionKind::Dead) << "threads=" << threads;
        EXPECT_EQ(v[1].gcNumber, 2u) << "threads=" << threads;
    }
}

TEST(ParallelMarkTest, ParallelPhaseIsRecordedInStats)
{
    CaptureLogSink capture;
    RuntimeConfig config;
    config.generational = false; // harness holds unrooted raw pointers
    config.recordPaths = false;
    config.markThreads = 4;
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle root(rt, rt.allocRaw(node), "root");
    rt.collect();
    EXPECT_EQ(rt.gcStats().parallelMarkPhases, 1u);
    EXPECT_EQ(rt.gcStats().pathDowngrades, 0u);
}

TEST(ParallelMarkTest, SingleThreadKeepsSequentialTrace)
{
    CaptureLogSink capture;
    RuntimeConfig config;
    config.generational = false; // harness holds unrooted raw pointers
    config.recordPaths = false;
    config.markThreads = 1;
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle root(rt, rt.allocRaw(node), "root");
    rt.collect();
    EXPECT_EQ(rt.gcStats().parallelMarkPhases, 0u);
}

TEST(ParallelMarkTest, PathRecordingForcesSequentialDowngrade)
{
    CaptureLogSink capture;
    RuntimeConfig config;
    config.generational = false; // harness holds unrooted raw pointers
    config.recordPaths = true; // incompatible with parallel marking
    config.markThreads = 4;
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();

    Handle root(rt, rt.allocRaw(node), "root");
    Object *kept = rt.allocRaw(node);
    root->setRef(0, kept);
    rt.assertDead(kept);
    rt.collect();

    EXPECT_EQ(rt.gcStats().parallelMarkPhases, 0u);
    EXPECT_EQ(rt.gcStats().pathDowngrades, 1u);
    EXPECT_TRUE(capture.contains("path recording"));

    // The downgrade must preserve full-path reports.
    ASSERT_EQ(rt.violations().size(), 1u);
    EXPECT_EQ(rt.violations()[0].kind, AssertionKind::Dead);
    EXPECT_FALSE(rt.violations()[0].path.empty());

    // The warning is emitted once, not per collection.
    capture.clear();
    rt.collect();
    EXPECT_EQ(rt.gcStats().pathDowngrades, 2u);
    EXPECT_FALSE(capture.contains("path recording"));
}

TEST(ParallelMarkTest, DeepListDoesNotOverflowOrDiverge)
{
    // A 50k-deep singly linked list: the sequential collector uses an
    // explicit worklist, the parallel one its deques; both must mark
    // the whole chain (no recursion, no lost segments).
    CaptureLogSink capture;
    for (uint32_t threads : {1u, 4u}) {
        RuntimeConfig config;
    config.generational = false; // harness holds unrooted raw pointers
        config.recordPaths = false;
        config.markThreads = threads;
        Runtime rt(config);
        TypeId node = rt.types().define("Node").refs({"next"}).build();

        Handle head(rt, rt.allocRaw(node), "head");
        Object *tail = head.get();
        constexpr int kDepth = 50000;
        for (int i = 0; i < kDepth; ++i) {
            Object *next = rt.allocRaw(node);
            tail->setRef(0, next);
            tail = next;
        }
        CollectionResult result = rt.collect();
        EXPECT_EQ(result.marked, static_cast<uint64_t>(kDepth) + 1)
            << "threads=" << threads;
        EXPECT_EQ(result.sweep.freedObjects, 0u) << "threads=" << threads;
    }
}

TEST(ParallelMarkTest, MoreThreadsThanWork)
{
    // 8 workers, 2 objects: most workers find nothing to steal and
    // must still terminate promptly and correctly.
    CaptureLogSink capture;
    RuntimeConfig config;
    config.generational = false; // harness holds unrooted raw pointers
    config.recordPaths = false;
    config.markThreads = 8;
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle root(rt, rt.allocRaw(node), "root");
    root->setRef(0, rt.allocRaw(node));
    rt.allocRaw(node); // garbage
    CollectionResult result = rt.collect();
    EXPECT_EQ(result.marked, 2u);
    EXPECT_EQ(result.sweep.freedObjects, 1u);
}

TEST(ParallelMarkTest, EmptyRootSetTerminates)
{
    CaptureLogSink capture;
    RuntimeConfig config;
    config.generational = false; // harness holds unrooted raw pointers
    config.recordPaths = false;
    config.markThreads = 4;
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    rt.allocRaw(node); // garbage, no roots at all
    CollectionResult result = rt.collect();
    EXPECT_EQ(result.marked, 0u);
    EXPECT_EQ(result.sweep.freedObjects, 1u);
}

} // namespace
} // namespace gcassert
