/**
 * @file
 * Unit tests for the write-barrier + remembered-set subsystem: source
 * and latch bookkeeping, barrier filtering, minor-collection
 * reclamation and pinning, and the heap verifier's remset-invariant
 * check (which must catch a barrier bypass).
 */

#include <gtest/gtest.h>

#include "gc/remset.h"
#include "heap/verifier.h"
#include "runtime/runtime.h"
#include "support/logging.h"

namespace gcassert {
namespace {

RuntimeConfig
generationalConfig(uint32_t nursery_kb = 1u << 20)
{
    RuntimeConfig config;
    config.infrastructure = true;
    config.recordPaths = false;
    config.generational = true;
    // Huge default nursery: tests trigger minors explicitly.
    config.nurseryKb = nursery_kb;
    return config;
}

class RemsetTest : public ::testing::Test {
  protected:
    RemsetTest() : rt_(generationalConfig())
    {
        node_ = rt_.types()
                    .define("Node")
                    .refs({"a", "b"})
                    .scalars(8)
                    .build();
    }

    /** Allocate a rooted node and age it into the mature space. */
    Object *
    matureNode(const char *name)
    {
        roots_.emplace_back(rt_, rt_.allocRaw(node_), name);
        rt_.collect(); // full-GC prologue promotes the whole nursery
        return roots_.back().get();
    }

    CaptureLogSink capture_;
    Runtime rt_;
    TypeId node_ = kInvalidTypeId;
    std::vector<Handle> roots_;
};

// ---------------------------------------------------------------------
// RememberedSet bookkeeping
// ---------------------------------------------------------------------

TEST_F(RemsetTest, RecordIsIdempotentPerSource)
{
    Object *src = matureNode("src");
    RememberedSet set;
    EXPECT_TRUE(set.record(src));
    EXPECT_TRUE(src->testFlag(kRememberedBit));
    EXPECT_FALSE(set.record(src));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_EQ(set.totalRecords(), 2u);
    EXPECT_TRUE(set.contains(src));
    set.clear();
}

TEST_F(RemsetTest, RecordCoversEverySlotOfTheSource)
{
    // The latch suppresses the slow path for later writes from the
    // same source, so recording the source must cover its whole slot
    // array: the minor GC rescans every slot of a member.
    Object *src = matureNode("src");
    Object *first = rt_.allocRaw(node_);
    rt_.writeRef(src, 0, first);
    ASSERT_TRUE(rt_.remset().contains(src));
    ASSERT_TRUE(src->testFlag(kRememberedBit));
    uint64_t records = rt_.remset().totalRecords();

    // Latched: a write to the other slot stays on the fast path.
    Object *second = rt_.allocRaw(node_);
    rt_.writeRef(src, 1, second);
    EXPECT_EQ(rt_.remset().totalRecords(), records);
    EXPECT_EQ(rt_.remset().size(), 1u);

    // Both nursery objects are reachable only through the source.
    MinorCollectionResult result = rt_.collectMinor();
    EXPECT_EQ(result.remsetSources, 1u);
    EXPECT_EQ(result.promoted, 2u);
    EXPECT_EQ(result.freedObjects, 0u);
    EXPECT_FALSE(second->testFlag(kNurseryBit));
}

TEST_F(RemsetTest, ClearDropsEntriesAndLatches)
{
    Object *src = matureNode("src");
    RememberedSet set;
    set.record(src);
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    EXPECT_FALSE(set.contains(src));
    EXPECT_FALSE(src->testFlag(kRememberedBit));
    // A fresh record works again after the clear.
    EXPECT_TRUE(set.record(src));
    set.clear();
}

// ---------------------------------------------------------------------
// Barrier filtering
// ---------------------------------------------------------------------

TEST_F(RemsetTest, MatureToNurseryWriteIsRecorded)
{
    Object *mature = matureNode("mature");
    ASSERT_FALSE(mature->testFlag(kNurseryBit));
    Object *young = rt_.allocRaw(node_);
    ASSERT_TRUE(young->testFlag(kNurseryBit));

    rt_.writeRef(mature, 0, young);
    EXPECT_TRUE(rt_.remset().contains(mature));
    EXPECT_TRUE(mature->testFlag(kRememberedBit));

    // The latch keeps the second write out of the set.
    rt_.writeRef(mature, 1, young);
    EXPECT_EQ(rt_.remset().size(), 1u);
}

TEST_F(RemsetTest, NurseryToNurseryWriteIsFiltered)
{
    Handle a(rt_, rt_.allocRaw(node_), "a");
    Object *b = rt_.allocRaw(node_);
    rt_.writeRef(a.get(), 0, b);
    EXPECT_EQ(rt_.remset().size(), 0u);
}

TEST_F(RemsetTest, RawSetRefAlsoFiresTheBarrier)
{
    // The barrier hooks Object::setRef itself, so embedder code that
    // bypasses Runtime::writeRef stays sound in generational mode.
    Object *mature = matureNode("mature");
    Object *young = rt_.allocRaw(node_);
    mature->setRef(0, young);
    EXPECT_TRUE(rt_.remset().contains(mature));
}

TEST_F(RemsetTest, NullAndMatureTargetsAreFiltered)
{
    Object *mature = matureNode("mature");
    Object *other = matureNode("other");
    rt_.writeRef(mature, 0, nullptr);
    rt_.writeRef(mature, 1, other);
    EXPECT_EQ(rt_.remset().size(), 0u);
}

// ---------------------------------------------------------------------
// Minor collection
// ---------------------------------------------------------------------

TEST_F(RemsetTest, MinorCollectionFreesDeadAndKeepsRemembered)
{
    Object *mature = matureNode("mature");
    Object *kept = rt_.allocRaw(node_);
    rt_.writeRef(mature, 0, kept); // reachable only through remset
    Object *dead = rt_.allocRaw(node_);
    (void)dead;

    uint64_t full_gcs = rt_.collections();
    MinorCollectionResult result = rt_.collectMinor();
    EXPECT_EQ(rt_.collections(), full_gcs); // no full GC ran

    EXPECT_EQ(result.remsetSources, 1u);
    EXPECT_EQ(result.freedObjects, 1u);
    EXPECT_EQ(result.promoted, 1u);

    // The survivor was promoted in place; the nursery is empty and
    // the remembered set has been reset for the next cycle.
    EXPECT_TRUE(rt_.heap().contains(kept));
    EXPECT_FALSE(kept->testFlag(kNurseryBit));
    EXPECT_EQ(rt_.heap().nurseryCount(), 0u);
    EXPECT_EQ(rt_.heap().nurseryBytes(), 0u);
    EXPECT_EQ(rt_.remset().size(), 0u);
    EXPECT_FALSE(mature->testFlag(kRememberedBit));
}

TEST_F(RemsetTest, MinorCollectionKeepsRootedSurvivors)
{
    Handle survivor(rt_, rt_.allocRaw(node_), "survivor");
    rt_.collectMinor();
    EXPECT_TRUE(rt_.heap().contains(survivor.get()));
    EXPECT_FALSE(survivor->testFlag(kNurseryBit));
    EXPECT_EQ(rt_.gcStats().minorCollections, 1u);
    EXPECT_EQ(rt_.gcStats().nurseryPromoted, 1u);
}

TEST_F(RemsetTest, MinorCollectionPinsFinalizables)
{
    // Finalizers are a full-GC-only mechanism: a minor collection
    // must neither free a finalizable object nor run its finalizer.
    int runs = 0;
    Object *obj = rt_.allocRaw(node_);
    rt_.setFinalizer(obj, [&](Object *) { ++runs; });
    rt_.collectMinor();
    EXPECT_TRUE(rt_.heap().contains(obj));
    EXPECT_EQ(runs, 0);
    rt_.collect(); // found unreachable: finalizer runs, object stays
    EXPECT_EQ(runs, 1);
    rt_.collect(); // not resurrected: now swept
    EXPECT_FALSE(rt_.heap().contains(obj));
}

TEST_F(RemsetTest, NurseryThresholdTriggersMinorNotFull)
{
    RuntimeConfig config = generationalConfig(/*nursery_kb=*/16);
    Runtime rt(config);
    TypeId node =
        rt.types().define("TNode").refs({"next"}).scalars(8).build();
    Handle keep(rt, rt.allocRaw(node), "keep");
    for (int i = 0; i < 4000; ++i)
        rt.allocRaw(node); // unrooted garbage
    EXPECT_GT(rt.gcStats().minorCollections, 0u);
    EXPECT_EQ(rt.collections(), 0u);
    EXPECT_TRUE(rt.heap().contains(keep.get()));
}

TEST_F(RemsetTest, FullCollectionPromotesWholesaleAndClearsRemset)
{
    Object *mature = matureNode("mature");
    Object *young = rt_.allocRaw(node_);
    rt_.writeRef(mature, 0, young);
    ASSERT_EQ(rt_.remset().size(), 1u);
    rt_.collect();
    EXPECT_EQ(rt_.remset().size(), 0u);
    EXPECT_EQ(rt_.heap().nurseryCount(), 0u);
    EXPECT_FALSE(young->testFlag(kNurseryBit));
    EXPECT_GT(rt_.gcStats().nurseryPromotedAtFullGc, 0u);
}

// ---------------------------------------------------------------------
// Verifier remset invariant
// ---------------------------------------------------------------------

TEST_F(RemsetTest, VerifierCatchesBarrierBypass)
{
    Object *mature = matureNode("mature");
    Object *young = rt_.allocRaw(node_);
    Handle keep(rt_, young, "keep");

    // Bypass both writeRef and setRef: poke the slot directly, as a
    // corrupting embedder (or a missed barrier hook) would.
    *mature->refSlotAddr(0) = young;

    HeapVerifier verifier(rt_);
    std::vector<VerifierIssue> issues = verifier.verify();
    ASSERT_FALSE(issues.empty());
    bool found = false;
    for (const VerifierIssue &issue : issues)
        if (issue.what.find("mature->nursery") != std::string::npos)
            found = true;
    EXPECT_TRUE(found) << "first issue: " << issues[0].what;

    // The same edge written through the barrier verifies clean.
    *mature->refSlotAddr(0) = nullptr;
    rt_.writeRef(mature, 0, young);
    EXPECT_TRUE(verifier.verify().empty());
}

TEST_F(RemsetTest, VerifierCleanAfterMinorAndFullCollections)
{
    Object *mature = matureNode("mature");
    rt_.writeRef(mature, 0, rt_.allocRaw(node_));
    rt_.collectMinor();
    HeapVerifier verifier(rt_);
    EXPECT_TRUE(verifier.verify().empty());
    rt_.writeRef(mature, 1, rt_.allocRaw(node_));
    rt_.collect();
    EXPECT_TRUE(verifier.verify().empty());
}

} // namespace
} // namespace gcassert
