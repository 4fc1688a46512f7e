/**
 * @file
 * Tests for the always-on why-alive backgraph (detectors/backgraph):
 * rootward paths at any time, in-degree saturation into pseudo-roots,
 * dead-edge pruning through both sweeps, allocation-site tagging,
 * growing-leak and find-leak trend reports, verdict-neutrality
 * differentials (100 seeds, on/off, plain + generational), and the
 * end-to-end server leak hunt with *no* armed
 * assertion regions.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "detectors/backgraph.h"
#include "differential.h"
#include "runtime/runtime.h"
#include "support/logging.h"
#include "test_util.h"
#include "workloads/server.h"

namespace gcassert {
namespace {

using difftest::DiffOutcome;

RuntimeConfig
backgraphConfig(uint32_t cap = 8, uint32_t window = 3)
{
    RuntimeConfig config;
    config.heap.budgetBytes = testutil::kTestHeapBytes;
    config.backgraph = true;
    config.backgraphInDegreeCap = cap;
    config.backgraphWindow = window;
    return config;
}

class BackgraphTest : public testutil::RuntimeTest {
  protected:
    BackgraphTest() : RuntimeTest(backgraphConfig()) {}
};

/** Standalone runtime + Node type for tests needing custom knobs. */
struct BgRig {
    Runtime rt;
    TypeId nodeType;

    explicit BgRig(const RuntimeConfig &config)
        : rt(config),
          nodeType(rt.types()
                       .define("Node")
                       .refs({"left", "right"})
                       .scalars(8)
                       .build())
    {
    }

    Object *
    node(uint64_t tag = 0)
    {
        Object *obj = rt.allocRaw(nodeType);
        obj->setScalar<uint64_t>(0, tag);
        return obj;
    }
};

TEST_F(BackgraphTest, WhyAliveWalksToTheRootAtAnyTime)
{
    Handle root = rootedNode(1, "bg-root");
    Object *mid = node(2);
    Object *leaf = node(3);
    root->setRef(0, mid);
    mid->setRef(0, leaf);

    // No collection needed: the barrier feed keeps the graph current.
    WhyAliveReport why = runtime_->whyAlive(leaf);
    ASSERT_TRUE(why.known);
    EXPECT_TRUE(why.rootReached);
    EXPECT_FALSE(why.saturated);
    ASSERT_EQ(why.path.size(), 3u);
    EXPECT_EQ(why.path.front().address, root.get());
    EXPECT_EQ(why.path.back().address, leaf);
    for (const PathEntry &hop : why.path)
        EXPECT_EQ(hop.typeName, "Node");
}

TEST_F(BackgraphTest, WhyAliveTracksRetargetedSlots)
{
    Handle a = rootedNode(1, "bg-a");
    Handle b = rootedNode(2, "bg-b");
    Object *leaf = node(3);
    a->setRef(0, leaf);
    ASSERT_EQ(runtime_->whyAlive(leaf).path.front().address, a.get());

    // Moving the only reference must move the rootward path with it:
    // the old backward edge is removed when the slot is overwritten.
    a->setRef(0, nullptr);
    b->setRef(0, leaf);
    WhyAliveReport why = runtime_->whyAlive(leaf);
    ASSERT_TRUE(why.known && why.rootReached);
    ASSERT_EQ(why.path.size(), 2u);
    EXPECT_EQ(why.path.front().address, b.get());
}

TEST_F(BackgraphTest, WhyAliveOffRuntimeReturnsUnknown)
{
    // Pin the knob off: this test runs under CI legs that arm the
    // backgraph for the whole suite via GCASSERT_BACKGRAPH=1.
    RuntimeConfig off = RuntimeTest::defaultConfig();
    off.backgraph = false;
    Runtime plain(off);
    TypeId t = plain.types().define("N").refs({"r"}).build();
    Object *obj = plain.allocRaw(t);
    EXPECT_EQ(plain.backgraph(), nullptr);
    EXPECT_FALSE(plain.whyAlive(obj).known);
    EXPECT_EQ(plain.allocSite("nope"), 0u);
}

TEST(BackgraphSaturation, CapExceededBecomesPseudoRoot)
{
    CaptureLogSink capture;
    BgRig fx(backgraphConfig(/*cap=*/2));

    Handle hub(fx.rt, fx.node(0), "bg-hub");
    Object *popular = fx.node(9);
    // Three referrers against a cap of two: the third record drops
    // the predecessor list and marks the node saturated.
    Object *p1 = fx.node(1);
    Object *p2 = fx.node(2);
    Object *p3 = fx.node(3);
    hub->setRef(0, p1);
    p1->setRef(1, p2);
    p2->setRef(1, p3);
    p1->setRef(0, popular);
    p2->setRef(0, popular);
    EXPECT_EQ(fx.rt.backgraph()->saturatedCount(), 0u);
    p3->setRef(0, popular);
    EXPECT_EQ(fx.rt.backgraph()->saturatedCount(), 1u);

    WhyAliveReport why = fx.rt.whyAlive(popular);
    ASSERT_TRUE(why.known);
    EXPECT_TRUE(why.rootReached);
    EXPECT_TRUE(why.saturated);
    // The saturated node is itself the rootward endpoint.
    ASSERT_EQ(why.path.size(), 1u);
    EXPECT_EQ(why.path.front().address, popular);
}

TEST_F(BackgraphTest, SweepPrunesDeadEdgesAndNodes)
{
    Handle root = rootedNode(1, "bg-root");
    Object *kept = node(2);
    root->setRef(0, kept);
    {
        Handle doomed = rootedNode(3, "bg-doomed");
        doomed->setRef(0, kept);
        EXPECT_EQ(runtime_->backgraph()->edgeCount(), 2u);
    }
    uint64_t nodes_before = runtime_->backgraph()->nodeCount();
    runtime_->collect();

    // The dying referrer's node and its edge into the survivor are
    // both gone; the survivor's path now has a single explanation.
    EXPECT_LT(runtime_->backgraph()->nodeCount(), nodes_before);
    EXPECT_EQ(runtime_->backgraph()->edgeCount(), 1u);
    EXPECT_GT(runtime_->backgraph()->prunedEdges(), 0u);
    WhyAliveReport why = runtime_->whyAlive(kept);
    ASSERT_TRUE(why.known && why.rootReached);
    ASSERT_EQ(why.path.size(), 2u);
    EXPECT_EQ(why.path.front().address, root.get());
}

TEST_F(BackgraphTest, AllocationSitesNameAndHash)
{
    uint32_t a = runtime_->allocSite("workload.list");
    uint32_t b = runtime_->allocSite("workload.cache");
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
    // Re-registration is idempotent.
    EXPECT_EQ(runtime_->allocSite("workload.list"), a);
    EXPECT_EQ(runtime_->backgraph()->siteName(a), "workload.list");
    EXPECT_EQ(runtime_->backgraph()->siteName(0), "?");

    // Hashed return-address sites: deterministic, never 0, disjoint
    // from the registered-id space, stable rendering.
    int anchor1 = 0, anchor2 = 0;
    uint32_t h1 = Backgraph::siteFromAddress(&anchor1);
    uint32_t h2 = Backgraph::siteFromAddress(&anchor2);
    EXPECT_EQ(h1, Backgraph::siteFromAddress(&anchor1));
    EXPECT_NE(h1, 0u);
    EXPECT_NE(h1, h2);
    EXPECT_NE(h1 & 0x80000000u, 0u);
    EXPECT_EQ(runtime_->backgraph()->siteName(h1).rfind("site-0x", 0),
              0u);
}

TEST(BackgraphTrends, GrowingListIsReportedWithItsSite)
{
    CaptureLogSink capture;
    BgRig fx(backgraphConfig(8, /*window=*/2));

    uint32_t site = fx.rt.allocSite("test.leaky.list");
    Handle head(fx.rt, fx.node(0), "bg-list");
    Object *tail = head.get();
    // Grow the rooted list by a few hops between consecutive full
    // GCs: both the site's max root-path height and its survivor
    // count rise strictly every sample, so after the two-collection
    // window both trend detectors must name the site.
    for (uint64_t round = 0; round < 4; ++round) {
        for (int i = 0; i < 3; ++i) {
            Object *next = fx.rt.allocRaw(fx.nodeType, nullptr, site);
            tail->setRef(0, next);
            tail = next;
        }
        fx.rt.collect();
    }

    std::vector<Violation> reports;
    for (const Violation &v : fx.rt.violations())
        if (v.kind == AssertionKind::LeakGrowth)
            reports.push_back(v);
    ASSERT_FALSE(reports.empty());
    bool growth = false, findleak = false;
    for (const Violation &v : reports) {
        EXPECT_EQ(v.offendingType, "test.leaky.list");
        EXPECT_NE(v.message.find("test.leaky.list"), std::string::npos);
        EXPECT_GT(v.gcNumber, 0u);
        if (v.message.rfind("growing-leak:", 0) == 0)
            growth = true;
        if (v.message.rfind("find-leak:", 0) == 0)
            findleak = true;
    }
    EXPECT_TRUE(growth);
    EXPECT_TRUE(findleak);
    EXPECT_GT(fx.rt.backgraph()->growthReports(), 0u);
    EXPECT_GT(fx.rt.backgraph()->findLeakReports(), 0u);
}

TEST(BackgraphTrends, BoundedStructureStaysSilent)
{
    CaptureLogSink capture;
    BgRig fx(backgraphConfig(8, /*window=*/2));

    uint32_t site = fx.rt.allocSite("test.bounded.ring");
    Handle head(fx.rt, fx.node(0), "bg-ring");
    // A bounded structure: each round *replaces* the rooted chain
    // with a fresh one of the same depth, so neither height nor
    // survivor count ever rises two samples in a row.
    for (uint64_t round = 0; round < 5; ++round) {
        Object *tail = head.get();
        head->setRef(0, nullptr);
        for (int i = 0; i < 4; ++i) {
            Object *next = fx.rt.allocRaw(fx.nodeType, nullptr, site);
            tail->setRef(0, next);
            tail = next;
        }
        fx.rt.collect();
    }
    for (const Violation &v : fx.rt.violations())
        EXPECT_NE(v.kind, AssertionKind::LeakGrowth)
            << "bounded structure reported: " << v.message;
}

TEST_F(BackgraphTest, ViolationProvenanceCarriesWhyAlive)
{
    // An assert-dead violation on a still-reachable object must be
    // enriched with the backgraph's rootward path even though no
    // telemetry sink is configured.
    Handle root = rootedNode(1, "bg-prov-root");
    Object *pinned = node(2);
    root->setRef(0, pinned);
    runtime_->assertDead(pinned);
    runtime_->collect();

    auto dead = violationsOf(AssertionKind::Dead);
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_NE(dead[0].provenanceJson.find("whyAlive"), std::string::npos)
        << dead[0].provenanceJson;
    EXPECT_NE(dead[0].provenanceJson.find("rootReached"),
              std::string::npos);
}

// ---------------------------------------------------------------
// Verdict neutrality: backgraph on vs off over the rooted-contract
// scenario must leave verdicts, messages, freed sets, finalizer
// order and GC tallies bit-identical — in plain and generational
// collector modes.
// ---------------------------------------------------------------

DiffOutcome
runNeutralityScenario(const RuntimeConfig &config, uint64_t seed)
{
    difftest::ScenarioOptions opt;
    opt.includeMessages = true;
    // Context-only reports are the detector's *output* and naturally
    // differ on/off; everything else must match byte for byte.
    opt.ignoreKinds = {AssertionKind::PauseSlo, AssertionKind::LeakGrowth,
                       AssertionKind::Staleness,
                       AssertionKind::TypeGrowth};
    return difftest::runRootedScenario(config, seed, opt);
}

void
runOnOffDifferential(const char *mode,
                     void (*apply)(RuntimeConfig &))
{
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        RuntimeConfig off;
        off.heap.budgetBytes = testutil::kTestHeapBytes;
        off.backgraph = false;
        apply(off);
        RuntimeConfig on = off;
        on.backgraph = true;
        on.backgraphInDegreeCap = (seed % 2) ? 8 : 2;
        on.backgraphWindow = 2;
        DiffOutcome base = runNeutralityScenario(off, seed);
        DiffOutcome traced = runNeutralityScenario(on, seed);
        ASSERT_TRUE(difftest::equivalent(traced, base))
            << mode << " divergence at seed " << seed
            << " cap " << on.backgraphInDegreeCap
            << "\n--- off ---\n"
            << difftest::describe(base) << "--- on ---\n"
            << difftest::describe(traced);
    }
}

TEST(BackgraphDifferential, PlainOnOff100Seeds)
{
    CaptureLogSink capture;
    runOnOffDifferential("plain", [](RuntimeConfig &) {});
}

TEST(BackgraphDifferential, GenerationalOnOff100Seeds)
{
    CaptureLogSink capture;
    runOnOffDifferential("generational", [](RuntimeConfig &c) {
        c.generational = true;
        c.nurseryKb = 64;
    });
}

// ---------------------------------------------------------------
// End to end: the server workload leaks on a schedule and the
// backgraph names the leaking allocation site without a single
// armed assertion region; clean traffic stays silent.
// ---------------------------------------------------------------

RuntimeConfig
serverBackgraphConfig(const Workload &workload)
{
    RuntimeConfig config = RuntimeConfig::infra(4 * workload.minHeapBytes());
    config.backgraph = true;
    config.backgraphWindow = 3;
    return config;
}

TEST(BackgraphServer, LeakHuntNamesTheSiteWithoutArmedRegions)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 2;
    options.requestsPerThread = 150;
    options.leakEveryN = 50;
    auto server = makeServerWithOptions(options);
    Runtime rt(serverBackgraphConfig(*server));
    server->setup(rt);
    // Deliberately NOT calling enableAssertions(): no regions are
    // armed, so the trend detector is the only thing watching.
    for (int round = 0; round < 5; ++round) {
        server->iterate(rt);
        rt.collect();
    }
    EXPECT_GT(server->leaksInjected(), 0u);

    bool named = false;
    for (const Violation &v : rt.violations()) {
        ASSERT_TRUE(assertionKindContextOnly(v.kind))
            << "verdict without an armed region: " << v.message;
        if (v.kind == AssertionKind::LeakGrowth &&
            v.message.find("srv.request.node") != std::string::npos)
            named = true;
    }
    EXPECT_TRUE(named)
        << "no LeakGrowth report names srv.request.node across "
        << rt.violations().size() << " reports";
    server->teardown(rt);
}

TEST(BackgraphServer, CleanTrafficRaisesNoLeakReports)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 2;
    options.requestsPerThread = 150;
    options.leakEveryN = 0;
    auto server = makeServerWithOptions(options);
    Runtime rt(serverBackgraphConfig(*server));
    server->setup(rt);
    for (int round = 0; round < 5; ++round) {
        server->iterate(rt);
        rt.collect();
    }
    for (const Violation &v : rt.violations())
        EXPECT_NE(v.kind, AssertionKind::LeakGrowth)
            << "clean run reported: " << v.message;
    server->teardown(rt);
}

} // namespace
} // namespace gcassert
