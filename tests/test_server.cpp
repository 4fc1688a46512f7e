/**
 * @file
 * Tests for the server workload: per-request assert-alldead regions
 * under real concurrent traffic, injected-leak detection with
 * request attribution, clean runs across the knob matrix, shutdown
 * drain, and the request metrics surface.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.h"
#include "support/logging.h"
#include "workloads/server.h"

namespace gcassert {
namespace {

RuntimeConfig
infraFor(const Workload &workload)
{
    return RuntimeConfig::infra(2 * workload.minHeapBytes());
}

uint64_t
allDeadCount(const Runtime &rt)
{
    uint64_t n = 0;
    for (const Violation &v : rt.violations())
        if (v.kind == AssertionKind::AllDead)
            ++n;
    return n;
}

/** Violations excluding context-only reports — a CI leg may arm a
 *  global pause budget or the backgraph, whose reports are not
 *  assertion verdicts. */
uint64_t
verdictCount(const Runtime &rt)
{
    uint64_t n = 0;
    for (const Violation &v : rt.violations())
        if (!assertionKindContextOnly(v.kind))
            ++n;
    return n;
}

const Violation *
firstAllDead(const Runtime &rt)
{
    for (const Violation &v : rt.violations())
        if (v.kind == AssertionKind::AllDead)
            return &v;
    return nullptr;
}

TEST(Server, CleanArmedRunHasZeroViolations)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 4;
    options.requestsPerThread = 1000;
    auto server = makeServerWithOptions(options);
    Runtime rt(infraFor(*server));
    server->setup(rt);
    server->enableAssertions(rt);
    server->iterate(rt);
    rt.collect();
    EXPECT_EQ(server->requestsCompleted(), 4u * 1000u);
    EXPECT_EQ(verdictCount(rt), 0u);
    EXPECT_EQ(server->leaksInjected(), 0u);
    server->teardown(rt);
}

TEST(Server, InjectedLeaksAreCaughtByTheNextGc)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 4;
    options.requestsPerThread = 500;
    options.leakEveryN = 100;
    auto server = makeServerWithOptions(options);
    Runtime rt(infraFor(*server));
    server->setup(rt);
    server->enableAssertions(rt);
    server->iterate(rt);
    rt.collect();

    // Every injected leak — and nothing else — must surface as an
    // alldead violation by the collection after the injection.
    EXPECT_GT(server->leaksInjected(), 0u);
    EXPECT_EQ(allDeadCount(rt), server->leaksInjected());
    EXPECT_EQ(verdictCount(rt), server->leaksInjected());

    // ... and each violation names the leaking request's region.
    std::vector<std::string> labels = server->leakedLabels();
    EXPECT_EQ(labels.size(), server->leaksInjected());
    for (const std::string &label : labels) {
        bool named = false;
        for (const Violation &v : rt.violations())
            if (v.message.find("'" + label + "'") != std::string::npos) {
                named = true;
                break;
            }
        EXPECT_TRUE(named) << "no violation names region " << label;
    }
    server->teardown(rt);
}

TEST(Server, DisarmedRunReportsNothingEvenWithLeaks)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 2;
    options.requestsPerThread = 400;
    options.leakEveryN = 50;
    auto server = makeServerWithOptions(options);
    Runtime rt(infraFor(*server));
    server->setup(rt);
    // No enableAssertions(): leaks still happen, no regions armed.
    server->iterate(rt);
    rt.collect();
    EXPECT_GT(server->leaksInjected(), 0u);
    EXPECT_EQ(verdictCount(rt), 0u);
    server->teardown(rt);
}

TEST(Server, CleanRunZeroViolationsAcrossKnobCombos)
{
    CaptureLogSink capture;
    struct Combo {
        const char *name;
        void (*apply)(RuntimeConfig &);
    };
    const Combo combos[] = {
        {"baseline", [](RuntimeConfig &) {}},
        {"generational",
         [](RuntimeConfig &c) {
             c.generational = true;
             c.nurseryKb = 64;
         }},
        {"parallel",
         [](RuntimeConfig &c) {
             c.markThreads = 4;
             c.sweepThreads = 2;
             c.recordPaths = false;
         }},
        {"tlab+lazy",
         [](RuntimeConfig &c) {
             c.tlab = true;
             c.lazySweep = true;
         }},
        {"all-on",
         [](RuntimeConfig &c) {
             c.generational = true;
             c.nurseryKb = 64;
             c.markThreads = 4;
             c.sweepThreads = 2;
             c.recordPaths = false;
             c.tlab = true;
             c.lazySweep = true;
         }},
    };
    for (const Combo &combo : combos) {
        ServerOptions options;
        options.threads = 3;
        options.requestsPerThread = 400;
        auto server = makeServerWithOptions(options);
        RuntimeConfig config = infraFor(*server);
        combo.apply(config);
        Runtime rt(config);
        server->setup(rt);
        server->enableAssertions(rt);
        server->iterate(rt);
        rt.collect();
        EXPECT_EQ(server->requestsCompleted(), 3u * 400u)
            << "combo " << combo.name;
        EXPECT_EQ(verdictCount(rt), 0u) << "combo " << combo.name;
        server->teardown(rt);
    }
}

TEST(Server, LeakDetectionIsExactUnderConcurrentStressKnobs)
{
    // The concurrent-mutators stress shape: parallel marking and
    // sweeping, TLABs and lazy sweep all on while four threads churn
    // — with leaks injected, detection must still be exact.
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 4;
    options.requestsPerThread = 600;
    options.leakEveryN = 150;
    auto server = makeServerWithOptions(options);
    RuntimeConfig config = infraFor(*server);
    config.markThreads = 4;
    config.sweepThreads = 2;
    config.recordPaths = false;
    config.tlab = true;
    config.lazySweep = true;
    Runtime rt(config);
    server->setup(rt);
    server->enableAssertions(rt);
    server->iterate(rt);
    rt.collect();
    EXPECT_GT(server->leaksInjected(), 0u);
    EXPECT_EQ(allDeadCount(rt), server->leaksInjected());
    server->teardown(rt);
}

TEST(Server, ShutdownDrainJoinsInFlightRequestsCleanly)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 4;
    options.requestsPerThread = 1000000; // would run ~forever
    auto server = makeServerWithOptions(options);
    Runtime rt(infraFor(*server));
    server->setup(rt);
    server->enableAssertions(rt);

    std::thread driver([&] { server->iterate(rt); });
    while (server->requestsCompleted() < 1000)
        std::this_thread::yield();
    server->requestStop();
    driver.join();

    // Drained: every in-flight request finished and closed its
    // region; nothing ran to completion.
    EXPECT_GE(server->requestsCompleted(), 1000u);
    EXPECT_LT(server->requestsCompleted(), 4ull * 1000000ull);
    EXPECT_FALSE(rt.mainMutatorInRegionOrAny());
    rt.collect();
    EXPECT_EQ(verdictCount(rt), 0u);
    server->clearStop();
    server->teardown(rt);
}

TEST(Server, RegionLabelNamesTheRequestInTheViolation)
{
    // Direct unit for the labeled-region mechanism the server rides
    // on: a labeled region whose object escapes must produce an
    // alldead violation quoting the label.
    CaptureLogSink capture;
    RuntimeConfig config = RuntimeConfig::infra(8 * 1024 * 1024);
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle keeper(rt, rt.allocRaw(node), "keeper");

    rt.startRegion(nullptr, "req-test-7");
    Object *escapee = rt.allocRaw(node);
    Handle pin(rt, escapee, "pin");
    rt.writeRef(keeper.get(), 0, escapee);
    pin.reset();
    rt.assertAllDead();
    rt.collect();

    ASSERT_EQ(verdictCount(rt), 1u);
    const Violation *v = firstAllDead(rt);
    ASSERT_NE(v, nullptr);
    EXPECT_NE(v->message.find("'req-test-7'"), std::string::npos)
        << v->message;
}

TEST(Server, UnlabeledRegionMessageIsUnchanged)
{
    // The label is strictly additive: an unlabeled region violation
    // must keep the historical message (differential suites compare
    // messages byte-for-byte across configurations).
    CaptureLogSink capture;
    Runtime rt(RuntimeConfig::infra(8 * 1024 * 1024));
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle keeper(rt, rt.allocRaw(node), "keeper");

    rt.startRegion();
    Object *escapee = rt.allocRaw(node);
    Handle pin(rt, escapee, "pin");
    rt.writeRef(keeper.get(), 0, escapee);
    pin.reset();
    rt.assertAllDead();
    rt.collect();

    ASSERT_EQ(verdictCount(rt), 1u);
    const Violation *v = firstAllDead(rt);
    ASSERT_NE(v, nullptr);
    EXPECT_NE(v->message.find("an object allocated in an "
                              "assert-alldead region is reachable"),
              std::string::npos)
        << v->message;
}

TEST(Server, RequestMetricsGaugesAreRegistered)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 2;
    options.requestsPerThread = 300;
    auto server = makeServerWithOptions(options);
    RuntimeConfig config = infraFor(*server);
    config.observe.censusEvery = 1; // any observe knob arms telemetry
    Runtime rt(config);
    ASSERT_NE(rt.telemetry(), nullptr);
    server->setup(rt);
    server->enableAssertions(rt);
    server->iterate(rt);

    uint64_t completed = 0, per_sec_seen = 0, p50 = 0;
    bool have_completed = false, have_per_sec = false, have_p50 = false;
    for (const MetricSample &sample :
         rt.telemetry()->metrics().snapshot()) {
        if (sample.name == "server.requests.completed") {
            have_completed = true;
            completed = sample.value;
        } else if (sample.name == "server.requests.per_sec") {
            have_per_sec = true;
            per_sec_seen = sample.value;
        } else if (sample.name == "server.request.latency.p50_nanos") {
            have_p50 = true;
            p50 = sample.value;
        }
    }
    EXPECT_TRUE(have_completed);
    EXPECT_TRUE(have_per_sec);
    EXPECT_TRUE(have_p50);
    EXPECT_EQ(completed, 2u * 300u);
    EXPECT_GT(per_sec_seen, 0u);
    EXPECT_GT(p50, 0u);

    PauseHistogram latency = server->latencySnapshot();
    EXPECT_EQ(latency.count(), 2u * 300u);
    EXPECT_GT(server->busySeconds(), 0.0);
    server->teardown(rt);
}

TEST(Server, WorkUnitsTrackRequests)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 2;
    options.requestsPerThread = 200;
    auto server = makeServerWithOptions(options);
    Runtime rt(infraFor(*server));
    server->setup(rt);
    server->iterate(rt);
    EXPECT_EQ(server->workUnitsCompleted(), server->requestsCompleted());
    EXPECT_EQ(server->workUnitsCompleted(), 2u * 200u);
    server->teardown(rt);
}

} // namespace
} // namespace gcassert
