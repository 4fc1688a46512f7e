/**
 * @file
 * Live telemetry endpoint tests: route schemas over a real loopback
 * socket, snapshot-history/seq agreement with the teardown metrics
 * document, published why-alive answers for named allocation sites,
 * violation-ring bounding, the metrics atomic-rename sink, and the
 * on/off differential (plain, generational) proving an
 * armed endpoint is observationally inert.
 *
 * Every HTTP-level test uses the in-tree httpGet client against a
 * server bound to an ephemeral port (kAutoLivePort), so the suite
 * needs no free fixed port and can run in parallel with itself.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "differential.h"
#include "observe/live_server.h"
#include "observe/telemetry.h"
#include "runtime/runtime.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/net.h"

namespace gcassert {
namespace {

using difftest::DiffOutcome;

/** Parse @p doc or fail the test; returns the root value. */
JsonValue
mustParse(const std::string &doc)
{
    JsonValue root;
    std::string error;
    EXPECT_TRUE(jsonParse(doc, root, &error))
        << error << "\nin document: " << doc;
    return root;
}

/** GET @p target from the runtime's live endpoint or fail. */
std::string
mustGet(const Runtime &rt, const std::string &target,
        int expected_status = 200)
{
    EXPECT_NE(rt.livePort(), 0) << "endpoint not armed";
    std::string body, error;
    int status = 0;
    EXPECT_TRUE(httpGet(rt.livePort(), target, body, &status, &error))
        << target << ": " << error;
    EXPECT_EQ(status, expected_status) << target << " -> " << body;
    return body;
}

RuntimeConfig
armedConfig()
{
    RuntimeConfig config;
    config.infrastructure = true;
    config.recordPaths = false;
    config.tlab = false;
    config.observe = ObserveConfig{};
    config.observe.traceFile.clear();
    config.observe.metricsSink.clear();
    config.observe.censusEvery = 1;
    config.observe.livePort = kAutoLivePort;
    return config;
}

TEST(LiveServer, ServesRoutesAsValidJson)
{
    CaptureLogSink capture;
    Runtime rt(armedConfig());
    ASSERT_NE(rt.livePort(), 0);

    TypeId t = rt.types().define("T").refs({"next"}).scalars(16).build();
    Handle keep(rt, rt.allocRaw(t), "keep");
    for (int i = 0; i < 100; ++i)
        rt.allocRaw(t);
    rt.collect();

    // /metrics: the published snapshot carries seq/gc plus the same
    // counters/gauges split as the teardown document.
    JsonValue metrics = mustParse(mustGet(rt, "/metrics"));
    ASSERT_TRUE(metrics.isObject());
    const JsonValue *seq = metrics.find("seq");
    ASSERT_NE(seq, nullptr);
    EXPECT_GE(seq->number, 1.0);
    const JsonValue *gauges = metrics.find("gauges");
    ASSERT_NE(gauges, nullptr);
    const JsonValue *collections = gauges->find("gc.collections");
    ASSERT_NE(collections, nullptr);
    EXPECT_EQ(collections->number,
              static_cast<double>(rt.gcStats().collections));
    // The pause percentiles ride along in the same gauge namespace.
    EXPECT_NE(gauges->find("gc.pause.full.p50_nanos"), nullptr);

    // /series: ring with one snapshot per full GC so far.
    JsonValue series = mustParse(mustGet(rt, "/series"));
    const JsonValue *snaps = series.find("snapshots");
    ASSERT_NE(snaps, nullptr);
    ASSERT_TRUE(snaps->isArray());
    EXPECT_EQ(snaps->array.size(), rt.gcStats().collections);
    EXPECT_NE(series.find("capacity"), nullptr);
    EXPECT_NE(series.find("dropped"), nullptr);

    // /census: the census-every-1 cadence produced rows.
    JsonValue census = mustParse(mustGet(rt, "/census"));
    EXPECT_NE(census.find("rows"), nullptr);

    // /violations: empty but well-formed.
    JsonValue violations = mustParse(mustGet(rt, "/violations"));
    const JsonValue *list = violations.find("violations");
    ASSERT_NE(list, nullptr);
    EXPECT_TRUE(list->array.empty());

    // Index and error routes.
    JsonValue index = mustParse(mustGet(rt, "/"));
    EXPECT_NE(index.find("routes"), nullptr);
    JsonValue missing = mustParse(mustGet(rt, "/nope", 404));
    EXPECT_NE(missing.find("error"), nullptr);
}

TEST(LiveServer, SeriesGrowsAndSeqMatchesTeardownSnapshot)
{
    CaptureLogSink capture;
    std::string sink =
        ::testing::TempDir() + "gcassert_live_teardown_metrics.json";
    std::remove(sink.c_str());

    uint64_t last_seq = 0;
    {
        RuntimeConfig config = armedConfig();
        config.observe.metricsSink = sink;
        Runtime rt(config);
        TypeId t = rt.types().define("T").refs({}).scalars(16).build();
        for (int round = 0; round < 3; ++round) {
            for (int i = 0; i < 50; ++i)
                rt.allocRaw(t);
            rt.collect();
            // The endpoint sees a strictly growing series mid-run.
            JsonValue series = mustParse(mustGet(rt, "/series"));
            EXPECT_EQ(series.find("snapshots")->array.size(),
                      static_cast<size_t>(round + 1));
        }
        // Mid-run publish outside the GC epilogue (the server
        // workload's publishEvery path uses the same entry point).
        rt.publishTelemetry();
        JsonValue metrics = mustParse(mustGet(rt, "/metrics"));
        last_seq = static_cast<uint64_t>(metrics.find("seq")->number);
        EXPECT_EQ(last_seq, 4u); // 3 GC publishes + 1 explicit
    }

    // Teardown publishes no new snapshot; the persisted document
    // names the exact sequence number the endpoint last served.
    FILE *f = std::fopen(sink.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string doc;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        doc.append(buf, n);
    std::fclose(f);
    std::remove(sink.c_str());

    JsonValue parsed = mustParse(doc);
    const JsonValue *seq = parsed.find("seq");
    ASSERT_NE(seq, nullptr);
    EXPECT_EQ(static_cast<uint64_t>(seq->number), last_seq);
}

TEST(LiveServer, HistoryRingDropsOldestBeyondCapacity)
{
    CaptureLogSink capture;
    RuntimeConfig config = armedConfig();
    config.observe.liveHistory = 2;
    Runtime rt(config);
    TypeId t = rt.types().define("T").refs({}).scalars(16).build();
    for (int round = 0; round < 5; ++round) {
        rt.allocRaw(t);
        rt.collect();
    }
    JsonValue series = mustParse(mustGet(rt, "/series"));
    EXPECT_EQ(series.find("snapshots")->array.size(), 2u);
    EXPECT_EQ(series.find("dropped")->number, 3.0);
    // The retained tail is the *newest* two publishes.
    const JsonValue &tail = series.find("snapshots")->array.back();
    EXPECT_EQ(tail.find("seq")->number, 5.0);
}

TEST(LiveServer, WhyAliveAnswersPublishedNamedSite)
{
    CaptureLogSink capture;
    RuntimeConfig config = armedConfig();
    config.backgraph = true;
    Runtime rt(config);

    TypeId holder =
        rt.types().define("Holder").refs({"kept"}).scalars(8).build();
    TypeId leaf = rt.types().define("Leaf").refs({}).scalars(8).build();
    uint32_t site = rt.allocSite("test.leaf_site");
    ASSERT_NE(site, 0u);

    Handle root(rt, rt.allocRaw(holder), "root");
    Object *kept = rt.allocRaw(leaf, nullptr, site);
    rt.writeRef(root.get(), 0, kept);
    rt.collect();

    JsonValue record =
        mustParse(mustGet(rt, "/why_alive?site=test.leaf_site"));
    EXPECT_EQ(record.find("site")->string, "test.leaf_site");
    EXPECT_TRUE(record.find("known")->boolean);
    EXPECT_TRUE(record.find("rootReached")->boolean);
    const JsonValue *path = record.find("path");
    ASSERT_NE(path, nullptr);
    ASSERT_TRUE(path->isArray());
    ASSERT_FALSE(path->array.empty());
    // Rootmost-first: the holder precedes the queried leaf.
    EXPECT_EQ(path->array.back().string, "Leaf");

    // Missing parameter: 400 with the published-site index.
    JsonValue missing = mustParse(mustGet(rt, "/why_alive", 400));
    const JsonValue *sites = missing.find("sites");
    ASSERT_NE(sites, nullptr);
    bool listed = false;
    for (const JsonValue &name : sites->array)
        listed |= name.string == "test.leaf_site";
    EXPECT_TRUE(listed);

    // Unknown site: 404 with known:false.
    JsonValue unknown =
        mustParse(mustGet(rt, "/why_alive?site=no.such.site", 404));
    EXPECT_FALSE(unknown.find("known")->boolean);
}

TEST(LiveServer, ViolationRingBoundsAndCountsDrops)
{
    CaptureLogSink capture;
    RuntimeConfig config = armedConfig();
    config.observe.violationRingCap = 4;
    Runtime rt(config);
    TypeId t = rt.types().define("Zombie").refs({}).scalars(8).build();

    std::vector<Handle> keep;
    for (int i = 0; i < 10; ++i)
        keep.emplace_back(rt, rt.allocRaw(t), "z");
    for (Handle &h : keep)
        rt.assertDead(h.get());
    rt.collect();

    // The engine's verdict record stays complete and unbounded...
    EXPECT_EQ(rt.violations().size(), 10u);
    // ...while the endpoint's ring kept the newest 4 of 10.
    ASSERT_NE(rt.telemetry(), nullptr);
    const ViolationRing &ring = rt.telemetry()->violationRing();
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pushed(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);

    JsonValue doc = mustParse(mustGet(rt, "/violations"));
    EXPECT_EQ(doc.find("capacity")->number, 4.0);
    EXPECT_EQ(doc.find("dropped")->number, 6.0);
    EXPECT_EQ(doc.find("total")->number, 10.0);
    const JsonValue *list = doc.find("violations");
    ASSERT_EQ(list->array.size(), 4u);
    for (const JsonValue &v : list->array)
        EXPECT_EQ(v.find("kind")->string, "assert-dead");

    // The drop count is also a gauge in the published snapshot.
    JsonValue metrics = mustParse(mustGet(rt, "/metrics"));
    const JsonValue *droppedGauge =
        metrics.find("gauges")->find("observe.violations_dropped");
    ASSERT_NE(droppedGauge, nullptr);
    EXPECT_EQ(droppedGauge->number, 6.0);
}

TEST(LiveServer, BindFailureFallsBackToNoEndpoint)
{
    CaptureLogSink capture;
    // Occupy a port, then ask the runtime for exactly that port: the
    // bind fails and the runtime must run fine without the endpoint.
    TcpListener squatter;
    ASSERT_TRUE(squatter.listenLoopback(0));
    RuntimeConfig config = armedConfig();
    config.observe.livePort = squatter.port();
    Runtime rt(config);
    EXPECT_EQ(rt.livePort(), 0);
    TypeId t = rt.types().define("T").refs({}).build();
    rt.allocRaw(t);
    rt.collect();
    EXPECT_TRUE(capture.contains("cannot bind"));
}

// ---------------------------------------------------------------------
// Satellite: metrics file sink is written via atomic rename
// ---------------------------------------------------------------------

TEST(MetricsSink, FileSinkIsAtomicallyRenamedIntoPlace)
{
    CaptureLogSink capture;
    std::string path =
        ::testing::TempDir() + "gcassert_metrics_atomic.json";
    std::string tmp = path + ".tmp";
    std::remove(path.c_str());
    std::remove(tmp.c_str());

    MetricsRegistry m;
    m.counter("unit.events")->add(3);
    ASSERT_TRUE(m.publish(path, /*seq=*/7));

    // The final document is in place and the temporary is gone.
    FILE *left = std::fopen(tmp.c_str(), "rb");
    EXPECT_EQ(left, nullptr);
    if (left)
        std::fclose(left);

    FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string doc;
    char buf[1024];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        doc.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    JsonValue parsed = mustParse(doc);
    EXPECT_EQ(parsed.find("seq")->number, 7.0);
    EXPECT_EQ(parsed.find("counters")->find("unit.events")->number, 3.0);
}

TEST(MetricsSink, UnwritablePathWarnsAndReturnsFalse)
{
    CaptureLogSink capture;
    MetricsRegistry m;
    m.counter("unit.events")->increment();
    EXPECT_FALSE(m.publish("/nonexistent-dir/metrics.json"));
    EXPECT_GE(capture.countAt(LogLevel::Warn), 1u);
}

// ---------------------------------------------------------------------
// Time-based trace flushing (the live endpoint's trace cadence)
// ---------------------------------------------------------------------

TEST(TraceFlush, PeriodicFlushHonorsInterval)
{
    std::string path =
        ::testing::TempDir() + "gcassert_periodic_trace.json";
    std::remove(path.c_str());
    TraceRecorder rec(path);
    const uint64_t interval = 10ull * 1000000000; // 10 s
    rec.setFlushIntervalNanos(interval);
    rec.instant("tick", "t", 10);
    // Not elapsed yet relative to construction: no flush.
    EXPECT_FALSE(rec.maybePeriodicFlush(traceNowNanos()));
    // Past the interval: flush fires and resets the clock.
    EXPECT_TRUE(rec.maybePeriodicFlush(traceNowNanos() + interval + 1));
    EXPECT_EQ(rec.flushedCount(), 1u);
    // The flush reset the clock to the current wall time, so a
    // near-now recheck is below the interval again.
    EXPECT_FALSE(rec.maybePeriodicFlush(traceNowNanos() + 1000000));
    std::remove(path.c_str());
}

TEST(TraceFlush, ZeroIntervalNeverPeriodicallyFlushes)
{
    TraceRecorder rec("");
    rec.instant("tick", "t", 10);
    EXPECT_FALSE(rec.maybePeriodicFlush(traceNowNanos() + 1000000000));
}

// ---------------------------------------------------------------------
// On/off differential: an armed endpoint is observationally inert
// ---------------------------------------------------------------------

DiffOutcome
runScenario(bool live, uint64_t seed, bool generational)
{
    RuntimeConfig config;
    config.infrastructure = true;
    config.recordPaths = false;
    config.tlab = false;
    config.generational = generational;
    config.nurseryKb = 32;
    config.observe = ObserveConfig{};
    config.observe.traceFile.clear();
    config.observe.metricsSink.clear();
    config.observe.censusEvery = 0;
    config.observe.livePort = live ? kAutoLivePort : 0;
    return difftest::runRootedScenario(config, seed);
}

TEST(LiveServerDifferential, MatchesUnarmedAcross100Seeds)
{
    CaptureLogSink capture;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        DiffOutcome off = runScenario(false, seed, false);
        DiffOutcome on = runScenario(true, seed, false);
        ASSERT_TRUE(difftest::equivalent(on, off))
            << "live-endpoint divergence at seed " << seed
            << "\n--- off ---\n" << difftest::describe(off)
            << "--- on ---\n" << difftest::describe(on);
    }
}

TEST(LiveServerDifferential, MatchesUnarmedUnderGenerationalMode)
{
    CaptureLogSink capture;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        DiffOutcome off = runScenario(false, seed, true);
        DiffOutcome on = runScenario(true, seed, true);
        ASSERT_TRUE(difftest::equivalent(on, off))
            << "live-endpoint divergence (generational) at seed "
            << seed << "\n--- off ---\n" << difftest::describe(off)
            << "--- on ---\n" << difftest::describe(on);
    }
}

} // namespace
} // namespace gcassert
