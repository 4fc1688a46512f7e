/**
 * @file
 * Server-workload scaling bench: requests/s and GC pause percentiles
 * for the heavy-traffic request/response simulation, armed (one
 * assert-alldead region per request) vs disarmed, across mutator
 * thread counts and collector configurations (plain, generational,
 * parallel mark/sweep, all-on).
 *
 * Not a figure from the paper — the paper's workloads are single-
 * threaded — but the natural scaling successor to the jbbemu
 * benchmark: it answers "what does arming a region assertion on
 * every request cost under real concurrent traffic?" in requests/s
 * and pause-time terms. A final leak-mode run doubles as an
 * end-to-end detection check: every injected leak must surface as
 * exactly one alldead violation.
 *
 * Knobs: GCASSERT_BENCH_SERVER_REQUESTS (requests per thread per
 * point, default 30000 so the 4-thread points exercise >= 120k
 * request cycles), GCASSERT_BENCH_JSON (ledger path override).
 *
 * Exit status 1 when a tripwire fails: lost requests, spurious
 * verdicts in a clean run, missed or phantom leak detections, or
 * (at the default request count) fewer than 100k armed request
 * cycles at 4 threads.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "runtime/runtime.h"
#include "support/json.h"
#include "support/logging.h"
#include "workloads/server.h"

using namespace gcassert;
using namespace gcassert::bench;

namespace {

uint64_t
envOr(const char *name, uint64_t fallback)
{
    const char *value = std::getenv(name);
    return value ? std::strtoull(value, nullptr, 10) : fallback;
}

struct ConfigPoint {
    const char *name;
    void (*apply)(RuntimeConfig &);
};

const ConfigPoint kConfigs[] = {
    {"plain", [](RuntimeConfig &) {}},
    {"generational",
     [](RuntimeConfig &c) {
         c.generational = true;
         c.nurseryKb = 256;
     }},
    {"parallel",
     [](RuntimeConfig &c) {
         c.markThreads = 4;
         c.sweepThreads = 2;
         c.recordPaths = false;
     }},
    {"all-on",
     [](RuntimeConfig &c) {
         c.generational = true;
         c.nurseryKb = 256;
         c.markThreads = 4;
         c.sweepThreads = 2;
         c.recordPaths = false;
         c.tlab = true;
         c.lazySweep = true;
     }},
};

struct Measurement {
    uint32_t threads = 0;
    std::string config;
    bool armed = false;
    uint64_t requests = 0;
    double seconds = 0.0;
    double requestsPerSec = 0.0;
    uint64_t latencyP50 = 0;
    uint64_t latencyP99 = 0;
    uint64_t pauseP50 = 0;
    uint64_t pauseP99 = 0;
    uint64_t pauseMax = 0;
    uint64_t fullGcs = 0;
    uint64_t verdicts = 0;
};

uint64_t
verdictCount(const Runtime &rt)
{
    uint64_t n = 0;
    for (const Violation &v : rt.violations())
        if (!assertionKindContextOnly(v.kind))
            ++n;
    return n;
}

Measurement
measure(uint32_t threads, const ConfigPoint &cfg, bool armed,
        uint32_t requests_per_thread)
{
    ServerOptions options;
    options.threads = threads;
    options.requestsPerThread = requests_per_thread;
    options.leakEveryN = 0;
    auto server = makeServerWithOptions(options);

    RuntimeConfig config =
        RuntimeConfig::infra(2 * server->minHeapBytes());
    config.observe = ObserveConfig{};
    config.observe.traceFile.clear();
    config.observe.metricsSink.clear();
    // Arm telemetry (for the pause histograms) without per-GC census
    // work or an SLO budget.
    config.observe.censusEvery = 1000000;
    config.observe.pauseBudgetNanos = 0;
    cfg.apply(config);

    Runtime rt(config);
    server->setup(rt);
    if (armed)
        server->enableAssertions(rt);
    server->iterate(rt);
    rt.collect();

    Measurement m;
    m.threads = threads;
    m.config = cfg.name;
    m.armed = armed;
    m.requests = server->requestsCompleted();
    m.seconds = server->busySeconds();
    m.requestsPerSec =
        m.seconds > 0.0 ? static_cast<double>(m.requests) / m.seconds
                        : 0.0;
    PauseHistogram latency = server->latencySnapshot();
    m.latencyP50 = latency.percentile(50.0);
    m.latencyP99 = latency.percentile(99.0);
    const PauseHistogram &pauses = rt.telemetry()->pauseSlo().full();
    m.pauseP50 = pauses.percentile(50.0);
    m.pauseP99 = pauses.percentile(99.0);
    m.pauseMax = pauses.max();
    m.fullGcs = rt.collections();
    m.verdicts = verdictCount(rt);
    server->teardown(rt);
    return m;
}

} // namespace

int
main()
{
    CaptureLogSink quiet;
    printHeader("Server scaling",
                "requests/s and GC pauses, per-request alldead regions "
                "armed vs disarmed, across mutator threads and "
                "collector configs",
                "n/a (scaling extension; supersedes jbbemu as the "
                "scaling benchmark)");

    const uint64_t default_requests = 30000;
    const uint32_t requests_per_thread = static_cast<uint32_t>(
        envOr("GCASSERT_BENCH_SERVER_REQUESTS", default_requests));
    const bool full_size = requests_per_thread >= default_requests;
    const unsigned cores = std::thread::hardware_concurrency();
    std::fprintf(stderr,
                 "  requests/thread: %u, host cores: %u\n",
                 requests_per_thread, cores);

    std::vector<Measurement> points;
    bool failed = false;
    for (uint32_t threads : {1u, 2u, 4u}) {
        for (const ConfigPoint &cfg : kConfigs) {
            for (bool armed : {false, true}) {
                Measurement m = measure(threads, cfg, armed,
                                        requests_per_thread);
                points.push_back(m);
                uint64_t expected =
                    uint64_t{threads} * requests_per_thread;
                if (m.requests != expected) {
                    std::fprintf(stderr,
                                 "  ERROR: %s/%u/%s lost requests "
                                 "(%llu of %llu)\n",
                                 cfg.name, threads,
                                 armed ? "armed" : "disarmed",
                                 static_cast<unsigned long long>(
                                     m.requests),
                                 static_cast<unsigned long long>(
                                     expected));
                    failed = true;
                }
                if (m.verdicts != 0) {
                    std::fprintf(stderr,
                                 "  ERROR: clean %s/%u/%s run reported "
                                 "%llu verdicts\n",
                                 cfg.name, threads,
                                 armed ? "armed" : "disarmed",
                                 static_cast<unsigned long long>(
                                     m.verdicts));
                    failed = true;
                }
            }
        }
    }

    std::printf("\n  threads  config        armed  req/s      p99 lat us"
                "  gc p99 us  gcs\n");
    std::printf("  -------  ------------  -----  ---------  ----------"
                "  ---------  ---\n");
    for (const Measurement &m : points)
        std::printf("  %7u  %-12s  %5s  %9.0f  %10.1f  %9.1f  %3llu\n",
                    m.threads, m.config.c_str(),
                    m.armed ? "yes" : "no", m.requestsPerSec,
                    static_cast<double>(m.latencyP99) / 1e3,
                    static_cast<double>(m.pauseP99) / 1e3,
                    static_cast<unsigned long long>(m.fullGcs));

    // Tripwire: the shipped configuration must sustain >= 100k armed
    // request cycles across >= 4 mutator threads.
    if (full_size) {
        for (const Measurement &m : points)
            if (m.threads >= 4 && m.armed && m.requests < 100000) {
                std::fprintf(stderr,
                             "  ERROR: armed 4-thread point served "
                             "only %llu cycles (< 100k)\n",
                             static_cast<unsigned long long>(
                                 m.requests));
                failed = true;
            }
    }

    // Leak-mode validation: every injected leak must be caught and
    // attributed by the following collection.
    uint64_t leak_injected = 0, leak_caught = 0;
    {
        ServerOptions options;
        options.threads = 4;
        options.requestsPerThread =
            requests_per_thread < 5000 ? requests_per_thread : 5000;
        options.leakEveryN = 500;
        auto server = makeServerWithOptions(options);
        Runtime rt(RuntimeConfig::infra(2 * server->minHeapBytes()));
        server->setup(rt);
        server->enableAssertions(rt);
        server->iterate(rt);
        rt.collect();
        leak_injected = server->leaksInjected();
        for (const Violation &v : rt.violations())
            if (v.kind == AssertionKind::AllDead)
                ++leak_caught;
        server->teardown(rt);
    }
    std::printf("\n  leak mode: injected %llu, caught %llu\n",
                static_cast<unsigned long long>(leak_injected),
                static_cast<unsigned long long>(leak_caught));
    if (leak_injected == 0 || leak_caught != leak_injected) {
        std::fprintf(stderr,
                     "  ERROR: leak detection mismatch (injected %llu, "
                     "caught %llu)\n",
                     static_cast<unsigned long long>(leak_injected),
                     static_cast<unsigned long long>(leak_caught));
        failed = true;
    }

    JsonWriter w;
    w.beginObject()
        .field("bench", "server")
        .field("requestsPerThread", uint64_t{requests_per_thread})
        .field("hostCores", uint64_t{cores})
        .key("points")
        .beginArray();
    for (const Measurement &m : points) {
        w.beginObject()
            .field("threads", m.threads)
            .field("config", m.config)
            .field("armed", m.armed)
            .field("requests", m.requests)
            .field("seconds", m.seconds)
            .field("requestsPerSec", m.requestsPerSec)
            .field("latencyP50Nanos", m.latencyP50)
            .field("latencyP99Nanos", m.latencyP99)
            .field("gcPauseP50Nanos", m.pauseP50)
            .field("gcPauseP99Nanos", m.pauseP99)
            .field("gcPauseMaxNanos", m.pauseMax)
            .field("fullGcs", m.fullGcs)
            .field("verdicts", m.verdicts)
            .endObject();
    }
    w.endArray()
        .key("leakMode")
        .beginObject()
        .field("injected", leak_injected)
        .field("caught", leak_caught)
        .endObject()
        .endObject();
    emitBenchJson(w.str(), "BENCH_server.json");

    return failed ? 1 : 0;
}
