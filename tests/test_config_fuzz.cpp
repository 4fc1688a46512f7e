/**
 * @file
 * Configuration fuzzer: random combinations of every observational-
 * equivalence knob at once, differentially against the sequential
 * baseline.
 *
 * Each optional feature ships with its own on/off differential
 * (parallel mark, parallel sweep, generational, telemetry, pause SLO,
 * backgraph, live endpoint); this suite covers their *interactions*. For each seed it
 * runs the shared rooted-contract scenario once on the plain
 * sequential configuration and then under 8 fuzzer-drawn combos of
 * {markThreads, sweepThreads, lazySweep, tlab, generational,
 * backgraph, observe knobs}; verdicts, freed multisets,
 * finalizer order and GC tallies must be bit-identical to the
 * baseline every time.
 *
 * The heap budget is large enough that no implicit collection fires,
 * so the full-GC cadence (and hence gcNumber keys) is identical
 * across allocator configurations; usedBytes is excluded from the
 * comparison because TLAB leases legally change block-level
 * placement.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "differential.h"
#include "runtime/runtime.h"
#include "support/logging.h"
#include "support/rng.h"
#include "workloads/server.h"

namespace gcassert {
namespace {

using difftest::DiffOutcome;

std::string
fuzzTracePath(uint64_t seed, uint64_t combo)
{
    return ::testing::TempDir() + "gcassert_fuzz_trace_" +
           std::to_string(seed) + "_" + std::to_string(combo) + ".json";
}

/** The plain sequential reference configuration. */
RuntimeConfig
baselineConfig()
{
    RuntimeConfig config;
    config.heap = HeapConfig{};
    config.infrastructure = true;
    config.recordPaths = false;
    config.markThreads = 1;
    config.sweepThreads = 1;
    config.lazySweep = false;
    config.tlab = false;
    config.generational = false;
    config.backgraph = false;
    config.observe = ObserveConfig{};
    config.observe.traceFile.clear();
    config.observe.metricsSink.clear();
    config.observe.censusEvery = 0;
    config.observe.pauseBudgetNanos = 0;
    config.observe.livePort = 0; // endpoint off unless a combo arms it
    return config;
}

/** Draw one random knob combination from @p rng. */
RuntimeConfig
fuzzConfig(Rng &rng, uint64_t seed, uint64_t combo)
{
    RuntimeConfig config = baselineConfig();
    const uint32_t mark_choices[] = {1, 2, 4, 8};
    const uint32_t sweep_choices[] = {1, 2, 4};
    config.markThreads = mark_choices[rng.below(4)];
    config.sweepThreads = sweep_choices[rng.below(3)];
    config.lazySweep = rng.chance(0.5);
    config.tlab = rng.chance(0.5);
    config.generational = rng.chance(0.5);
    config.nurseryKb = config.generational
                           ? static_cast<uint32_t>(rng.range(16, 64))
                           : config.nurseryKb;
    config.backgraph = rng.chance(0.5);
    if (config.backgraph) {
        const uint32_t cap_choices[] = {2, 4, 8};
        config.backgraphInDegreeCap = cap_choices[rng.below(3)];
        config.backgraphWindow =
            static_cast<uint32_t>(rng.range(2, 4));
    }
    if (rng.chance(0.3))
        config.observe.traceFile = fuzzTracePath(seed, combo);
    if (rng.chance(0.3))
        config.observe.censusEvery = 1;
    if (rng.chance(0.3))
        config.observe.pauseBudgetNanos = 1; // fires on every pause
    // The live endpoint must stay off (port 0) unless the fuzzer
    // arms it explicitly; an armed draw always uses the ephemeral
    // port so combos never fight over a fixed one.
    if (rng.chance(0.25)) {
        config.observe.livePort = kAutoLivePort;
        const uint32_t history_choices[] = {1, 2, 64};
        config.observe.liveHistory = history_choices[rng.below(3)];
        config.observe.violationRingCap =
            static_cast<uint32_t>(rng.range(1, 8));
    }
    return config;
}

std::string
describeConfig(const RuntimeConfig &c)
{
    return "mark=" + std::to_string(c.markThreads) +
           " sweep=" + std::to_string(c.sweepThreads) +
           " lazy=" + std::to_string(c.lazySweep) +
           " tlab=" + std::to_string(c.tlab) +
           " gen=" + std::to_string(c.generational) +
           " nurseryKb=" + std::to_string(c.nurseryKb) +
           " backgraph=" + std::to_string(c.backgraph) +
           " bgcap=" + std::to_string(c.backgraphInDegreeCap) +
           " bgwin=" + std::to_string(c.backgraphWindow) +
           " trace=" + std::to_string(!c.observe.traceFile.empty()) +
           " census=" + std::to_string(c.observe.censusEvery) +
           " slo=" + std::to_string(c.observe.pauseBudgetNanos) +
           " live=" + std::to_string(c.observe.livePort != 0) +
           " liveHist=" + std::to_string(c.observe.liveHistory) +
           " vring=" + std::to_string(c.observe.violationRingCap);
}

DiffOutcome
runScenario(const RuntimeConfig &config, uint64_t seed)
{
    difftest::ScenarioOptions opt;
    opt.includeMessages = true;
    // Context-only reports (pause SLO, backgraph leak trends) vary
    // with the knobs; every other verdict must still match byte for
    // byte.
    opt.ignoreKinds = {AssertionKind::PauseSlo, AssertionKind::LeakGrowth,
                       AssertionKind::Staleness,
                       AssertionKind::TypeGrowth};
    return difftest::runRootedScenario(config, seed, opt);
}

TEST(ConfigFuzz, ThreadedScenarioMatchesAcrossKnobCombos)
{
    // The multi-threaded differential layer: real mutator threads
    // make per-window data scheduler-dependent, so the comparison is
    // over whole-run aggregates (total freed multiset, violation
    // multiset, final live count) — which must still be identical
    // under every fuzzed knob combination.
    CaptureLogSink capture;
    const uint64_t kSeeds = 2;
    const uint64_t kCombos = 4;
    for (uint32_t threads : {2u, 4u}) {
        for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
            difftest::ThreadedOutcome baseline =
                difftest::runThreadedScenario(baselineConfig(), seed,
                                              threads);
            EXPECT_GT(baseline.freedTotal.size(), 0u);
            EXPECT_GT(baseline.violations.size(), 0u)
                << "scenario should escape-and-assert-dead";
            Rng knobs(0x7eaded + seed * 31 + threads);
            for (uint64_t combo = 0; combo < kCombos; ++combo) {
                RuntimeConfig config =
                    fuzzConfig(knobs, seed, 100 + combo);
                difftest::ThreadedOutcome out =
                    difftest::runThreadedScenario(config, seed,
                                                  threads);
                ASSERT_TRUE(difftest::equivalentThreaded(out, baseline))
                    << "threaded divergence at seed " << seed
                    << " threads " << threads << " combo " << combo
                    << " [" << describeConfig(config)
                    << "]\n--- baseline ---\n"
                    << difftest::describeThreaded(baseline)
                    << "--- fuzzed ---\n"
                    << difftest::describeThreaded(out);
                if (!config.observe.traceFile.empty())
                    std::remove(config.observe.traceFile.c_str());
            }
        }
    }
}

TEST(ConfigFuzz, ServerWorkloadIsExactUnderFuzzedKnobs)
{
    // The server workload in the fuzz matrix: for random knob
    // combinations and mutator-thread counts, a clean armed run must
    // report zero violations and a leaky run exactly one alldead
    // violation per injected leak.
    CaptureLogSink capture;
    Rng knobs(0x5e47e4);
    const uint32_t thread_choices[] = {2, 4, 8};
    for (uint64_t round = 0; round < 4; ++round) {
        ServerOptions options;
        options.threads = thread_choices[knobs.below(3)];
        options.requestsPerThread = 300;
        options.leakEveryN =
            (round % 2 == 1) ? static_cast<uint32_t>(knobs.range(60, 150))
                             : 0;
        auto server = makeServerWithOptions(options);
        RuntimeConfig config = fuzzConfig(knobs, 90, round);
        config.heap.budgetBytes = 2 * server->minHeapBytes();
        Runtime rt(config);
        server->setup(rt);
        server->enableAssertions(rt);
        server->iterate(rt);
        rt.collect();
        // Context-only reports (pause SLO, backgraph leak trends)
        // may ride along; only assertion verdicts are
        // exactness-checked.
        uint64_t alldead = 0, other = 0;
        for (const Violation &v : rt.violations()) {
            if (v.kind == AssertionKind::AllDead)
                ++alldead;
            else if (!assertionKindContextOnly(v.kind))
                ++other;
        }
        EXPECT_EQ(server->requestsCompleted(),
                  uint64_t{options.threads} * options.requestsPerThread)
            << describeConfig(config);
        EXPECT_EQ(alldead, server->leaksInjected())
            << "round " << round << " [" << describeConfig(config)
            << "]";
        EXPECT_EQ(other, 0u) << describeConfig(config);
        server->teardown(rt);
        if (!config.observe.traceFile.empty())
            std::remove(config.observe.traceFile.c_str());
    }
}

TEST(ConfigFuzz, RandomKnobCombosMatchSequentialBaseline)
{
    CaptureLogSink capture;
    difftest::CompareOptions cmp;
    cmp.compareUsedBytes = false; // TLAB changes placement, not liveness
    const uint64_t kSeeds = 8;
    const uint64_t kCombos = 8;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        DiffOutcome baseline = runScenario(baselineConfig(), seed);
        // One knob-drawing stream per seed keeps the sampled combo
        // space different across seeds but reproducible.
        Rng knobs(0x5eedc0de + seed);
        for (uint64_t combo = 0; combo < kCombos; ++combo) {
            RuntimeConfig config = fuzzConfig(knobs, seed, combo);
            DiffOutcome out = runScenario(config, seed);
            ASSERT_TRUE(difftest::equivalent(out, baseline, cmp))
                << "config-fuzz divergence at seed " << seed
                << " combo " << combo << " ["
                << describeConfig(config) << "]\n--- baseline ---\n"
                << difftest::describe(baseline) << "--- fuzzed ---\n"
                << difftest::describe(out);
            if (!config.observe.traceFile.empty())
                std::remove(config.observe.traceFile.c_str());
        }
    }
}

} // namespace
} // namespace gcassert
