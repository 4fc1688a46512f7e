/**
 * @file
 * Generational-vs-nongenerational differential harness.
 *
 * Generational mode claims full observational equivalence for every
 * assertion-relevant output: minor collections reclaim only objects
 * a full collection would also have reclaimed (in the same full-GC
 * window), never run assertion checks, and leave the full-GC cadence
 * untouched (minor frees are settled into the heap budget only at
 * the next full sweep, so the trigger points are bit-identical).
 *
 * Two comparisons enforce the claim:
 *
 *  - The shared rooted-contract heap program (tests/differential.h)
 *    over 100 seeds: per full-GC-window freed multisets, exact
 *    finalizer order, the violation multiset keyed by (kind,
 *    offending type, GC number), and the end-of-run heap census must
 *    all match.
 *  - Every registered workload runs generational on vs off with
 *    assertions enabled; the violation verdicts (kind and offending
 *    type) must be identical.
 *
 * A minor collection pins only what the assertion machinery holds raw
 * pointers to; an assert-unshared target is not one of them, so a
 * dropped nursery target is freed by the next minor collection.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "differential.h"
#include "runtime/runtime.h"
#include "support/logging.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace gcassert {
namespace {

using difftest::DiffOutcome;

DiffOutcome
runScenario(bool generational, uint64_t seed)
{
    RuntimeConfig config;
    config.infrastructure = true;
    config.recordPaths = false;
    config.tlab = false;
    config.generational = generational;
    config.nurseryKb = 32; // small: minors fire during churn
    return difftest::runRootedScenario(config, seed);
}

TEST(GenerationalDifferential, MatchesNonGenerationalAcross100Seeds)
{
    CaptureLogSink capture;
    uint64_t total_minors = 0;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        DiffOutcome off = runScenario(false, seed);
        DiffOutcome on = runScenario(true, seed);
        ASSERT_TRUE(difftest::equivalent(on, off))
            << "generational divergence at seed " << seed
            << "\n--- off ---\n" << difftest::describe(off)
            << "--- on ---\n" << difftest::describe(on);
        EXPECT_EQ(off.minorCollections, 0u);
        total_minors += on.minorCollections;
    }
    // The comparison is vacuous unless minors actually ran.
    EXPECT_GT(total_minors, 100u);
}

// ---------------------------------------------------------------------
// Dropped assert-unshared targets
// ---------------------------------------------------------------------

/**
 * A mature holder is written a nursery assert-unshared target and
 * then drops it; a second target stays shared by two holders, so the
 * full GC reports one verdict. Returns the violation keys; with
 * @p generational, a minor collection runs after the drop and
 * @p freed_by_minor says whether it freed the dropped target.
 */
std::multiset<std::string>
runDroppedUnsharedTarget(bool generational, bool *freed_by_minor)
{
    RuntimeConfig config;
    config.infrastructure = true;
    config.recordPaths = false;
    config.tlab = false;
    config.generational = generational;
    config.nurseryKb = 1u << 20; // minors only when asked for
    bool freed = false; // outlives the runtime's free hook
    Runtime rt(config);
    TypeId node = rt.types()
                      .define("Node")
                      .refs({"a", "b"})
                      .scalars(8)
                      .build();
    TypeId target_type = rt.types()
                             .define("Target")
                             .refs({"next"})
                             .scalars(8)
                             .build();

    Handle holder(rt, rt.allocRaw(node), "holder");
    Handle other(rt, rt.allocRaw(node), "other");
    rt.collect(); // the holders are mature from here on

    Object *dropped = rt.allocRaw(target_type);
    rt.assertUnshared(dropped);
    rt.writeRef(holder.get(), 0, dropped);
    Handle shared(rt, rt.allocRaw(target_type), "shared");
    rt.assertUnshared(shared.get());
    rt.writeRef(holder.get(), 1, shared.get());
    rt.writeRef(other.get(), 0, shared.get());
    shared.reset();
    rt.writeRef(holder.get(), 0, nullptr);

    rt.addFreeHook([&](Object *obj) { freed |= obj == dropped; });
    if (generational) {
        MinorCollectionResult minor = rt.collectMinor();
        EXPECT_EQ(minor.freedObjects, 1u);
        *freed_by_minor = freed;
    }
    rt.collect();

    std::multiset<std::string> keys;
    for (const Violation &v : rt.violations())
        keys.insert(difftest::violationKey(v, true));
    return keys;
}

TEST(GenerationalUnshared, DroppedTargetIsFreedByTheNextMinor)
{
    CaptureLogSink capture;
    bool freed_by_minor = false;
    std::multiset<std::string> off =
        runDroppedUnsharedTarget(false, nullptr);
    std::multiset<std::string> on =
        runDroppedUnsharedTarget(true, &freed_by_minor);
    EXPECT_TRUE(freed_by_minor);
    EXPECT_EQ(on, off);
    ASSERT_EQ(off.size(), 1u);
    EXPECT_EQ(off.begin()->rfind("assert-unshared|Target|", 0), 0u)
        << *off.begin();
}

// ---------------------------------------------------------------------
// Per-workload verdict comparison
// ---------------------------------------------------------------------

/** Violation verdicts (kind and offending type) of one workload run. */
std::multiset<std::string>
runWorkload(const std::string &name, bool generational,
            uint64_t *minors_out)
{
    auto workload = WorkloadRegistry::instance().create(name);
    RuntimeConfig config =
        RuntimeConfig::infra(2 * workload->minHeapBytes());
    config.generational = generational;
    config.nurseryKb = 256;
    Runtime rt(config);

    workload->setup(rt);
    workload->enableAssertions(rt);
    for (uint32_t i = 0; i < 2; ++i)
        workload->iterate(rt);
    workload->teardown(rt);
    rt.collect();

    if (minors_out)
        *minors_out = rt.gcStats().minorCollections;
    std::multiset<std::string> verdicts;
    for (const Violation &v : rt.violations())
        verdicts.insert(std::string(assertionKindName(v.kind)) + "|" +
                        v.offendingType);
    return verdicts;
}

class GenerationalWorkloadTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(GenerationalWorkloadTest, VerdictsMatchNonGenerational)
{
    CaptureLogSink capture;
    uint64_t minors = 0;
    std::multiset<std::string> off = runWorkload(GetParam(), false,
                                                 nullptr);
    std::multiset<std::string> on = runWorkload(GetParam(), true,
                                                &minors);
    auto join = [](const std::multiset<std::string> &set) {
        std::string out;
        for (const std::string &v : set)
            out += "  " + v + "\n";
        return out.empty() ? std::string("  (none)\n") : out;
    };
    EXPECT_EQ(on, off) << "verdicts diverged for " << GetParam()
                       << "\n--- off ---\n" << join(off)
                       << "--- on ---\n" << join(on);
    EXPECT_GT(minors, 0u)
        << GetParam() << " never triggered a minor collection";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, GenerationalWorkloadTest,
    ::testing::ValuesIn(WorkloadRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace gcassert
