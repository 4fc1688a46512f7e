/**
 * @file
 * Workload smoke tests and leak-scenario integration tests: every
 * registered workload runs under all three configurations, and the
 * paper's qualitative findings (section 3.2) are reproduced as
 * assertions on violation reports.
 */

#include <gtest/gtest.h>

#include "support/logging.h"
#include "workloads/driver.h"
#include "workloads/jbbemu.h"
#include "workloads/registry.h"

namespace gcassert {
namespace {

/** Run a workload for a few iterations in the given runtime. */
void
runFor(Workload &workload, Runtime &runtime, uint32_t iterations,
       bool with_assertions)
{
    workload.setup(runtime);
    if (with_assertions)
        workload.enableAssertions(runtime);
    for (uint32_t i = 0; i < iterations; ++i)
        workload.iterate(runtime);
    workload.teardown(runtime);
}

class WorkloadSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmokeTest, RunsUnderBaseConfig)
{
    CaptureLogSink capture;
    auto workload = WorkloadRegistry::instance().create(GetParam());
    Runtime runtime(RuntimeConfig::base(2 * workload->minHeapBytes()));
    runFor(*workload, runtime, 2, false);
    EXPECT_GT(runtime.heap().totalAllocatedObjects(), 0u);
    EXPECT_TRUE(runtime.violations().empty());
}

TEST_P(WorkloadSmokeTest, RunsUnderInfrastructureConfig)
{
    CaptureLogSink capture;
    auto workload = WorkloadRegistry::instance().create(GetParam());
    Runtime runtime(RuntimeConfig::infra(2 * workload->minHeapBytes()));
    runFor(*workload, runtime, 2, false);
    EXPECT_TRUE(runtime.violations().empty())
        << "no assertions added, so no violations possible";
}

TEST_P(WorkloadSmokeTest, RunsWithAssertions)
{
    CaptureLogSink capture;
    auto workload = WorkloadRegistry::instance().create(GetParam());
    Runtime runtime(RuntimeConfig::infra(2 * workload->minHeapBytes()));
    runFor(*workload, runtime, 2, true);
    // Violations may legitimately occur (seeded leaks); the smoke
    // check is that the run completes and the heap stays bounded.
    EXPECT_LE(runtime.heap().usedBytes(), runtime.heap().budgetBytes());
}

TEST_P(WorkloadSmokeTest, CollectsDuringRun)
{
    CaptureLogSink capture;
    auto workload = WorkloadRegistry::instance().create(GetParam());
    Runtime runtime(RuntimeConfig::infra(2 * workload->minHeapBytes()));
    workload->setup(runtime);
    for (uint32_t i = 0; i < 3; ++i)
        workload->iterate(runtime);
    EXPECT_GT(runtime.collections(), 0u)
        << "workloads must exercise the collector at 2x min heap";
    workload->teardown(runtime);
}

TEST_P(WorkloadSmokeTest, DeterministicAllocationVolume)
{
    CaptureLogSink capture;
    auto first = WorkloadRegistry::instance().create(GetParam());
    auto second = WorkloadRegistry::instance().create(GetParam());
    uint64_t volume_first, volume_second;
    {
        Runtime runtime(RuntimeConfig::infra(2 * first->minHeapBytes()));
        runFor(*first, runtime, 2, false);
        volume_first = runtime.heap().totalAllocatedObjects();
    }
    {
        Runtime runtime(RuntimeConfig::infra(2 * second->minHeapBytes()));
        runFor(*second, runtime, 2, false);
        volume_second = runtime.heap().totalAllocatedObjects();
    }
    if (GetParam() == "lusearch") {
        // Threaded: total volume is deterministic even though the
        // interleaving is not.
        EXPECT_EQ(volume_first, volume_second);
    } else {
        EXPECT_EQ(volume_first, volume_second);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSmokeTest,
    ::testing::Values("minidb", "jbbemu", "lusearch", "swapleak",
                      "binarytrees", "graphchurn", "stringstorm",
                      "treewalk", "mapstress", "arraybloat"));

TEST(WorkloadRegistry, ListsAllWorkloads)
{
    auto names = WorkloadRegistry::instance().names();
    EXPECT_EQ(names.size(), 11u);
    EXPECT_TRUE(WorkloadRegistry::instance().has("jbbemu"));
    EXPECT_TRUE(WorkloadRegistry::instance().has("server"));
    EXPECT_FALSE(WorkloadRegistry::instance().has("nonexistent"));
    CaptureLogSink capture;
    EXPECT_THROW(WorkloadRegistry::instance().create("nonexistent"),
                 FatalError);
}

// ---------------------------------------------------------------------
// Qualitative scenarios (paper section 3.2)
// ---------------------------------------------------------------------

/** Run jbbemu with explicit options and return the runtime's
 *  violations. */
ViolationLog
runJbb(const JbbOptions &options, uint32_t iterations = 3)
{
    CaptureLogSink capture;
    auto workload = makeJbbEmuWithOptions(options);
    Runtime runtime(RuntimeConfig::infra(2 * workload->minHeapBytes()));
    workload->setup(runtime);
    workload->enableAssertions(runtime);
    for (uint32_t i = 0; i < iterations; ++i)
        workload->iterate(runtime);
    runtime.collect(); // final full check
    workload->teardown(runtime);
    return runtime.violations();
}

JbbOptions
fullyFixed()
{
    JbbOptions options;
    options.fixCustomerLastOrder = true;
    options.fixOldCompanyDrag = true;
    options.removeFromOrderTable = true;
    return options;
}

TEST(JbbScenario, FixedProgramHasNoViolations)
{
    auto violations = runJbb(fullyFixed());
    EXPECT_TRUE(violations.empty());
}

TEST(JbbScenario, CustomerLastOrderLeakIsDetected)
{
    // Section 3.2.1 finding #1: destroyed Orders remain reachable
    // from Customer.lastOrder.
    JbbOptions options = fullyFixed();
    options.fixCustomerLastOrder = false;
    auto violations = runJbb(options);
    bool found = false;
    for (const auto &v : violations) {
        if (v.kind == AssertionKind::Dead && v.offendingType == "Order") {
            found = true;
            // The path must route through a Customer.
            bool through_customer = false;
            for (const auto &hop : v.path)
                through_customer |= hop.typeName == "Customer";
            EXPECT_TRUE(through_customer)
                << "the report should pinpoint the Customer reference:\n"
                << v.toString();
        }
    }
    EXPECT_TRUE(found) << "dead Orders kept by customers must be caught";
}

TEST(JbbScenario, OldCompanyDragIsDetected)
{
    // Section 3.2.1 finding #2: the previous Company stays reachable
    // through the oldCompany reference.
    JbbOptions options = fullyFixed();
    options.fixOldCompanyDrag = false;
    auto violations = runJbb(options);
    bool dead_company = false;
    bool instances_company = false;
    for (const auto &v : violations) {
        dead_company |= v.kind == AssertionKind::Dead &&
            v.offendingType == "Company";
        instances_company |= v.kind == AssertionKind::Instances &&
            v.offendingType == "Company";
    }
    EXPECT_TRUE(dead_company) << "assert-dead on the old Company fires";
    EXPECT_TRUE(instances_company)
        << "assert-instances(Company, 1) also catches the drag";
}

TEST(JbbScenario, OrderTableLeakIsDetectedByOwnership)
{
    // Section 3.2.1 finding #3 (the Jump & McKinley leak), caught
    // the paper's second way: Orders asserted to be owned by their
    // orderTable. With delivery removing Orders from the table but
    // the Customer still holding them, the ownership assertion
    // fires without the user knowing *where* orders should die.
    JbbOptions options = fullyFixed();
    options.fixCustomerLastOrder = false; // keeps processed orders
    options.assertDeadOnDestroy = false;  // rely on ownership only
    auto violations = runJbb(options);
    bool owned_violation = false;
    for (const auto &v : violations)
        owned_violation |= v.kind == AssertionKind::OwnedBy &&
            v.offendingType == "Order";
    EXPECT_TRUE(owned_violation);
}

TEST(JbbScenario, UnremovedOrdersStayOwned)
{
    // With the Jump & McKinley defect alone (orders never removed
    // from the table), the ownership assertion is *satisfied*: the
    // table still owns them. The leak shows up as table growth, not
    // as an ownership violation — which is why the paper needed
    // assert-dead to find it.
    JbbOptions options = fullyFixed();
    options.removeFromOrderTable = false;
    options.assertDeadOnDestroy = false;
    options.assertDeadOldCompany = false;
    auto violations = runJbb(options);
    for (const auto &v : violations)
        EXPECT_NE(v.kind, AssertionKind::OwnedBy) << v.toString();
}

TEST(JbbScenario, UnremovedOrdersCaughtByAssertDead)
{
    // Same defect, caught the paper's first way: assert-dead at the
    // end of delivery processing.
    JbbOptions options = fullyFixed();
    options.removeFromOrderTable = false;
    auto violations = runJbb(options);
    bool found = false;
    for (const auto &v : violations) {
        if (v.kind == AssertionKind::Dead && v.offendingType == "Order") {
            bool through_table = false;
            for (const auto &hop : v.path)
                through_table |= hop.typeName.find("longBTree") !=
                    std::string::npos;
            found |= through_table;
        }
    }
    EXPECT_TRUE(found)
        << "the path should route through the orderTable B-tree";
}

TEST(LusearchScenario, ThirtyTwoSearchersReported)
{
    // Section 3.2.2: assert-instances(IndexSearcher, 1) reports 32
    // live instances, one per thread.
    CaptureLogSink capture;
    auto workload = WorkloadRegistry::instance().create("lusearch");
    Runtime runtime(RuntimeConfig::infra(2 * workload->minHeapBytes()));
    workload->setup(runtime);
    workload->enableAssertions(runtime);
    workload->iterate(runtime);
    workload->iterate(runtime);
    workload->teardown(runtime);

    bool found32 = false;
    for (const auto &v : runtime.violations()) {
        if (v.kind == AssertionKind::Instances &&
            v.offendingType == "IndexSearcher") {
            found32 |= v.message.find("32 instances") != std::string::npos;
        }
    }
    EXPECT_TRUE(found32)
        << "a GC during the searches should see all 32 searchers";
}

TEST(SwapLeakScenario, HiddenInnerClassReferenceExplained)
{
    // Section 3.2.3: the report shows the hidden this$0 reference
    // path SArray -> SObject -> SObject$Rep -> SObject.
    CaptureLogSink capture;
    auto workload = WorkloadRegistry::instance().create("swapleak");
    Runtime runtime(RuntimeConfig::infra(2 * workload->minHeapBytes()));
    workload->setup(runtime);
    workload->enableAssertions(runtime);
    workload->iterate(runtime);
    runtime.collect();
    workload->teardown(runtime);

    bool matched = false;
    for (const auto &v : runtime.violations()) {
        if (v.kind != AssertionKind::Dead || v.path.size() < 4)
            continue;
        size_t n = v.path.size();
        matched |= v.path[n - 4].typeName == "SArray" &&
            v.path[n - 3].typeName == "SObject" &&
            v.path[n - 2].typeName == "SObject$Rep" &&
            v.path[n - 1].typeName == "SObject";
    }
    EXPECT_TRUE(matched) << "expected the paper's exact path shape";
}

TEST(MinidbScenario, AssertionsHoldOnCorrectProgram)
{
    CaptureLogSink capture;
    auto workload = WorkloadRegistry::instance().create("minidb");
    Runtime runtime(RuntimeConfig::infra(2 * workload->minHeapBytes()));
    workload->setup(runtime);
    workload->enableAssertions(runtime);
    for (int i = 0; i < 3; ++i)
        workload->iterate(runtime);
    runtime.collect();
    workload->teardown(runtime);
    EXPECT_TRUE(runtime.violations().empty())
        << "minidb removes entries from both structures, so its "
           "ownership and dead assertions all hold";
    EXPECT_GT(runtime.assertionStats().assertOwnedByCalls, 10000u);
    EXPECT_GT(runtime.assertionStats().assertDeadCalls, 0u);
}

} // namespace
} // namespace gcassert
