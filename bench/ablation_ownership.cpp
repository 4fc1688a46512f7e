/**
 * @file
 * Ablation: cost scaling of the ownership phase (paper section
 * 2.5.2: one extra truncated trace from the owners). Two sweeps:
 *
 *  - ownees under a single owner, in a minidb-shaped heap: GC time
 *    and ownee checks per collection;
 *  - many owners with one ownee each: registration time and
 *    ownership-phase time per owner, which stay flat because no
 *    owner lookup depends on the owner count.
 */

#include <cstdio>

#include "support/logging.h"
#include "support/stopwatch.h"
#include "workloads/managed_util.h"

using namespace gcassert;

namespace {

/**
 * Many owners, one ownee each: the shape where a per-owner lookup
 * that scanned the owner list would make registration and the
 * ownership phase quadratic.
 */
void
manyOwners()
{
    std::printf("\nAblation: many owners, one ownee each\n\n");
    std::printf("%10s %16s %18s %18s\n", "owners", "register (ms)",
                "ownership (ms/GC)", "ns per owner/GC");
    for (uint32_t owners : {1000u, 5000u, 20000u}) {
        RuntimeConfig config;
        config.heap.budgetBytes = 256ull * 1024 * 1024;
        Runtime runtime(config);
        ManagedVectorOps vec(runtime, "Owners");
        TypeId holder = runtime.types()
                            .define("Holder")
                            .refCount(1)
                            .scalars(8)
                            .build();
        TypeId element = runtime.types()
                             .define("Element")
                             .refCount(1)
                             .scalars(16)
                             .build();
        Handle all(runtime, vec.create(owners + 1), "owners");
        for (uint32_t i = 0; i < owners; ++i) {
            Object *owner = runtime.allocRaw(holder);
            vec.push(all.get(), owner);
            runtime.writeRef(owner, 0, runtime.allocRaw(element));
        }

        Stopwatch reg;
        reg.start();
        for (uint32_t i = 0; i < owners; ++i) {
            Object *owner = vec.get(all.get(), i);
            runtime.assertOwnedBy(owner, owner->ref(0));
        }
        reg.stop();

        constexpr int kGcs = 10;
        runtime.collect(); // settle the first-GC sort out of the timing
        uint64_t before = runtime.gcStats().ownershipPhase.elapsedNanos();
        for (int i = 0; i < kGcs; ++i)
            runtime.collect();
        double phase_ns = static_cast<double>(
                              runtime.gcStats().ownershipPhase.elapsedNanos() -
                              before) /
            kGcs;
        std::printf("%10u %16.3f %18.3f %18.1f\n", owners,
                    reg.elapsedSeconds() * 1e3, phase_ns / 1e6,
                    phase_ns / owners);
    }
    std::printf("\nExpected shape: registration and ownership-phase time "
                "grow linearly in the\nowner count, so the per-owner "
                "column stays flat.\n");
}

} // namespace

int
main()
{
    CaptureLogSink quiet;
    std::printf("Ablation: ownership-phase scaling with the number of "
                "owner/ownee pairs\n\n");
    std::printf("%10s %14s %14s %16s %14s\n", "ownees", "gc w/o (ms)",
                "gc with (ms)", "ownee checks/GC", "overhead");

    for (uint32_t ownees : {0u, 1000u, 4000u, 16000u, 64000u}) {
        // Build a container of `ownees` elements plus unrelated
        // ballast so the trace has fixed non-ownee work.
        RuntimeConfig config;
        config.heap.budgetBytes = 256ull * 1024 * 1024;
        Runtime runtime(config);
        ManagedVectorOps vec(runtime, "Own");
        TypeId element = runtime.types()
                             .define("Element")
                             .refCount(1)
                             .scalars(16)
                             .build();
        Handle container(runtime, vec.create(ownees + 1), "container");
        for (uint32_t i = 0; i < ownees; ++i)
            vec.push(container.get(), runtime.allocRaw(element));
        // Ballast: 50k plain objects.
        Handle ballast(runtime, vec.create(50001), "ballast");
        for (uint32_t i = 0; i < 50000; ++i)
            vec.push(ballast.get(), runtime.allocRaw(element));

        // GC time without assertions.
        constexpr int kGcs = 10;
        Stopwatch without;
        without.start();
        for (int i = 0; i < kGcs; ++i)
            runtime.collect();
        without.stop();

        // Register ownership and measure again.
        for (uint32_t i = 0; i < ownees; ++i)
            runtime.assertOwnedBy(container.get(),
                                  vec.get(container.get(), i));
        Stopwatch with;
        with.start();
        for (int i = 0; i < kGcs; ++i)
            runtime.collect();
        with.stop();

        double wo = without.elapsedSeconds() * 1e3 / kGcs;
        double wi = with.elapsedSeconds() * 1e3 / kGcs;
        double checks = ownees
            ? static_cast<double>(
                  runtime.gcStats().owneeChecksLastGc)
            : 0.0;
        std::printf("%10u %14.3f %14.3f %16.0f %13.1f%%\n", ownees, wo,
                    wi, checks, wo > 0 ? (wi / wo - 1.0) * 100.0 : 0.0);
    }
    std::printf("\nExpected shape: overhead grows roughly linearly (with "
                "a log factor from the\nbinary searches) in the ownee "
                "count; the paper checked ~15k ownees per GC in\n_209_db "
                "at ~30%% extra GC time.\n");
    manyOwners();
    return 0;
}
