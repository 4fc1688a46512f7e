/**
 * @file
 * Shared differential-test harness.
 *
 * Several suites make the same claim about an optional runtime
 * feature: turning it on is *observationally inert* — for the same
 * seed-determined heap program, every GC-observable output (freed
 * multisets per full-GC window, exact finalizer order, assertion
 * verdicts, mark/sweep tallies) must be bit-identical with the
 * feature on or off. The parallel-mark, parallel-sweep, generational,
 * telemetry, pause-SLO, backgraph, live-telemetry and config-fuzz suites all
 * compare runs this way; this header holds the pieces they previously
 * duplicated:
 *
 *  - DiffOutcome: the address-free summary of one run (the union of
 *    every field any suite compares), with equivalence and a
 *    human-readable describe() for divergence messages.
 *  - runRootedScenario(): the randomized rooted-contract heap
 *    program (the test_generational.cpp idiom). Every reference is
 *    written through Runtime::writeRef and every live object stays
 *    rooted across allocations, so the scenario is valid under any
 *    configuration — generational mode may collect at any allocation
 *    entry. Only root-ness (mode-independent) gates actions, never
 *    liveness, so the rng stream stays in lockstep across modes.
 *
 * Addresses differ between runtimes, so violations are compared via
 * address-free keys ("kind|type|gc#" and optionally "|message").
 * With path recording off, records carry no path, making messages
 * byte-comparable across configurations.
 */

#ifndef GCASSERT_TESTS_DIFFERENTIAL_H
#define GCASSERT_TESTS_DIFFERENTIAL_H

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.h"
#include "support/rng.h"

namespace gcassert {
namespace difftest {

/** Address-free summary of one scenario run. */
struct DiffOutcome {
    uint64_t marked = 0;
    uint64_t swept = 0;
    uint64_t sweptBytes = 0;
    uint64_t liveObjects = 0;
    uint64_t usedBytes = 0;
    uint64_t fullCollections = 0;
    /** Informational only: never part of the equivalence (a
     *  generational run legitimately differs from a plain one). */
    uint64_t minorCollections = 0;
    uint64_t owneeChecks = 0;
    /** Freed "type:id" keys per full-GC window, as multisets: a
     *  window spans everything from after the previous collect() up
     *  to and including collect() number i. The freed *order* within
     *  a window legally differs (a minor frees young garbage in
     *  roster order before the window's full sweep would have
     *  reached it), which is why windows compare as multisets. */
    std::vector<std::multiset<std::string>> freedPerWindow;
    /** Finalized ids, in invocation order (must match exactly —
     *  minors pin finalizables, so order is mode-independent). */
    std::vector<uint64_t> finalized;
    /** Violation keys (see violationKey), order-insensitive. */
    std::multiset<std::string> violations;
    /** Final tallies of tracked types: name -> (count, bytes). */
    std::map<std::string, std::pair<uint64_t, uint64_t>> tallies;
};

/** Fields whose comparison a suite may need to relax. */
struct CompareOptions {
    /** usedBytes depends on block-level placement, which TLAB leases
     *  change; the config fuzzer compares heaps across allocator
     *  configurations and excludes it. */
    bool compareUsedBytes = true;
};

inline bool
equivalent(const DiffOutcome &a, const DiffOutcome &b,
           const CompareOptions &opt = {})
{
    return a.freedPerWindow == b.freedPerWindow && a.marked == b.marked &&
           a.swept == b.swept && a.sweptBytes == b.sweptBytes &&
           a.liveObjects == b.liveObjects &&
           (!opt.compareUsedBytes || a.usedBytes == b.usedBytes) &&
           a.fullCollections == b.fullCollections &&
           a.owneeChecks == b.owneeChecks && a.finalized == b.finalized &&
           a.violations == b.violations && a.tallies == b.tallies;
}

inline std::string
describe(const DiffOutcome &o)
{
    std::string out;
    out += "marked=" + std::to_string(o.marked) +
           " swept=" + std::to_string(o.swept) +
           " sweptBytes=" + std::to_string(o.sweptBytes) +
           " live=" + std::to_string(o.liveObjects) +
           " usedBytes=" + std::to_string(o.usedBytes) +
           " fullGcs=" + std::to_string(o.fullCollections) +
           " minorGcs=" + std::to_string(o.minorCollections) +
           " owneeChecks=" + std::to_string(o.owneeChecks) + "\n";
    for (size_t w = 0; w < o.freedPerWindow.size(); ++w)
        out += "  window" + std::to_string(w) + ": freed " +
               std::to_string(o.freedPerWindow[w].size()) + "\n";
    out += "  finalized:";
    for (uint64_t id : o.finalized)
        out += " " + std::to_string(id);
    out += "\n";
    for (const std::string &v : o.violations)
        out += "  " + v + "\n";
    for (const auto &[name, tally] : o.tallies)
        out += "  tally " + name + ": " + std::to_string(tally.first) +
               " objs, " + std::to_string(tally.second) + " bytes\n";
    return out;
}

/** How a suite wants the scenario's outputs keyed and filtered. */
struct ScenarioOptions {
    /** Append "|message" to violation keys. Requires recordPaths off
     *  in every compared configuration (paths embed addresses). */
    bool includeMessages = false;
    /** Kinds excluded from the violation multiset — e.g. PauseSlo,
     *  which the armed run *adds* as context-only reports. */
    std::set<AssertionKind> ignoreKinds;
};

inline std::string
violationKey(const Violation &v, bool include_message)
{
    std::string key = std::string(assertionKindName(v.kind)) + "|" +
                      v.offendingType + "|" + std::to_string(v.gcNumber);
    if (include_message)
        key += "|" + v.message;
    return key;
}

/** Fill the stats tail every scenario shares. */
inline void
summarize(Runtime &rt, const ScenarioOptions &opt, DiffOutcome &out)
{
    const GcStats &stats = rt.gcStats();
    out.marked = stats.objectsMarked;
    out.swept = stats.objectsSwept;
    out.sweptBytes = stats.bytesSwept;
    out.liveObjects = rt.heap().liveObjects();
    out.usedBytes = rt.heap().usedBytes();
    out.fullCollections = stats.collections;
    out.minorCollections = stats.minorCollections;
    out.owneeChecks = stats.owneeChecks;
    for (const Violation &v : rt.violations()) {
        if (opt.ignoreKinds.count(v.kind))
            continue;
        out.violations.insert(violationKey(v, opt.includeMessages));
    }
    for (TypeId id : rt.types().trackedTypes()) {
        const TypeDescriptor &desc = rt.types().get(id);
        out.tallies[desc.name()] = {desc.instanceCount(),
                                    desc.volumeBytes()};
    }
}

/**
 * Run the seed-determined rooted-contract heap program on a fresh
 * runtime built from @p config and summarize every GC-observable
 * effect. The rng stream is drawn identically regardless of the
 * configuration; only root-ness (mode-independent) gates actions.
 *
 * The caller owns the whole config: the scenario neither forces nor
 * forbids any knob, so suites can pin exactly the axis they compare
 * (generational on/off, telemetry on/off, a fuzzer-drawn
 * combination, ...). recordPaths should be
 * off when includeMessages is set.
 */
inline DiffOutcome
runRootedScenario(const RuntimeConfig &config, uint64_t seed,
                  const ScenarioOptions &opt = {})
{
    Runtime rt(config);

    DiffOutcome out;

    TypeId node_type = rt.types()
                           .define("Node")
                           .refs({"left", "right"})
                           .scalars(8)
                           .build();
    TypeId record_type = rt.types()
                             .define("Record")
                             .refs({"a", "b", "c"})
                             .scalars(136)
                             .build();
    TypeId blob_type = rt.types().define("Blob").array().build();
    TypeId weak_type = rt.types()
                           .define("WeakRef")
                           .refs({"referent", "strong"})
                           .scalars(8)
                           .weak()
                           .build();

    uint64_t next_id = 1;
    auto keyOf = [&](Object *obj) {
        return rt.types().get(obj->typeId()).name() + ":" +
               std::to_string(obj->scalar<uint64_t>(0));
    };
    out.freedPerWindow.emplace_back();
    rt.addFreeHook([&](Object *obj) {
        out.freedPerWindow.back().insert(keyOf(obj));
    });

    Rng rng(seed);

    // Every object is rooted at birth; `rooted` mirrors which
    // handles are still set. Rooted-ness is identical in every mode,
    // so it is the only predicate allowed to gate writes.
    std::vector<Handle> handles;
    std::vector<Object *> objs;
    std::vector<char> rooted;
    auto stamp = [&](Object *obj) {
        obj->setScalar<uint64_t>(0, next_id++);
        handles.emplace_back(rt, obj, "obj");
        objs.push_back(obj);
        rooted.push_back(1);
        return obj;
    };

    const size_t num_nodes = rng.range(150, 400);
    const size_t num_records = rng.range(20, 60);
    const size_t num_blobs = rng.range(4, 12);
    const size_t num_weaks = rng.range(4, 12);
    for (size_t i = 0; i < num_nodes; ++i)
        stamp(rt.allocRaw(node_type));
    for (size_t i = 0; i < num_records; ++i)
        stamp(rt.allocRaw(record_type));
    for (size_t i = 0; i < num_blobs; ++i)
        stamp(rt.allocScalarRaw(
            blob_type, static_cast<uint32_t>(rng.range(64, 12000))));
    for (size_t i = 0; i < num_weaks; ++i)
        stamp(rt.allocRaw(weak_type));

    auto slots_of = [&](size_t i) -> uint32_t {
        return objs[i]->numRefs();
    };
    auto rooted_index = [&]() -> size_t {
        // Draw until a rooted object comes up; the stream stays in
        // lockstep because rooted-ness is mode-independent.
        for (;;) {
            size_t i = rng.below(objs.size());
            if (rooted[i])
                return i;
        }
    };
    auto wire = [&](size_t src, uint32_t slot, size_t dst) {
        rt.writeRef(objs[src], slot, objs[dst]);
    };

    // Initial wiring: everything is still rooted.
    for (size_t i = 0; i < objs.size(); ++i)
        for (uint32_t s = 0; s < slots_of(i); ++s)
            if (rng.chance(0.6))
                wire(i, s, rng.below(objs.size()));

    // Finalizers on a sample; invocation order must match exactly.
    for (size_t i = 0; i < objs.size(); ++i)
        if (objs[i]->scalarBytes() >= 8 && rng.chance(0.08))
            rt.setFinalizer(objs[i], [&](Object *obj) {
                out.finalized.push_back(obj->scalar<uint64_t>(0));
            });

    // Assertions: shape limits plus per-object claims on rooted
    // objects (some will hold, some will be violated — identically
    // in every mode).
    rt.assertInstances(record_type, num_records / 2);
    rt.assertVolume(blob_type, 16 * 1024);
    for (size_t i = 0, n = objs.size() / 30; i < n; ++i)
        rt.assertUnshared(objs[rooted_index()]);
    for (size_t i = 0, n = objs.size() / 30; i < n; ++i) {
        size_t owner = rooted_index();
        size_t ownee = rooted_index();
        if (owner != ownee && slots_of(owner) > 0)
            rt.assertOwnedBy(objs[owner], objs[ownee]);
    }

    const size_t windows = 3;
    for (size_t w = 0; w < windows; ++w) {
        // Churn: fresh rooted allocations (young generation), wired
        // from rooted elders — the remset-feeding writes — plus
        // unreferenced scratch that dies young.
        size_t churn_begin = objs.size();
        for (size_t i = 0, n = rng.range(60, 160); i < n; ++i)
            stamp(rt.allocRaw(node_type));
        for (size_t i = 0, n = rng.range(1, 4); i < n; ++i)
            stamp(rt.allocScalarRaw(
                blob_type,
                static_cast<uint32_t>(rng.range(64, 12000))));
        for (size_t i = churn_begin; i < objs.size(); ++i) {
            size_t elder = rooted_index();
            if (slots_of(elder) > 0 && rng.chance(0.5))
                wire(elder,
                     static_cast<uint32_t>(rng.below(slots_of(elder))),
                     i);
        }

        // assert-dead on objects about to be unrooted: whether the
        // claim holds depends only on the (mode-independent) edge
        // structure.
        for (size_t i = 0, n = rng.range(3, 10); i < n; ++i) {
            size_t victim = rooted_index();
            if (rng.chance(0.5))
                rt.assertDead(objs[victim]);
            rooted[victim] = 0;
            handles[victim].reset();
        }

        rt.collect();
        out.freedPerWindow.emplace_back();
    }
    rt.collect();

    summarize(rt, opt, out);
    return out;
}

/** Derive a decorrelated per-thread sub-seed (SplitMix64 step), so
 *  each worker in the threaded scenario draws an independent but
 *  reproducible stream from one top-level seed. */
inline uint64_t
subSeed(uint64_t seed, uint64_t lane)
{
    uint64_t z = seed + (lane + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Address-free summary of one *threaded* scenario run.
 *
 * With real mutator threads the interleaving — and therefore the GC
 * cadence, per-window freed sets, mark/sweep totals and violation
 * gc numbers — is scheduler-dependent, so the threaded equivalence
 * compares only whole-run aggregates that the program determines:
 * the total freed multiset (every non-escaped allocation dies by the
 * final collections), the violation multiset keyed "kind|type"
 * (each assert-dead on an escaped object reports exactly once: the
 * dead bit clears on first report), and the final live-object count.
 */
struct ThreadedOutcome {
    /** "type:id" keys of every object freed across the whole run. */
    std::multiset<std::string> freedTotal;
    /** Violation keys "kind|type", order-insensitive. */
    std::multiset<std::string> violations;
    uint64_t liveObjects = 0;
    /** Informational only (scheduler-dependent). */
    uint64_t fullCollections = 0;
    uint64_t minorCollections = 0;
};

inline bool
equivalentThreaded(const ThreadedOutcome &a, const ThreadedOutcome &b)
{
    return a.freedTotal == b.freedTotal &&
           a.violations == b.violations &&
           a.liveObjects == b.liveObjects;
}

inline std::string
describeThreaded(const ThreadedOutcome &o)
{
    std::string out;
    out += "freedTotal=" + std::to_string(o.freedTotal.size()) +
           " live=" + std::to_string(o.liveObjects) +
           " fullGcs=" + std::to_string(o.fullCollections) +
           " minorGcs=" + std::to_string(o.minorCollections) + "\n";
    std::map<std::string, uint64_t> counts;
    for (const std::string &v : o.violations)
        ++counts[v];
    for (const auto &[key, n] : counts)
        out += "  " + key + " x" + std::to_string(n) + "\n";
    return out;
}

/**
 * Run a seed-determined multi-threaded heap program on a fresh
 * runtime built from @p config and summarize its whole-run effects.
 *
 * Each of @p threads workers is a registered mutator running a
 * deterministic program from subSeed(seed, t): rounds of thread-
 * private linked chains through the allocLocal/writeRef path, with
 *
 *  - some chain heads *escaping* into a shared rooted list (the
 *    head's next pointer is rewired there, so the rest of its chain
 *    still dies) and then being assert-dead'ed — each escape yields
 *    exactly one Dead violation at the next full GC;
 *  - some rounds bracketed in a start-region / assert-alldead pair
 *    whose scratch all dies — contributing zero violations;
 *  - occasional explicit collections from worker threads.
 *
 * What is allocated, what escapes, and what is asserted are all
 *-fixed by (seed, threads); only scheduling varies. The returned
 * aggregates are therefore comparable across any two runtime
 * configurations (the usual caveat: usedBytes and per-window data
 * are not aggregated at all here).
 */
inline ThreadedOutcome
runThreadedScenario(const RuntimeConfig &config, uint64_t seed,
                    uint32_t threads)
{
    Runtime rt(config);
    ThreadedOutcome out;

    TypeId node_type = rt.types()
                           .define("TNode")
                           .refs({"next"})
                           .scalars(16)
                           .build();
    TypeId list_type =
        rt.types().define("TList").refs({"head"}).scalars(8).build();
    const uint32_t next_slot = rt.types().get(node_type).slotIndex("next");
    const uint32_t head_slot = rt.types().get(list_type).slotIndex("head");

    // Leaf mutex: only ever taken by the free hook (which runs
    // serialized inside the GC) and never while acquiring another
    // lock, so it cannot participate in a cycle.
    std::mutex freed_mutex;
    rt.addFreeHook([&](Object *obj) {
        std::string key = rt.types().get(obj->typeId()).name() + ":" +
                          std::to_string(obj->scalar<uint64_t>(0));
        std::lock_guard<std::mutex> guard(freed_mutex);
        out.freedTotal.insert(std::move(key));
    });

    Handle shared(rt, rt.allocRaw(list_type), "diff.shared");

    // Serializes escapes into the shared list. Acquired before any
    // runtime lock, never the other way around.
    std::mutex shared_mutex;

    std::vector<MutatorContext *> workers;
    for (uint32_t t = 0; t < threads; ++t)
        workers.push_back(
            &rt.registerMutator("diff-" + std::to_string(t)));

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            MutatorContext &mutator = *workers[t];
            Rng rng(subSeed(seed, t));
            uint64_t counter = 0;
            const uint64_t tag = (uint64_t{t} + 1) << 32;
            for (uint32_t round = 0; round < 40; ++round) {
                bool in_region = rng.chance(0.3);
                bool escape = !in_region && rng.chance(0.25);
                if (in_region)
                    rt.startRegion(&mutator);

                uint64_t len = rng.range(3, 9);
                Object *head = nullptr;
                for (uint64_t i = 0; i < len; ++i) {
                    Object *node = rt.allocLocal(node_type, &mutator);
                    node->setScalar<uint64_t>(0, tag | counter++);
                    rt.writeRef(node, next_slot, head);
                    head = node;
                }

                if (escape) {
                    // Rewire the head into the rooted shared list
                    // (dropping its chain), then claim it dead: one
                    // guaranteed Dead violation per escape.
                    std::lock_guard<std::mutex> guard(shared_mutex);
                    rt.writeRef(head, next_slot,
                                shared->ref(head_slot));
                    rt.writeRef(shared.get(), head_slot, head);
                    rt.assertDead(head);
                }

                // Unpin before any alldead flush so a collection in
                // between can only see the scratch unreachable.
                rt.dropLocalRoots(&mutator);
                if (in_region)
                    rt.assertAllDead(&mutator);

                if (rng.chance(0.05))
                    rt.collect();
            }
        });
    }
    for (std::thread &worker : pool)
        worker.join();

    // Two final collections: the first reports any still-pending
    // verdicts, the second covers lazily-swept stragglers.
    rt.collect();
    rt.collect();

    for (const Violation &v : rt.violations()) {
        if (assertionKindContextOnly(v.kind))
            continue;
        out.violations.insert(std::string(assertionKindName(v.kind)) +
                              "|" + v.offendingType);
    }
    out.liveObjects = rt.heap().liveObjects();
    out.fullCollections = rt.gcStats().collections;
    out.minorCollections = rt.gcStats().minorCollections;
    return out;
}

} // namespace difftest
} // namespace gcassert

#endif // GCASSERT_TESTS_DIFFERENTIAL_H
