/**
 * @file
 * young-churn: one mutator, generational collection with a 256 KiB
 * nursery, the assertion infrastructure on and no assertion
 * registered (the paper's "Infrastructure" configuration).
 *
 * Each op allocates a 6-10 node scratch chain (pinned as local
 * roots), checks its digest by walking it, drops it, then stores one
 * fresh record into a random slot of a 64k-slot long-lived table: a
 * mature-to-young edge through the write barrier and remembered set.
 * The shadow copy of the table is checked against a walk of the real
 * one after the final full collection.
 */

#include "common.h"

namespace gcbench {

namespace {

gcassert::RuntimeConfig
churnConfig(const Options &opt)
{
    gcassert::RuntimeConfig c;
    c.heap.budgetBytes = (opt.quick ? 4ull : 8ull) << 20;
    c.infrastructure = true;
    c.recordPaths = true;
    c.markThreads = 1;
    c.sweepThreads = 1;
    c.generational = true;
    c.nurseryKb = 256;
    if (opt.trace)
        c.observe.traceFile = opt.outDir + "/trace-young-churn-seed" +
                              std::to_string(opt.seed) + ".json";
    return c;
}

class YoungChurn {
  public:
    explicit YoungChurn(const Options &opt)
        : opt_(opt), rt_(churnConfig(opt)), gc_(rt_), call_(rt_, gc_),
          rng_(streamSeed(opt.seed, 1)), slots_(opt.quick ? 4096 : 65536)
    {
        auto &types = rt_.types();
        tableType_ = types.define("ChurnTable").array().build();
        recordType_ = types.define("ChurnRecord").scalars(16).build();
        tempType_ =
            types.define("ChurnTemp").refs({"next"}).scalars(8).build();
    }

    Outcome run();

  private:
    /** One churn step; returns false when its chain digest failed. */
    bool step(uint64_t op);

    Options opt_;
    Runtime rt_;
    GcObserver gc_;
    Caller call_;
    Rng rng_;
    const uint32_t slots_;
    TypeId tableType_, recordType_, tempType_;
    gcassert::Handle table_;
    std::vector<uint64_t> shadow_;
};

bool
YoungChurn::step(uint64_t op)
{
    uint32_t n = 6 + static_cast<uint32_t>(rng_.below(5));
    Object *head = nullptr;
    uint64_t payloads[10];
    for (uint32_t i = 0; i < n; ++i) {
        Object *node = call_.allocLocal(tempType_);
        payloads[i] = rng_.next();
        node->setScalar<uint64_t>(0, payloads[i]);
        call_.writeRef(node, 0, head);
        head = node;
    }
    // The walk visits the chain newest first.
    uint64_t expect = n;
    for (uint32_t i = n; i-- > 0;)
        expect = mixDigest(expect, payloads[i]);
    if (opt_.fault == "chain-digest" && op == 7)
        expect ^= 1;
    uint64_t seen = 0, got = n;
    for (Object *o = head; o; o = o->ref(0), ++seen)
        got = mixDigest(got, o->scalar<uint64_t>(0));
    call_.dropLocalRoots();

    uint32_t slot = static_cast<uint32_t>(rng_.below(slots_));
    uint64_t value = rng_.next();
    Object *rec = call_.allocRaw(recordType_);
    rec->setScalar<uint64_t>(0, slot);
    rec->setScalar<uint64_t>(8, value);
    call_.writeRef(table_.get(), slot, rec);
    shadow_[slot] = value;
    return seen == n && got == expect;
}

Outcome
YoungChurn::run()
{
    Outcome out;
    recordConfig(out, rt_);
    out.config.emplace_back("tableSlots", std::to_string(slots_));

    table_ = gcassert::Handle(rt_, call_.allocArray(tableType_, slots_),
                              "churn.table");
    shadow_.assign(slots_, 0);
    for (uint32_t i = 0; i < slots_; ++i) {
        Object *rec = call_.allocRaw(recordType_);
        uint64_t value = rng_.next();
        rec->setScalar<uint64_t>(0, i);
        rec->setScalar<uint64_t>(8, value);
        call_.writeRef(table_.get(), i, rec);
        shadow_[i] = value;
    }
    uint64_t warm_failed = 0;
    uint64_t warmup = opt_.quick ? 20000 : 300000;
    for (uint64_t i = 0; i < warmup; ++i)
        warm_failed += step(0) ? 0 : 1;

    runWindow(out, rt_, call_, gc_, opt_, "op.churn",
              [this](uint64_t op) { return step(op); });

    // Final full collection, then the table against its shadow.
    call_.collect();
    uint64_t expect = 0, got = 0;
    bool slots_ok = true;
    for (uint32_t i = 0; i < slots_; ++i) {
        expect = mixDigest(expect, shadow_[i]);
        Object *rec = table_->ref(i);
        slots_ok = slots_ok && rec && rec->scalar<uint64_t>(0) == i;
        got = mixDigest(got, rec ? rec->scalar<uint64_t>(8) : 0);
    }
    if (opt_.fault == "table-checksum")
        expect ^= 1;
    out.check("chain_digests_match", warm_failed == 0 && out.failed == 0,
              std::to_string(warm_failed + out.failed) +
                  " chain digest mismatch(es)");
    out.check("table_checksum_matches_shadow", slots_ok && got == expect,
              "table walk disagrees with the shadow table");
    out.check("no_violations", rt_.violations().empty(),
              std::to_string(rt_.violations().size()) +
                  " violation(s) with no assertion registered");
    checkAccounting(out, rt_, gc_,
                    call_.objects + (opt_.fault == "alloc-count" ? 1 : 0));

    flushSpans(rt_, call_, gc_);
    return out;
}

} // namespace

Outcome
runYoungChurn(const Options &opt)
{
    YoungChurn w(opt);
    return w.run();
}

} // namespace gcbench
