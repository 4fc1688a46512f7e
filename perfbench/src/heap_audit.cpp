/**
 * @file
 * heap-audit: one mutator over a ~500k-object long-lived graph of
 * accounts, checked by every heap-shape assertion, with 4 marker
 * threads, 4 sweep workers and path recording off.
 *
 * Each account has a history list (8-24 entries), a profile
 * (assert-unshared) and a vault holding a wallet (assert-ownedby the
 * vault). The
 * instance counts of accounts, profiles and history entries are
 * limited (assert-instances). Each op audits one account's history
 * against the shadow model, then replaces it with a fresh list and
 * asserts the old list's head dead; every 61st replaced list is kept
 * in a rooted archive instead, so that assertion is violated.
 *
 * The shadow model knows the live history-entry count and the
 * pending dead targets at every full collection the benchmark sees,
 * so it predicts the exact verdict multiset. The owner is the vault,
 * not the account: the collector falsely reports assert-unshared for
 * a target that an owner reaches (the ownership scan marks it first),
 * so no unshared profile sits inside an owner's structure.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common.h"

namespace gcbench {

namespace {

using gcassert::AssertionKind;

constexpr uint32_t kArchiveSlots = 64;
constexpr uint64_t kArchiveEvery = 61;
constexpr uint32_t kMinHistory = 8;
constexpr uint32_t kHistorySpan = 17; // lengths 8..24, mean 16

gcassert::RuntimeConfig
auditConfig(const Options &opt)
{
    gcassert::RuntimeConfig c;
    c.heap.budgetBytes = (opt.quick ? 3ull : 36ull) << 20;
    c.infrastructure = true;
    c.recordPaths = false;
    c.markThreads = 4;
    c.sweepThreads = 4;
    c.generational = false;
    if (opt.trace)
        c.observe.traceFile = opt.outDir + "/trace-heap-audit-seed" +
                              std::to_string(opt.seed) + ".json";
    return c;
}

std::string
verdictKey(uint64_t gc, AssertionKind kind, const std::string &type,
           const void *addr)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%p", addr);
    return "gc " + std::to_string(gc) + " " +
           gcassert::assertionKindName(kind) + " " + type + " " + buf;
}

class HeapAudit {
  public:
    explicit HeapAudit(const Options &opt)
        : opt_(opt), rt_(auditConfig(opt)), gc_(rt_), call_(rt_, gc_),
          rng_(streamSeed(opt.seed, 2)), accounts_(opt.quick ? 2000 : 25000)
    {
        auto &types = rt_.types();
        bankType_ = types.define("AuditBank").array().build();
        accountType_ = types.define("AuditAccount")
                           .refs({"history", "profile", "vault"})
                           .scalars(16)
                           .build();
        profileType_ = types.define("AuditProfile").scalars(48).build();
        vaultType_ = types.define("AuditVault").refs({"wallet"}).build();
        walletType_ = types.define("AuditWallet").scalars(16).build();
        entryType_ =
            types.define("AuditEntry").refs({"next"}).scalars(16).build();
        archiveType_ = types.define("AuditArchive").array().build();
        stagingType_ =
            types.define("AuditStaging").refs({"head"}).build();
        // Limit history entries at their expected mean, so the random
        // walk of the total puts some collections over it.
        entryLimit_ = uint64_t{accounts_} * 16 + kArchiveSlots * 16;
    }

    Outcome run();

  private:
    static constexpr uint32_t kHistory = 0, kProfile = 1, kVault = 2;

    Object *allocEntry();
    /** Shadow verdicts for the collection numbered @p gc. */
    void predict(uint64_t gc);
    bool step(uint64_t op);

    Options opt_;
    Runtime rt_;
    GcObserver gc_;
    Caller call_;
    Rng rng_;
    const uint32_t accounts_;
    TypeId bankType_, accountType_, profileType_, vaultType_, walletType_,
        entryType_,
        archiveType_, stagingType_;
    gcassert::Handle bank_, archive_, staging_;

    /** @name Shadow model
     *  @{ */
    std::vector<uint32_t> length_;
    std::vector<uint64_t> sum_;
    uint64_t liveEntries_ = 0;
    uint64_t entryLimit_ = 0;
    bool registered_ = false;
    struct Archived {
        Object *head = nullptr;
        uint32_t length = 0;
    };
    Archived archived_[kArchiveSlots];
    std::vector<Object *> pendingDead_;
    std::vector<std::string> expected_;
    uint64_t steps_ = 0;
    /** @} */
};

Object *
HeapAudit::allocEntry()
{
    Object *obj = call_.allocRaw(entryType_);
    // The collection ran before this object existed: the shadow state
    // as it stands is the heap the collector saw.
    if (call_.collectedLast())
        predict(rt_.collections());
    return obj;
}

void
HeapAudit::predict(uint64_t gc)
{
    if (!registered_)
        return;
    // Accounts and profiles sit exactly at their limits.
    if (liveEntries_ > entryLimit_)
        expected_.push_back(verdictKey(gc, AssertionKind::Instances,
                                       "AuditEntry", nullptr));
    for (Object *dead : pendingDead_) {
        bool kept = std::any_of(
            std::begin(archived_), std::end(archived_),
            [dead](const Archived &a) { return a.head == dead; });
        if (kept)
            expected_.push_back(
                verdictKey(gc, AssertionKind::Dead, "AuditEntry", dead));
    }
    pendingDead_.clear();
}

bool
HeapAudit::step(uint64_t op)
{
    ++steps_;
    uint32_t a = static_cast<uint32_t>(rng_.below(accounts_));
    uint32_t len = kMinHistory + static_cast<uint32_t>(rng_.below(kHistorySpan));
    Object *account = bank_->ref(a);

    // Audit: the account's history must match the shadow.
    uint64_t count = 0, sum = 0;
    for (Object *e = account->ref(kHistory); e; e = e->ref(0)) {
        ++count;
        sum += e->scalar<uint64_t>(0);
    }
    if (opt_.fault == "audit-sum" && op == 7)
        sum ^= 1;
    bool ok = count == length_[a] && sum == sum_[a];

    // Build the replacement on the rooted staging object.
    uint64_t new_sum = 0;
    for (uint32_t i = 0; i < len; ++i) {
        uint64_t amount = rng_.below(1000000);
        Object *e = allocEntry();
        e->setScalar<uint64_t>(0, amount);
        e->setScalar<uint64_t>(8, steps_);
        call_.writeRef(e, 0, staging_->ref(0));
        call_.writeRef(staging_.get(), 0, e);
        ++liveEntries_;
        new_sum += amount;
    }
    Object *old = account->ref(kHistory);
    call_.writeRef(account, kHistory, staging_->ref(0));
    call_.writeRef(staging_.get(), 0, nullptr);
    liveEntries_ -= length_[a];
    if (steps_ % kArchiveEvery == 0) {
        uint32_t slot =
            static_cast<uint32_t>((steps_ / kArchiveEvery) % kArchiveSlots);
        call_.writeRef(archive_.get(), slot, old);
        liveEntries_ += length_[a];
        liveEntries_ -= archived_[slot].length;
        archived_[slot] = Archived{old, length_[a]};
    }
    call_.timed(kRegister, "assertions.register",
                [&] { rt_.assertDead(old); });
    pendingDead_.push_back(old);
    length_[a] = len;
    sum_[a] = new_sum;
    account->setScalar<uint64_t>(0, account->scalar<uint64_t>(0) + 1);
    return ok;
}

Outcome
HeapAudit::run()
{
    Outcome out;
    recordConfig(out, rt_);
    out.config.emplace_back("accounts", std::to_string(accounts_));
    out.config.emplace_back("entryLimit", std::to_string(entryLimit_));

    bank_ = gcassert::Handle(rt_, call_.allocArray(bankType_, accounts_),
                             "audit.bank");
    archive_ = gcassert::Handle(
        rt_, call_.allocArray(archiveType_, kArchiveSlots), "audit.archive");
    staging_ = gcassert::Handle(rt_, call_.allocRaw(stagingType_),
                                "audit.staging");
    length_.assign(accounts_, 0);
    sum_.assign(accounts_, 0);
    for (uint32_t a = 0; a < accounts_; ++a) {
        Object *account = call_.allocRaw(accountType_);
        call_.writeRef(bank_.get(), a, account);
        call_.writeRef(account, kProfile, call_.allocRaw(profileType_));
        Object *vault = call_.allocRaw(vaultType_);
        call_.writeRef(account, kVault, vault);
        call_.writeRef(vault, 0, call_.allocRaw(walletType_));
        uint32_t len =
            kMinHistory + static_cast<uint32_t>(rng_.below(kHistorySpan));
        for (uint32_t i = 0; i < len; ++i) {
            uint64_t amount = rng_.below(1000000);
            Object *e = allocEntry();
            e->setScalar<uint64_t>(0, amount);
            call_.writeRef(e, 0, account->ref(kHistory));
            call_.writeRef(account, kHistory, e);
            sum_[a] += amount;
        }
        length_[a] = len;
        liveEntries_ += len;
    }

    rt_.assertInstances(accountType_, accounts_);
    rt_.assertInstances(profileType_, accounts_);
    rt_.assertInstances(entryType_, entryLimit_);
    for (uint32_t a = 0; a < accounts_; ++a) {
        Object *account = bank_->ref(a);
        rt_.assertUnshared(account->ref(kProfile));
        Object *vault = account->ref(kVault);
        rt_.assertOwnedBy(vault, vault->ref(0));
    }
    registered_ = true;
    call_.collect();
    predict(rt_.collections());

    uint64_t warm_failed = 0;
    uint64_t warmup = opt_.quick ? 5000 : 60000;
    for (uint64_t i = 0; i < warmup; ++i)
        warm_failed += step(0) ? 0 : 1;

    runWindow(out, rt_, call_, gc_, opt_, "op.audit",
              [this](uint64_t op) { return step(op); });

    call_.collect();
    predict(rt_.collections());

    out.check("audits_match_shadow", warm_failed == 0 && out.failed == 0,
              std::to_string(warm_failed + out.failed) +
                  " history audit(s) disagree with the shadow model");

    std::vector<std::string> actual;
    for (const gcassert::Violation &v : rt_.violations())
        actual.push_back(verdictKey(v.gcNumber, v.kind, v.offendingType,
                                    v.kind == AssertionKind::Dead
                                        ? v.offendingAddress
                                        : nullptr));
    std::vector<std::string> expected = expected_;
    if (opt_.fault == "verdict-set" && !expected.empty())
        expected.pop_back();
    std::sort(actual.begin(), actual.end());
    std::sort(expected.begin(), expected.end());
    std::string first_diff;
    if (actual != expected) {
        std::vector<std::string> extra, missing;
        std::set_difference(actual.begin(), actual.end(), expected.begin(),
                            expected.end(), std::back_inserter(extra));
        std::set_difference(expected.begin(), expected.end(), actual.begin(),
                            actual.end(), std::back_inserter(missing));
        first_diff = std::to_string(extra.size()) + " unexpected (" +
                     (extra.empty() ? "" : extra[0]) + "), " +
                     std::to_string(missing.size()) + " missing (" +
                     (missing.empty() ? "" : missing[0]) + ")";
    }
    out.check("verdicts_match_shadow", actual == expected, first_diff);

    uint64_t shadow_live = 1 + 1 + 1 + 4ull * accounts_ + liveEntries_;
    if (opt_.fault == "live-count")
        ++shadow_live;
    uint64_t live = rt_.gcStats().lastLiveObjects;
    out.check("live_objects_match_shadow", live == shadow_live,
              "runtime " + std::to_string(live) + ", shadow " +
                  std::to_string(shadow_live));
    checkAccounting(out, rt_, gc_, call_.objects);
    out.counts["verdicts"] = static_cast<double>(actual.size());
    out.counts["live_objects_final"] = static_cast<double>(live);

    flushSpans(rt_, call_, gc_);
    return out;
}

} // namespace

Outcome
runHeapAudit(const Options &opt)
{
    HeapAudit w(opt);
    return w.run();
}

} // namespace gcbench
