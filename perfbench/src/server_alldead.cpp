/**
 * @file
 * server-alldead: a closed-loop client serving requests back to back
 * on a registered mutator, with the non-generational collector at its
 * built-in defaults (sequential mark with path recording) and the
 * 8 MiB heap budget the server workload runs with.
 *
 * A request touches one of 256 long-lived sessions (2% of the time
 * replacing its user profile), looks a key up in a 128-entry LRU
 * cache half of the time (a miss allocates an entry and a value and
 * evicts the tail), checks out a pooled buffer, then allocates a
 * 7-14 node scratch chain inside a labelled startRegion /
 * assertAllDead bracket. The reply digest is recomputed by walking
 * the chain and written into the pooled buffer. Every 1000th request
 * leaks its chain head into a rooted list, which the next full
 * collection must report as an assert-alldead violation naming that
 * request.
 *
 * Rooting: every object the client touches across a runtime call is
 * reachable from a Handle or pinned with allocLocal. Cache entries
 * stay reachable from a rooted slot array while the LRU list is
 * re-linked, and an evicted entry stays in its slot until its
 * replacement is stored.
 *
 * One client, not four: with four clients every request makes ~30
 * calls that take the runtime's reader-writer lock, a client that
 * finds it taken sleeps in the kernel, and the clients drift between
 * running in step and convoying. Median latency and throughput then
 * move by 20-60% from run to run (README.md has the figures), which
 * no bound can absorb.
 */

#include <algorithm>
#include <unordered_map>

#include "common.h"

namespace gcbench {

namespace {

constexpr uint32_t kSessions = 256;
constexpr uint32_t kCacheCapacity = 128;
constexpr uint64_t kKeySpace = 512;
constexpr uint32_t kPoolBuffers = 16;
constexpr uint32_t kBufferBytes = 1024;
constexpr uint64_t kLeakEvery = 1000;
constexpr uint64_t kValueMul = 0x9E3779B97F4A7C15ull;

gcassert::RuntimeConfig
serverConfig(const Options &opt)
{
    gcassert::RuntimeConfig c;
    c.heap.budgetBytes = (opt.quick ? 2ull : 8ull) << 20;
    c.infrastructure = true;
    c.recordPaths = true;
    c.markThreads = 1;
    c.sweepThreads = 1;
    c.generational = false;
    if (opt.trace)
        c.observe.traceFile = opt.outDir + "/trace-server-alldead-seed" +
                              std::to_string(opt.seed) + ".json";
    return c;
}

class ServerAllDead {
  public:
    explicit ServerAllDead(const Options &opt)
        : opt_(opt), rt_(serverConfig(opt)), gc_(rt_),
          mutator_(rt_.registerMutator("client-0")),
          call_(rt_, gc_, &mutator_), rng_(streamSeed(opt.seed, 3))
    {
        auto &types = rt_.types();
        tableType_ = types.define("SrvTable").array().build();
        sessionType_ =
            types.define("SrvSession").refs({"user"}).scalars(24).build();
        userType_ = types.define("SrvUser").scalars(48).build();
        cacheType_ =
            types.define("SrvCache").refs({"head", "tail"}).build();
        entryType_ = types.define("SrvCacheEntry")
                         .refs({"value", "prev", "next"})
                         .scalars(24)
                         .build();
        valueType_ = types.define("SrvCacheValue").scalars(64).build();
        bufferType_ =
            types.define("SrvBuffer").scalars(kBufferBytes).build();
        requestType_ =
            types.define("SrvRequest").refs({"first"}).scalars(24).build();
        nodeType_ =
            types.define("SrvNode").refs({"next"}).scalars(24).build();
        leakType_ = types.define("SrvLeakList").refs({"head"}).build();
    }

    Outcome run();

  private:
    static constexpr uint32_t kHead = 0, kTail = 1;
    static constexpr uint32_t kValue = 0, kPrev = 1, kNext = 2;

    void setup();
    /** One request; returns false when an output check failed. */
    bool serve(uint64_t op);
    bool cacheLookup(uint64_t key);
    void unlink(Object *entry);
    void pushFront(Object *entry);

    Options opt_;
    Runtime rt_;
    GcObserver gc_;
    gcassert::MutatorContext &mutator_;
    Caller call_;
    Rng rng_;
    TypeId tableType_, sessionType_, userType_, cacheType_, entryType_,
        valueType_, bufferType_, requestType_, nodeType_, leakType_;
    gcassert::Handle sessions_, cache_, cacheSlots_, pool_, leaks_;

    std::unordered_map<uint64_t, uint32_t> cacheIndex_;
    uint32_t cacheUsed_ = 0;
    std::vector<uint32_t> poolFree_;
    uint64_t poolCheckouts_ = 0;

    uint64_t served_ = 0;
    uint64_t digestFailures_ = 0;
    uint64_t cacheFailures_ = 0;
    std::vector<std::string> leakedLabels_;
};

void
ServerAllDead::setup()
{
    sessions_ = gcassert::Handle(
        rt_, call_.allocArray(tableType_, kSessions), "srv.sessions");
    for (uint32_t i = 0; i < kSessions; ++i) {
        Object *session = call_.allocRaw(sessionType_);
        call_.writeRef(sessions_.get(), i, session);
        call_.writeRef(session, 0, call_.allocRaw(userType_));
    }
    cache_ = gcassert::Handle(rt_, call_.allocRaw(cacheType_), "srv.cache");
    cacheSlots_ = gcassert::Handle(
        rt_, call_.allocArray(tableType_, kCacheCapacity), "srv.cache.slots");
    pool_ = gcassert::Handle(
        rt_, call_.allocArray(tableType_, kPoolBuffers), "srv.pool");
    for (uint32_t i = 0; i < kPoolBuffers; ++i) {
        call_.writeRef(pool_.get(), i, call_.allocRaw(bufferType_));
        poolFree_.push_back(i);
    }
    leaks_ = gcassert::Handle(rt_, call_.allocRaw(leakType_), "srv.leaks");
}

void
ServerAllDead::unlink(Object *entry)
{
    Object *prev = entry->ref(kPrev);
    Object *next = entry->ref(kNext);
    if (prev)
        call_.writeRef(prev, kNext, next);
    else
        call_.writeRef(cache_.get(), kHead, next);
    if (next)
        call_.writeRef(next, kPrev, prev);
    else
        call_.writeRef(cache_.get(), kTail, prev);
    call_.writeRef(entry, kPrev, nullptr);
    call_.writeRef(entry, kNext, nullptr);
}

void
ServerAllDead::pushFront(Object *entry)
{
    Object *old_head = cache_->ref(kHead);
    call_.writeRef(entry, kNext, old_head);
    if (old_head)
        call_.writeRef(old_head, kPrev, entry);
    else
        call_.writeRef(cache_.get(), kTail, entry);
    call_.writeRef(cache_.get(), kHead, entry);
}

bool
ServerAllDead::cacheLookup(uint64_t key)
{
    auto it = cacheIndex_.find(key);
    if (it != cacheIndex_.end()) {
        Object *entry = cacheSlots_->ref(it->second);
        Object *value = entry->ref(kValue);
        bool ok = entry->scalar<uint64_t>(0) == key && value &&
                  value->scalar<uint64_t>(0) == key * kValueMul;
        entry->setScalar<uint64_t>(16, entry->scalar<uint64_t>(16) + 1);
        unlink(entry);
        pushFront(entry);
        return ok;
    }
    uint32_t slot;
    if (cacheUsed_ == kCacheCapacity) {
        // The victim stays in its slot until the new entry replaces it.
        Object *victim = cache_->ref(kTail);
        slot = static_cast<uint32_t>(victim->scalar<uint64_t>(8));
        cacheIndex_.erase(victim->scalar<uint64_t>(0));
        unlink(victim);
    } else {
        slot = cacheUsed_++;
    }
    Object *entry = call_.allocLocal(entryType_);
    entry->setScalar<uint64_t>(0, key);
    entry->setScalar<uint64_t>(8, slot);
    Object *value = call_.allocLocal(valueType_);
    value->setScalar<uint64_t>(0, key * kValueMul);
    call_.writeRef(entry, kValue, value);
    call_.writeRef(cacheSlots_.get(), slot, entry);
    pushFront(entry);
    cacheIndex_[key] = slot;
    return true;
}

bool
ServerAllDead::serve(uint64_t op)
{
    uint64_t k = ++served_;
    Object *session =
        sessions_->ref(static_cast<uint32_t>(rng_.below(kSessions)));
    session->setScalar<uint64_t>(0, session->scalar<uint64_t>(0) + 1);
    if (rng_.below(50) == 0) {
        Object *user = call_.allocLocal(userType_);
        user->setScalar<uint64_t>(0, k);
        call_.writeRef(session, 0, user);
    }
    bool cache_ok = rng_.below(2) != 0 || cacheLookup(rng_.below(kKeySpace));
    uint32_t pool_idx = poolFree_.back();
    poolFree_.pop_back();
    if (++poolCheckouts_ % 512 == 0)
        call_.writeRef(pool_.get(), pool_idx, call_.allocLocal(bufferType_));
    Object *buffer = pool_->ref(pool_idx);
    call_.dropLocalRoots();

    // The request region: everything allocated from here to the reply
    // must be garbage once the reply is sent.
    std::string label = "req-" + std::to_string(k);
    call_.timed(kStartRegion, "assertions.start_region",
                [&] { rt_.startRegion(&mutator_, label); });
    Object *req = call_.allocLocal(requestType_);
    req->setScalar<uint64_t>(0, k);
    uint32_t n = 7 + static_cast<uint32_t>(rng_.below(8));
    uint64_t payloads[14];
    Object *head = nullptr;
    for (uint32_t i = 0; i < n; ++i) {
        Object *node = call_.allocLocal(nodeType_);
        payloads[i] = rng_.next();
        node->setScalar<uint64_t>(0, payloads[i]);
        call_.writeRef(node, 0, head);
        head = node;
    }
    call_.writeRef(req, 0, head);

    // The generator's digest, in the order the reply walks the chain.
    uint64_t expect = k;
    for (uint32_t i = n; i-- > 0;)
        expect = mixDigest(expect, payloads[i]);
    if (opt_.fault == "reply-digest" && op == 7)
        expect ^= 1;
    uint64_t reply = req->scalar<uint64_t>(0);
    uint32_t walked = 0;
    for (Object *o = req->ref(0); o; o = o->ref(0), ++walked)
        reply = mixDigest(reply, o->scalar<uint64_t>(0));
    bool digest_ok = walked == n && reply == expect;
    for (uint32_t i = 0; i < 16; ++i)
        buffer->setScalar<uint64_t>(i * 8, reply + i);

    if (k % kLeakEvery == 0) {
        // Injected leak: the chain head escapes into the rooted list.
        call_.writeRef(head, 0, leaks_->ref(0));
        call_.writeRef(leaks_.get(), 0, head);
        leakedLabels_.push_back(label);
    }
    poolFree_.push_back(pool_idx);
    // Unpin before the flush, as the region idiom requires.
    call_.dropLocalRoots();
    call_.timed(kAssertAllDead, "assertions.assert_all_dead",
                [&] { rt_.assertAllDead(&mutator_); });

    digestFailures_ += digest_ok ? 0 : 1;
    cacheFailures_ += cache_ok ? 0 : 1;
    return digest_ok && cache_ok;
}

Outcome
ServerAllDead::run()
{
    Outcome out;
    recordConfig(out, rt_);
    out.config.emplace_back("clients", "1");

    setup();
    uint64_t warmup = opt_.quick ? 5000 : 100000;
    for (uint64_t i = 0; i < warmup; ++i)
        serve(0);

    runWindow(out, rt_, call_, gc_, opt_, "op.request",
              [this](uint64_t op) { return serve(op); });

    // Final collection: reports the leaks injected since the last one.
    call_.collect();

    // The digest and cache checks cover the warm-up requests too.
    uint64_t visits = 0;
    for (uint32_t i = 0; i < kSessions; ++i)
        visits += sessions_->ref(i)->scalar<uint64_t>(0);
    out.check("every_request_served", visits == served_,
              "session visits " + std::to_string(visits) + ", requests " +
                  std::to_string(served_));
    out.check("reply_digests_match", digestFailures_ == 0,
              std::to_string(digestFailures_) + " reply digest mismatch(es)");
    out.check("cache_values_match", cacheFailures_ == 0,
              std::to_string(cacheFailures_) +
                  " cache hit(s) with a wrong value");

    // Verdicts: exactly one assert-alldead per injected leak, naming
    // its request, and nothing else.
    std::vector<std::string> reported;
    uint64_t other = 0;
    for (const gcassert::Violation &v : rt_.violations()) {
        size_t at = v.message.find("req-");
        if (v.kind != gcassert::AssertionKind::AllDead ||
            at == std::string::npos) {
            ++other;
            continue;
        }
        size_t stop = v.message.find_first_not_of("0123456789", at + 4);
        reported.push_back(v.message.substr(at, stop - at));
    }
    std::vector<std::string> injected = leakedLabels_;
    if (opt_.fault == "leak-labels")
        injected.pop_back();
    std::sort(reported.begin(), reported.end());
    std::sort(injected.begin(), injected.end());
    out.check("alldead_verdicts_are_injected_leaks",
              other == 0 && reported == injected,
              std::to_string(reported.size()) + " labelled reports, " +
                  std::to_string(injected.size()) + " injected leaks, " +
                  std::to_string(other) + " other verdict(s)");
    checkAccounting(out, rt_, gc_, call_.objects);
    out.counts["leaks_injected"] = static_cast<double>(leakedLabels_.size());
    out.counts["requests_total"] = static_cast<double>(served_);

    flushSpans(rt_, call_, gc_);
    return out;
}

} // namespace

Outcome
runServerAllDead(const Options &opt)
{
    ServerAllDead w(opt);
    return w.run();
}

} // namespace gcbench
