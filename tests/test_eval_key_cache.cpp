/**
 * @file
 * EvalKeyCache, the daemon's tenant key store: idempotent insert,
 * lookup, bytes-budgeted LRU eviction with pinning, and the
 * CacheStats counters. The concurrent cases run under the STRIX_TSAN
 * CI leg (label `unit`), which is what makes the single-mutex store
 * trustworthy from several threads.
 */

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/test_util.h"
#include "tfhe/eval_key_cache.h"
#include "tfhe/serialize.h"
#include "tfhe/server_context.h"

namespace strix {
namespace {

using namespace strix::test;

/**
 * A bundle nothing else holds: generate a keyset and keep only its
 * public half, so the store's pin check sees the caller's reference
 * alone.
 */
std::shared_ptr<const EvalKeys>
bundleFor(uint64_t seed, const TfheParams &params = fastParams())
{
    return ClientKeyset(params, seed).evalKeys();
}

/** The wire shape: @p keys serialized and re-expanded, a fresh copy. */
std::shared_ptr<const EvalKeys>
overTheWire(const EvalKeys &keys)
{
    std::ostringstream os;
    serialize(os, keys);
    std::istringstream is(os.str());
    return deserializeEvalKeys(is);
}

TEST(EvalKeyCache, LookupMissesThenHitsPointerIdentical)
{
    EvalKeyCache cache;
    EXPECT_EQ(cache.lookup(1), nullptr);
    EXPECT_EQ(cache.stats().entries, 0u);

    auto bundle = bundleFor(71);
    (void)cache.insert(1, bundle);
    auto first = cache.lookup(1);
    auto second = cache.lookup(1);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first.get(), bundle.get());
    EXPECT_EQ(second.get(), first.get());
    EXPECT_EQ(cache.stats().hits, 2u);
}

/**
 * The store adopts a keyset's bundle by pointer: what a tenant's
 * sessions share is what the executor shards on.
 */
TEST(EvalKeyCache, AdoptsKeysetBundleWithoutCopy)
{
    EvalKeyCache cache;
    auto keyset = std::make_shared<const ClientKeyset>(fastParams(), 72);
    EXPECT_EQ(cache.insert(1, keyset->evalKeys()).get(),
              keyset->evalKeys().get());
    EXPECT_EQ(cache.lookup(1).get(), keyset->evalKeys().get());
}

TEST(EvalKeyCache, DistinctTenantsGetDistinctEntries)
{
    EvalKeyCache cache;
    (void)cache.insert(1, bundleFor(1));
    (void)cache.insert(2, bundleFor(2));
    (void)cache.insert(3, bundleFor(1, midParams()));
    auto a = cache.lookup(1);
    auto b = cache.lookup(2);
    auto c = cache.lookup(3);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_NE(b.get(), c.get());
    EXPECT_EQ(c->params().N, midParams().N);
    CacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 3u);
    EXPECT_EQ(s.inserts, 3u);
}

TEST(EvalKeyCache, ReRegistrationReturnsResidentBundle)
{
    EvalKeyCache cache;
    auto keys = bundleFor(73);
    auto bundle = overTheWire(*keys);
    const uint64_t b = bundle->residentBytes();

    auto adopted = cache.insert(1, bundle);
    EXPECT_EQ(adopted.get(), bundle.get());
    CacheStats s = cache.stats();
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.resident_bytes, b);

    // A second upload under the same tenant returns the *resident*
    // bundle and drops the new copy.
    auto other = overTheWire(*keys);
    auto again = cache.insert(1, other);
    EXPECT_EQ(again.get(), bundle.get());
    EXPECT_NE(again.get(), other.get());
    s = cache.stats();
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.resident_bytes, b) << "no double accounting";
}

/**
 * Connections of one tenant registering at once: exactly one upload
 * is adopted and every caller gets that bundle back.
 */
TEST(EvalKeyCache, ConcurrentReRegistrationAdoptsOneBundle)
{
    constexpr int kThreads = 8;
    const std::shared_ptr<const EvalKeys> uploads[2] = {bundleFor(74),
                                                        bundleFor(75)};
    EvalKeyCache cache;
    std::atomic<int> ready{0};
    std::vector<std::shared_ptr<const EvalKeys>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            } // start barrier: maximize overlap
            seen[size_t(t)] = cache.insert(7, uploads[t % 2]);
        });
    }
    for (auto &t : threads)
        t.join();

    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[size_t(t)].get(), seen[0].get()) << "thread " << t;
    EXPECT_EQ(cache.lookup(7).get(), seen[0].get());
    CacheStats s = cache.stats();
    EXPECT_EQ(s.inserts, 1u);
    // Every insert but the adopted one is a hit, and so is the lookup.
    EXPECT_EQ(s.hits, uint64_t(kThreads));
    EXPECT_EQ(s.entries, 1u);
}

/**
 * The registration path a tenant's first request takes: lookup
 * misses, the uploaded bundle is adopted, and what lookup then
 * returns is that bundle and serves.
 */
TEST(EvalKeyCache, LookupMissesThenHitsThenServes)
{
    ClientKeyset keyset(fastParams(), 77);
    EvalKeyCache cache;
    EXPECT_EQ(cache.lookup(1), nullptr);

    auto bundle = overTheWire(*keyset.evalKeys());
    (void)cache.insert(1, bundle);
    auto found = cache.lookup(1);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found.get(), bundle.get());

    ServerContext server(found);
    auto ct = keyset.encryptInt(3, 8);
    auto out = server.applyLut(ct, 8,
                               [](int64_t v) { return (v * 2) % 8; });
    EXPECT_EQ(keyset.decryptInt(out, 8), 6);
}

/** A bundle that came over the wire must actually evaluate. */
TEST(EvalKeyCache, InsertedBundleEvaluatesEndToEnd)
{
    ClientKeyset keyset(fastParams(), 76);
    EvalKeyCache cache;
    (void)cache.insert(1, overTheWire(*keyset.evalKeys()));
    ServerContext server(cache.lookup(1));
    const uint64_t space = 8;
    for (int64_t m = 0; m < 4; ++m) {
        auto ct = keyset.encryptInt(m, space);
        auto out = server.applyLut(
            ct, space, [](int64_t v) { return (v * 2 + 1) % 8; });
        EXPECT_EQ(keyset.decryptInt(out, space), (m * 2 + 1) % 8);
    }
}

// ---------------------------------------------------------------------------
// Bytes-budgeted LRU eviction. Tests drop the returned shared_ptrs
// (immediately, or by scope) where eviction is expected: an entry is
// pinned -- never evictable -- while any external reference is alive.

TEST(EvalKeyCacheLru, StatsCountersTrack)
{
    EvalKeyCache cache;
    CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.inserts, 0u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.resident_bytes, 0u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.budget_bytes, 0u);

    const uint64_t b = cache.insert(1, bundleFor(1))->residentBytes();
    EXPECT_GT(b, 0u);
    (void)cache.lookup(1); // hit
    (void)cache.lookup(2); // miss: counts nothing
    cache.setBudgetBytes(3 * b);
    s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.resident_bytes, b);
    EXPECT_EQ(s.budget_bytes, 3 * b);
}

TEST(EvalKeyCacheLru, BudgetEvictsLeastRecentlyUsed)
{
    EvalKeyCache cache;
    const uint64_t b = cache.insert(1, bundleFor(1))->residentBytes();
    (void)cache.insert(2, bundleFor(2));
    (void)cache.insert(3, bundleFor(3));
    (void)cache.lookup(1); // touch: 2 is now LRU

    cache.setBudgetBytes(2 * b); // room for two of the three bundles
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.resident_bytes, 2 * b);

    // Survivors are the recently used tenants 1 and 3.
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_NE(cache.lookup(3), nullptr);
    EXPECT_EQ(cache.lookup(2), nullptr);
}

TEST(EvalKeyCacheLru, InsertionUnderBudgetEvictsEagerly)
{
    EvalKeyCache cache;
    const uint64_t b = cache.insert(1, bundleFor(1))->residentBytes();
    cache.setBudgetBytes(b); // exactly one bundle fits
    (void)cache.insert(2, bundleFor(2));
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u) << "inserting 2 must evict 1";
    EXPECT_EQ(s.entries, 1u);
    EXPECT_LE(s.resident_bytes, b);
    // Tenant 2 -- the entry just inserted -- must survive.
    EXPECT_NE(cache.lookup(2), nullptr);
    EXPECT_EQ(cache.lookup(1), nullptr);
}

TEST(EvalKeyCacheLru, PinnedBundlesAreNeverEvicted)
{
    EvalKeyCache cache;
    auto pinned = cache.insert(1, bundleFor(1));
    const uint64_t b = pinned->residentBytes();
    (void)cache.insert(2, bundleFor(2));

    // Room for one: the unpinned tenant 2 goes, the pinned 1 stays.
    cache.setBudgetBytes(b);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.lookup(1).get(), pinned.get());

    // Over budget with only pinned entries left: the store must stay
    // over budget rather than drop a live tenant.
    cache.setBudgetBytes(b / 2);
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.resident_bytes, s.budget_bytes);

    // Unpinning makes it evictable on the next budget application.
    pinned.reset();
    cache.setBudgetBytes(b / 2);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(EvalKeyCacheLru, ZeroBudgetRestoresUnbounded)
{
    EvalKeyCache cache;
    const uint64_t b = cache.insert(1, bundleFor(1))->residentBytes();
    cache.setBudgetBytes(b);
    cache.setBudgetBytes(0);
    for (uint64_t tenant = 2; tenant <= 5; ++tenant)
        (void)cache.insert(tenant, bundleFor(tenant));
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 5u);
}

TEST(EvalKeyCacheLru, BudgetPressureEvictsIdleTenant)
{
    EvalKeyCache cache;
    uint64_t b = 0;
    {
        auto bundle = bundleFor(77);
        b = bundle->residentBytes();
        (void)cache.insert(1, bundle);
    } // tenant 1 is now idle: no external references
    cache.setBudgetBytes(b + b / 2); // room for one bundle, not two

    // Registering tenant 2 under pressure evicts idle tenant 1...
    auto b_bundle = bundleFor(78);
    auto b_res = cache.insert(2, b_bundle);
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(cache.lookup(1), nullptr) << "tenant 1 must re-register";
    EXPECT_NE(cache.lookup(2), nullptr);

    // ...while tenant 2 -- still referenced here, an active tenant --
    // is pinned even when the budget drops below its size.
    cache.setBudgetBytes(b / 2);
    s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.resident_bytes, s.budget_bytes);

    // Dropping the last external reference makes it evictable.
    b_bundle.reset();
    b_res.reset();
    cache.setBudgetBytes(b / 2);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

/**
 * An evicted tenant re-registers: the store adopts the new upload (a
 * distinct allocation), and its bytes are charged again.
 */
TEST(EvalKeyCacheLru, EvictedTenantReRegistersFreshBundle)
{
    EvalKeyCache cache;
    auto keys = bundleFor(79);
    const uint64_t b = keys->residentBytes();
    (void)cache.insert(1, overTheWire(*keys));
    cache.setBudgetBytes(b);
    (void)cache.insert(2, bundleFor(80)); // evicts idle tenant 1
    ASSERT_EQ(cache.lookup(1), nullptr);

    cache.setBudgetBytes(0);
    auto upload = overTheWire(*keys);
    EXPECT_EQ(cache.insert(1, upload).get(), upload.get());
    EXPECT_EQ(cache.lookup(1).get(), upload.get());
    CacheStats s = cache.stats();
    EXPECT_EQ(s.inserts, 3u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.resident_bytes, 2 * b);
}

/**
 * Eviction racing insert and lookup: threads churn a tenant space
 * that cannot fit the budget (every insert evicts) while one bundle
 * stays pinned from the main thread. Runs under the STRIX_TSAN CI
 * leg. Tiny parameters keep the bundles cheap to build.
 */
TEST(EvalKeyCacheLru, ConcurrentChurnUnderBudgetPressure)
{
    const TfheParams tiny = testParams(16, 64, 1, 2, 8, 0.0);
    constexpr int kThreads = 4;
    constexpr int kIters = 16;
    constexpr uint64_t kTenants = 3;

    EvalKeyCache cache;
    auto pinned = cache.insert(0, bundleFor(0, tiny));
    cache.setBudgetBytes(pinned->residentBytes()); // 1-bundle budget

    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            for (int i = 0; i < kIters; ++i) {
                const uint64_t tenant =
                    1 + (uint64_t(t) + uint64_t(i)) % kTenants;
                auto keys = cache.lookup(tenant);
                if (!keys) // evicted: re-register a fresh upload
                    keys = cache.insert(tenant, bundleFor(tenant, tiny));
                ASSERT_NE(keys, nullptr);
                EXPECT_EQ(keys->params().N, tiny.N);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // The pinned bundle survived every eviction scan.
    EXPECT_EQ(cache.lookup(0).get(), pinned.get());
    CacheStats s = cache.stats();
    EXPECT_GT(s.evictions, 0u);
    // One hit or insert per iteration, plus the main thread's pin and
    // final lookup.
    EXPECT_EQ(s.hits + s.inserts, uint64_t(kThreads) * kIters + 2);
}

} // namespace
} // namespace strix
