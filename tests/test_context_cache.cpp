/**
 * @file
 * ContextCache: keygen amortization and the concurrent first-touch
 * contract (N threads x one key -> exactly one keygen,
 * pointer-identical bundles), plus the split-API invariants the cache
 * rests on -- ServerContext null-keys panic and end-to-end evaluation
 * under a cached bundle. Runs under the STRIX_TSAN CI leg (label
 * `unit`), which is what makes the double-checked index trustworthy.
 */

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/test_util.h"
#include "tfhe/context_cache.h"
#include "tfhe/serialize.h"
#include "tfhe/server_context.h"

namespace strix {
namespace {

using namespace strix::test;

TEST(ContextCache, MissThenHitReturnsPointerIdenticalBundle)
{
    ContextCache cache;
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.keygenCount(), 0u);

    auto first = cache.getOrCreate(fastParams(), kSeedContextCache);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.keygenCount(), 1u);

    auto second = cache.getOrCreate(fastParams(), kSeedContextCache);
    EXPECT_EQ(second.get(), first.get());
    EXPECT_EQ(cache.keygenCount(), 1u) << "hit must not re-run keygen";
}

TEST(ContextCache, KeysetAndEvalKeysViewsShareOneGeneration)
{
    ContextCache cache;
    auto keyset =
        cache.getOrCreateKeyset(fastParams(), kSeedContextCache);
    auto keys = cache.getOrCreate(fastParams(), kSeedContextCache);
    EXPECT_EQ(keys.get(), keyset->evalKeys().get());
    EXPECT_EQ(cache.keygenCount(), 1u);
}

TEST(ContextCache, DifferentSeedsAndParamsGetDistinctBundles)
{
    ContextCache cache;
    auto a = cache.getOrCreate(fastParams(), 1);
    auto b = cache.getOrCreate(fastParams(), 2);
    auto c = cache.getOrCreate(midParams(), 1);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_NE(b.get(), c.get());
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.keygenCount(), 3u);
}

TEST(ContextCache, ClearKeepsOutstandingBundlesValid)
{
    ContextCache cache;
    auto keys = cache.getOrCreate(fastParams(), kSeedContextCache);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    // The dropped entry must stay usable through our reference.
    ServerContext server(keys);
    EXPECT_EQ(server.params().N, fastParams().N);
    // And a later lookup regenerates (a distinct allocation).
    auto again = cache.getOrCreate(fastParams(), kSeedContextCache);
    EXPECT_NE(again.get(), keys.get());
    EXPECT_EQ(cache.keygenCount(), 2u);
}

TEST(ContextCache, GlobalIsOneInstance)
{
    EXPECT_EQ(&ContextCache::global(), &ContextCache::global());
}

/**
 * The ISSUE's first-touch stress: many threads race getOrCreate on
 * the same previously-unseen key. Exactly one keygen may run, and
 * every thread must get the same published bundle. Distinct seeds
 * raced concurrently must still come out distinct.
 */
TEST(ContextCache, ConcurrentFirstTouchRunsKeygenExactlyOnce)
{
    constexpr int kThreads = 8;
    ContextCache cache;
    std::atomic<int> ready{0};
    std::vector<std::shared_ptr<const EvalKeys>> seen(kThreads);
    std::vector<std::shared_ptr<const EvalKeys>> seen_other(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            } // start barrier: maximize first-touch overlap
            seen[t] = cache.getOrCreate(fastParams(), 42);
            seen_other[t] =
                cache.getOrCreate(fastParams(), 43 + uint64_t(t) % 2);
        });
    }
    for (auto &t : threads)
        t.join();

    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t].get(), seen[0].get()) << "thread " << t;
    EXPECT_NE(seen_other[0].get(), seen[0].get());
    // seed 42 + seeds {43, 44}: exactly three cold generations.
    EXPECT_EQ(cache.keygenCount(), 3u);
    EXPECT_EQ(cache.size(), 3u);
}

/** A cached bundle must actually evaluate: end-to-end PBS round. */
TEST(ContextCache, CachedBundleEvaluatesEndToEnd)
{
    auto keyset = ContextCache::global().getOrCreateKeyset(
        fastParams(), kSeedContextCache);
    ServerContext server(
        ContextCache::global().getOrCreate(fastParams(),
                                           kSeedContextCache));
    const uint64_t space = 8;
    for (int64_t m = 0; m < 4; ++m) {
        auto ct = keyset->encryptInt(m, space);
        auto out = server.applyLut(
            ct, space, [](int64_t v) { return (v + 1) % 8; });
        EXPECT_EQ(keyset->decryptInt(out, space), (m + 1) % 8);
    }
}

TEST(ContextCacheDeathTest, ServerContextRejectsNullBundle)
{
    EXPECT_DEATH(ServerContext(nullptr),
                 "ServerContext: null EvalKeys bundle");
}

// ---------------------------------------------------------------------------
// Bytes-budgeted LRU eviction. Tests drop the returned shared_ptrs
// (immediately, or by scope) where eviction is expected: an entry is
// pinned -- never evictable -- while any external reference is alive.

TEST(ContextCacheLru, StatsCountersTrack)
{
    ContextCache cache;
    CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.resident_bytes, 0u);
    EXPECT_EQ(s.budget_bytes, 0u);

    uint64_t bundle_bytes = 0;
    {
        auto keys = cache.getOrCreate(fastParams(), 1);
        bundle_bytes = keys->residentBytes();
    }
    EXPECT_GT(bundle_bytes, 0u);
    (void)cache.getOrCreate(fastParams(), 1); // hit
    s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.resident_bytes, bundle_bytes);

    cache.clear();
    EXPECT_EQ(cache.stats().resident_bytes, 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ContextCacheLru, BudgetEvictsLeastRecentlyUsed)
{
    ContextCache cache;
    const uint64_t b =
        cache.getOrCreate(fastParams(), 1)->residentBytes();
    (void)cache.getOrCreate(fastParams(), 2);
    (void)cache.getOrCreate(fastParams(), 3);
    (void)cache.getOrCreate(fastParams(), 1); // touch: 2 is now LRU
    ASSERT_EQ(cache.keygenCount(), 3u);

    cache.setBudgetBytes(2 * b); // room for two of the three bundles
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.resident_bytes, 2 * b);

    // Survivors must be the recently used seeds 1 and 3: looking them
    // up again is a hit, while the evicted seed 2 re-runs keygen.
    (void)cache.getOrCreate(fastParams(), 1);
    (void)cache.getOrCreate(fastParams(), 3);
    EXPECT_EQ(cache.keygenCount(), 3u);
    (void)cache.getOrCreate(fastParams(), 2);
    EXPECT_EQ(cache.keygenCount(), 4u);
}

TEST(ContextCacheLru, InsertionUnderBudgetEvictsEagerly)
{
    ContextCache cache;
    const uint64_t b =
        cache.getOrCreate(fastParams(), 1)->residentBytes();
    cache.setBudgetBytes(b); // exactly one bundle fits
    (void)cache.getOrCreate(fastParams(), 2);
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u) << "inserting 2 must evict 1";
    EXPECT_EQ(s.entries, 1u);
    EXPECT_LE(s.resident_bytes, b);
    // Seed 2 -- the entry just built for the caller -- must survive.
    (void)cache.getOrCreate(fastParams(), 2);
    EXPECT_EQ(cache.keygenCount(), 2u);
}

TEST(ContextCacheLru, PinnedBundlesAreNeverEvicted)
{
    ContextCache cache;
    auto pinned = cache.getOrCreate(fastParams(), 1);
    const uint64_t b = pinned->residentBytes();
    (void)cache.getOrCreate(fastParams(), 2);

    // Room for one: the unpinned seed 2 goes, the pinned seed 1 stays.
    cache.setBudgetBytes(b);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.getOrCreate(fastParams(), 1).get(), pinned.get());
    EXPECT_EQ(cache.keygenCount(), 2u);

    // Over budget with only pinned entries left: the cache must stay
    // over budget rather than invalidate a live tenant.
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

TEST(ContextCacheLru, ZeroBudgetRestoresUnbounded)
{
    ContextCache cache;
    const uint64_t b =
        cache.getOrCreate(fastParams(), 1)->residentBytes();
    cache.setBudgetBytes(b);
    cache.setBudgetBytes(0);
    for (uint64_t seed = 2; seed <= 5; ++seed)
        (void)cache.getOrCreate(fastParams(), seed);
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 5u);
}

/**
 * Eviction racing getOrCreate: threads churn a seed space that cannot
 * fit the budget (every insert evicts) while one bundle stays pinned
 * from the main thread. Exercises the built/pinned checks in the
 * eviction scan against concurrent keygen publication; runs under the
 * STRIX_TSAN CI leg. Tiny parameters keep the many keygens cheap.
 */
TEST(ContextCacheLru, ConcurrentChurnUnderBudgetPressure)
{
    const TfheParams tiny = testParams(16, 64, 1, 2, 8, 0.0);
    constexpr int kThreads = 4;
    constexpr int kIters = 16;
    constexpr uint64_t kSeeds = 3;

    ContextCache cache;
    auto pinned = cache.getOrCreate(tiny, 0);
    cache.setBudgetBytes(pinned->residentBytes()); // 1-bundle budget

    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            for (int i = 0; i < kIters; ++i) {
                uint64_t seed = 1 + (uint64_t(t) + i) % kSeeds;
                auto keys = cache.getOrCreate(tiny, seed);
                ASSERT_NE(keys, nullptr);
                EXPECT_EQ(keys->params().N, tiny.N);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // The pinned bundle survived every eviction scan: same pointer,
    // no regeneration for its seed.
    EXPECT_EQ(cache.getOrCreate(tiny, 0).get(), pinned.get());
    CacheStats s = cache.stats();
    EXPECT_GT(s.evictions, 0u);
    EXPECT_EQ(s.hits + s.misses, uint64_t(kThreads) * kIters + 2);
}

// ---------------------------------------------------------------------------
// getOrInsert: externally-deserialized bundles (the serving daemon's
// RegisterTenant path) adopted into the same LRU budgeting and
// CacheStats as keygen entries.

/**
 * A bundle with no owner but the adopting cache and whoever holds the
 * returned pointer -- the wire shape: serialize a generated bundle and
 * re-expand it into a fresh allocation.
 */
std::shared_ptr<const EvalKeys>
externalBundle(uint64_t seed)
{
    auto keys = ContextCache::global().getOrCreate(fastParams(), seed);
    std::ostringstream os;
    serialize(os, *keys);
    std::istringstream is(os.str());
    return deserializeEvalKeys(is);
}

TEST(ContextCacheInsert, AdoptsBundleAndHitsOnRepeat)
{
    ContextCache cache;
    auto bundle = externalBundle(71);
    const uint64_t b = bundle->residentBytes();

    auto adopted = cache.getOrInsert("tenant-a", bundle);
    EXPECT_EQ(adopted.get(), bundle.get());
    CacheStats s = cache.stats();
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u) << "an insert is not a keygen miss";
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.resident_bytes, b);
    EXPECT_EQ(cache.keygenCount(), 0u);

    // Idempotent re-registration: a second upload under the same key
    // returns the *resident* bundle and drops the new copy.
    auto other = externalBundle(71);
    auto again = cache.getOrInsert("tenant-a", other);
    EXPECT_EQ(again.get(), bundle.get());
    EXPECT_NE(again.get(), other.get());
    s = cache.stats();
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.resident_bytes, b) << "no double accounting";
}

TEST(ContextCacheInsert, LookupMissesThenHitsThenServes)
{
    ContextCache cache;
    EXPECT_EQ(cache.lookup("tenant-a"), nullptr);

    auto bundle = externalBundle(72);
    (void)cache.getOrInsert("tenant-a", bundle);
    auto found = cache.lookup("tenant-a");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found.get(), bundle.get());

    // The adopted bundle must actually evaluate.
    auto keyset =
        ContextCache::global().getOrCreateKeyset(fastParams(), 72);
    ServerContext server(found);
    auto ct = keyset->encryptInt(3, 8);
    auto out = server.applyLut(ct, 8,
                               [](int64_t v) { return (v * 2) % 8; });
    EXPECT_EQ(keyset->decryptInt(out, 8), 6);
}

TEST(ContextCacheInsert, ExternalKeysAreNamespacedFromKeygen)
{
    ContextCache cache;
    (void)cache.getOrCreate(fastParams(), 73);
    // A hostile (or merely unlucky) params_key cannot collide with a
    // keygen entry, whatever string it is.
    (void)cache.getOrInsert("n=48 N=512", externalBundle(73));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.keygenCount(), 1u);
    EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(ContextCacheInsert, BudgetPressureEvictsIdleTenant)
{
    ContextCache cache;
    uint64_t b = 0;
    {
        auto bundle = externalBundle(74);
        b = bundle->residentBytes();
        (void)cache.getOrInsert("tenant-a", bundle);
    } // tenant A is now idle: no external references
    cache.setBudgetBytes(b + b / 2); // room for one bundle, not two

    // Registering B under pressure evicts idle A...
    auto b_bundle = externalBundle(75);
    auto b_res = cache.getOrInsert("tenant-b", b_bundle);
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(cache.lookup("tenant-a"), nullptr)
        << "A must re-register";
    EXPECT_NE(cache.lookup("tenant-b"), nullptr);

    // ...while B -- still referenced here, an active tenant -- is
    // pinned even when the budget drops below its size.
    cache.setBudgetBytes(b / 2);
    s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.resident_bytes, s.budget_bytes);

    // Dropping the last external reference makes B evictable.
    b_bundle.reset();
    b_res.reset();
    cache.setBudgetBytes(b / 2);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ContextCacheInsert, LruOrderSpansKeygenAndInsertedEntries)
{
    ContextCache cache;
    const uint64_t b =
        cache.getOrCreate(fastParams(), 76)->residentBytes();
    (void)cache.getOrInsert("tenant-a", externalBundle(77));
    (void)cache.getOrCreate(fastParams(), 76); // keygen entry is MRU

    cache.setBudgetBytes(b); // room for one: the idle external goes
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(cache.lookup("tenant-a"), nullptr);
    (void)cache.getOrCreate(fastParams(), 76);
    EXPECT_EQ(cache.keygenCount(), 1u) << "keygen entry survived";
}

} // namespace
} // namespace strix
