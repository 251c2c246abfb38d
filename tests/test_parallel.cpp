/**
 * @file
 * Thread-parallel PBS: the ThreadPool primitive, the lock-free FFT
 * plan caches under concurrent first touch, and the batched bootstrap
 * path -- including the N-threads-x-M-bootstraps stress test that
 * asserts bit-exact agreement with the single-threaded path on one
 * shared context. Labeled `slow`; this suite is what the TSan CI job
 * exists to watch.
 */

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "poly/complex_fft.h"
#include "poly/negacyclic_fft.h"
#include "support/test_util.h"
#include "tfhe/server_context.h"

using namespace strix;
using namespace strix::test;

namespace {

/** Bit-exact LWE ciphertext comparison (mask scalars and body). */
void
expectSameCiphertext(const LweCiphertext &a, const LweCiphertext &b,
                     size_t index)
{
    EXPECT_EQ(a.raw(), b.raw()) << "ciphertext " << index
                                << " differs from sequential path";
}

} // namespace

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    std::atomic<bool> worker_in_range{true};
    pool.parallelFor(kCount, [&](size_t i, unsigned worker) {
        if (worker >= pool.threads())
            worker_in_range = false;
        hits[i].fetch_add(1);
    });
    EXPECT_TRUE(worker_in_range.load());
    for (size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::vector<size_t> order;
    pool.parallelFor(8, [&](size_t i, unsigned worker) {
        EXPECT_EQ(worker, 0u);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 8u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, CountSmallerThanPool)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelFor(3, [&](size_t i, unsigned) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ZeroCountIsANoop)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [&](size_t, unsigned) { FAIL(); });
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](size_t i, unsigned) {
                                      if (i == 17)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> ran{0};
    pool.parallelFor(10, [&](size_t, unsigned) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, DefaultThreadCountIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

/**
 * Regression for the serial-fallback error contract: a 1-thread pool
 * (and count == 1 on any pool) used to bypass the abort_/first_error_
 * machinery and let exceptions fly out mid-loop. The contract must be
 * identical inline and across N workers: same exception type and
 * message on the caller, remaining indices never attempted after the
 * throw, pool fully usable afterwards with no stale deferred error.
 */
TEST(ThreadPool, ErrorContractIdenticalInlineAndParallel)
{
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        std::atomic<int> attempts{0};
        bool caught = false;
        try {
            pool.parallelFor(16, [&](size_t i, unsigned) {
                attempts.fetch_add(1);
                if (i == 3)
                    throw std::runtime_error("contract");
            });
        } catch (const std::runtime_error &e) {
            caught = true;
            EXPECT_STREQ(e.what(), "contract");
        }
        EXPECT_TRUE(caught);
        if (threads == 1) {
            // Inline order is deterministic: indices 0..3 ran, the
            // abort flag stopped everything after the throw.
            EXPECT_EQ(attempts.load(), 4);
        } else {
            EXPECT_LE(attempts.load(), 16);
        }
        // The next loop must run clean: every index covered, and no
        // stale first_error_ rethrown from the previous job.
        std::atomic<int> ran{0};
        pool.parallelFor(8, [&](size_t, unsigned) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 8);
    }
}

TEST(ThreadPool, CountOneOnParallelPoolUsesErrorContract)
{
    // count == 1 takes the inline path even on a multi-worker pool.
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(
                     1, [](size_t, unsigned) {
                         throw std::logic_error("single");
                     }),
                 std::logic_error);
    std::atomic<int> ran{0};
    pool.parallelFor(1, [&](size_t, unsigned) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 1);
}

/**
 * STRIX_THREADS parsing fixture: snapshots and restores the variable
 * around each case so the suite leaves the environment untouched.
 */
class StrixThreadsEnv : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (const char *old = std::getenv("STRIX_THREADS")) {
            saved_ = old;
            had_value_ = true;
        }
        unsetenv("STRIX_THREADS");
        fallback_ = ThreadPool::defaultThreadCount();
    }

    void TearDown() override
    {
        if (had_value_)
            setenv("STRIX_THREADS", saved_.c_str(), 1);
        else
            unsetenv("STRIX_THREADS");
    }

    std::string saved_;
    bool had_value_ = false;
    unsigned fallback_ = 0; //!< hardware default with the var unset
};

TEST_F(StrixThreadsEnv, PositiveOverrideIsHonored)
{
    setenv("STRIX_THREADS", "7", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 7u);
}

TEST_F(StrixThreadsEnv, NegativeValueFallsBackToDefault)
{
    // strtoul happily parses "-1" as ULONG_MAX; before the sign check
    // that was rejected only by luck of the [1, 4096] range test.
    setenv("STRIX_THREADS", "-1", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
}

TEST_F(StrixThreadsEnv, WrappingNegativeValueFallsBackToDefault)
{
    // The regression this satellite fixes: -(2^64 - 4096) wraps under
    // strtoul's modular parse to exactly 4096 -- inside the accepted
    // range -- so the old code silently spun up 4096 workers.
    setenv("STRIX_THREADS", "-18446744073709547520", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
}

TEST_F(StrixThreadsEnv, WhitespacePrefixedNegativeIsRejected)
{
    setenv("STRIX_THREADS", "  -3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
}

TEST_F(StrixThreadsEnv, GarbageAndOutOfRangeFallBackToDefault)
{
    setenv("STRIX_THREADS", "not-a-number", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
    setenv("STRIX_THREADS", "0", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
    setenv("STRIX_THREADS", "5000", 1); // above the 4096 cap
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
}

/**
 * Many threads race to build the same (previously untouched) plan
 * sizes. Before the caches were synchronized this corrupted the
 * std::map; now every thread must get the same published instance.
 * Uses sizes no other suite requests so the first touch really is
 * concurrent.
 */
TEST(FftPlanCache, ConcurrentFirstTouchPublishesOneInstance)
{
    constexpr size_t kPlanSize = size_t{1} << 14;
    constexpr size_t kRingDim = size_t{1} << 13;
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<const FftPlan *> plans(kThreads, nullptr);
    std::vector<const NegacyclicFft *> engines(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            } // start barrier: maximize first-touch overlap
            plans[t] = &FftPlan::get(kPlanSize);
            engines[t] = &NegacyclicFft::get(kRingDim);
        });
    }
    for (auto &t : threads)
        t.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(plans[t], plans[0]);
        EXPECT_EQ(engines[t], engines[0]);
    }
    EXPECT_EQ(plans[0]->size(), kPlanSize);
    EXPECT_EQ(engines[0]->ringDim(), kRingDim);
}

TEST(FftPlanCache, PrewarmPublishesPlan)
{
    NegacyclicFft::prewarm(size_t{1} << 12);
    EXPECT_EQ(NegacyclicFft::get(size_t{1} << 12).ringDim(),
              size_t{1} << 12);
    FftPlan::prewarm(size_t{1} << 15);
    EXPECT_EQ(FftPlan::get(size_t{1} << 15).size(), size_t{1} << 15);
}

class BatchPbs : public ::testing::Test
{
  protected:
    BatchPbs() : keys_(fastParams(), kSeedParallel) {}

    static constexpr uint64_t kSpace = 8;

    std::vector<LweCiphertext> encryptRange(size_t count)
    {
        std::vector<LweCiphertext> cts;
        for (size_t i = 0; i < count; ++i)
            cts.push_back(
                keys_.client.encryptInt(int64_t(i % kSpace), kSpace));
        return cts;
    }

    TestKeys keys_;
    const ClientKeyset &client() { return keys_.client; }
    ServerContext &server() { return keys_.server; }
};

TEST_F(BatchPbs, BatchMatchesSequentialBitExact)
{
    auto cts = encryptRange(12);
    TorusPolynomial tv = makeIntTestVector(
        server().params().N, kSpace,
        [](int64_t v) { return (v + 3) % int64_t(kSpace); });

    std::vector<LweCiphertext> seq;
    for (const auto &ct : cts)
        seq.push_back(server().bootstrap(ct, tv));

    server().setBatchThreads(4);
    ASSERT_EQ(server().batchThreads(), 4u);
    std::vector<LweCiphertext> batch = server().bootstrapBatch(cts, tv);

    ASSERT_EQ(batch.size(), seq.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        expectSameCiphertext(batch[i], seq[i], i);
        EXPECT_EQ(client().decryptInt(batch[i], kSpace),
                  int64_t((i % kSpace + 3) % kSpace));
    }
}

TEST_F(BatchPbs, ApplyLutBatchMatchesApplyLut)
{
    auto cts = encryptRange(6);
    auto square = [](int64_t v) { return (v * v) % int64_t(kSpace); };

    server().setBatchThreads(3);
    std::vector<LweCiphertext> batch =
        server().applyLutBatch(cts, kSpace, square);

    ASSERT_EQ(batch.size(), cts.size());
    for (size_t i = 0; i < cts.size(); ++i)
        expectSameCiphertext(
            batch[i], server().applyLut(cts[i], kSpace, square), i);
}

TEST_F(BatchPbs, DeterministicAcrossThreadCounts)
{
    auto cts = encryptRange(9);
    TorusPolynomial tv = makeIntTestVector(
        server().params().N, kSpace, [](int64_t v) { return v; });

    server().setBatchThreads(1);
    std::vector<LweCiphertext> one = server().bootstrapBatch(cts, tv);
    server().setBatchThreads(4);
    std::vector<LweCiphertext> four = server().bootstrapBatch(cts, tv);

    ASSERT_EQ(one.size(), four.size());
    for (size_t i = 0; i < one.size(); ++i)
        expectSameCiphertext(four[i], one[i], i);
}

/**
 * Key-stationary chunks: bootstrapBatch cuts the batch into one
 * contiguous chunk per worker and blind-rotates each chunk bit by
 * bit (blindRotateBatch). Every out[i] must still be bit-identical to
 * a lone bootstrap(cts[i], *tvs[i]) -- at widths that split unevenly
 * across the pool, with a different LUT per neighbour, and with
 * ciphertexts whose modswitched mask has zero entries (the CMux skip
 * path must skip for that ciphertext only, not for its chunk).
 */
TEST_F(BatchPbs, KeyStationaryChunksMatchPerCiphertextBootstrap)
{
    const uint32_t big_n = server().params().N;
    const std::vector<TorusPolynomial> luts{
        makeIntTestVector(big_n, kSpace, [](int64_t v) { return v; }),
        makeIntTestVector(big_n, kSpace,
                          [](int64_t v) { return (v + 3) % int64_t(kSpace); }),
        makeIntTestVector(big_n, kSpace, [](int64_t v) {
            return (v * v) % int64_t(kSpace);
        })};
    const auto lut_of = [&](size_t i) -> const TorusPolynomial & {
        return luts[i % luts.size()];
    };
    const auto apply = [](size_t which, int64_t v) -> int64_t {
        switch (which) {
          case 0: return v;
          case 1: return (v + 3) % int64_t(kSpace);
          default: return (v * v) % int64_t(kSpace);
        }
    };

    for (size_t width : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                         size_t{16}}) {
        std::vector<LweCiphertext> cts = encryptRange(width);
        // A trivial ciphertext: every mask entry, hence every a~_i,
        // is zero, so its blind rotation skips all n CMuxes.
        cts[0] = LweCiphertext::trivial(server().params().n,
                                        encodeLut(5, kSpace));
        // Zeroed mask entries in the middle of the batch: those
        // iterations skip for this ciphertext while its chunk
        // neighbours still run them.
        LweCiphertext &holes = cts[width / 2];
        if (width > 1)
            for (uint32_t i = 0; i < holes.dim(); i += 3)
                holes.a(i) = 0;

        std::vector<const TorusPolynomial *> tvs;
        for (size_t i = 0; i < width; ++i)
            tvs.push_back(&lut_of(i));
        std::vector<LweCiphertext> seq;
        for (size_t i = 0; i < width; ++i)
            seq.push_back(server().bootstrap(cts[i], *tvs[i]));

        for (unsigned threads : {1u, 3u, 4u}) {
            server().setBatchThreads(threads);
            std::vector<LweCiphertext> batch =
                server().bootstrapBatch(cts.data(), tvs.data(), width);
            ASSERT_EQ(batch.size(), width);
            for (size_t i = 0; i < width; ++i)
                EXPECT_EQ(batch[i].raw(), seq[i].raw())
                    << "width " << width << " threads " << threads
                    << " ciphertext " << i;
        }
        EXPECT_EQ(client().decryptInt(seq[0], kSpace), apply(0, 5));
        for (size_t i = 1; i < width; ++i) {
            if (width > 1 && i == width / 2)
                continue; // zeroed mask entries moved its phase
            EXPECT_EQ(client().decryptInt(seq[i], kSpace),
                      apply(i % luts.size(), int64_t(i % kSpace)))
                << "width " << width << " ciphertext " << i;
        }
    }
}

/**
 * The stress test the ISSUE asks for: N threads x M bootstraps against
 * one shared context (hand-rolled std::thread, not the pool), checked
 * bit-exactly against the sequential answers. This is the workload
 * that used to race on the FFT plan caches.
 */
TEST_F(BatchPbs, SharedContextConcurrentBootstrapsMatchSequential)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 3;
    auto cts = encryptRange(kThreads * kPerThread);
    TorusPolynomial tv = makeIntTestVector(
        server().params().N, kSpace,
        [](int64_t v) { return (2 * v) % int64_t(kSpace); });

    std::vector<LweCiphertext> seq;
    for (const auto &ct : cts)
        seq.push_back(server().bootstrap(ct, tv));

    std::vector<LweCiphertext> conc(cts.size());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                size_t idx = size_t(t) * kPerThread + i;
                conc[idx] = server().bootstrap(cts[idx], tv);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    for (size_t i = 0; i < cts.size(); ++i)
        expectSameCiphertext(conc[i], seq[i], i);
}

/** Concurrent bootstrapBatch calls on one context must serialize safely. */
TEST_F(BatchPbs, ConcurrentBatchCallsAreSafe)
{
    auto cts = encryptRange(4);
    TorusPolynomial tv = makeIntTestVector(
        server().params().N, kSpace, [](int64_t v) { return v; });
    server().setBatchThreads(2);

    std::vector<LweCiphertext> a, b;
    std::thread other(
        [&] { a = server().bootstrapBatch(cts, tv); });
    b = server().bootstrapBatch(cts, tv);
    other.join();

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        expectSameCiphertext(a[i], b[i], i);
}

/**
 * Regression for the setBatchThreads race (documented-but-unchecked
 * before the split API): resizing the pool while batches are in
 * flight must be safe and leave every result bit-identical -- each
 * batch snapshots its pool, so a replacement can never destroy a pool
 * a running batch still uses. TSan watches this under STRIX_TSAN.
 */
TEST_F(BatchPbs, SetBatchThreadsDuringInFlightBatchesIsSafe)
{
    auto cts = encryptRange(8);
    TorusPolynomial tv = makeIntTestVector(
        server().params().N, kSpace, [](int64_t v) { return v; });

    std::vector<LweCiphertext> expected =
        server().bootstrapBatch(cts, tv);

    constexpr int kRounds = 6;
    std::vector<std::vector<LweCiphertext>> results(kRounds);
    std::atomic<bool> stop{false};
    std::thread resizer([&] {
        unsigned next = 1;
        while (!stop.load()) {
            server().setBatchThreads(1 + next++ % 4);
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> batchers;
    for (int r = 0; r < kRounds; ++r) {
        batchers.emplace_back([&, r] {
            results[r] = server().bootstrapBatch(cts, tv);
        });
    }
    for (auto &t : batchers)
        t.join();
    stop = true;
    resizer.join();

    for (int r = 0; r < kRounds; ++r) {
        ASSERT_EQ(results[r].size(), expected.size()) << "round " << r;
        for (size_t i = 0; i < expected.size(); ++i)
            expectSameCiphertext(results[r][i], expected[i], i);
    }
}

/**
 * The zero-duplication sharing contract: any number of ServerContexts
 * built on one EvalKeys bundle reference the same key material
 * (pointer-identical bsk/ksk) and evaluate bit-identically, including
 * concurrently.
 */
TEST_F(BatchPbs, ManyServerContextsShareOneEvalKeysBundle)
{
    auto cts = encryptRange(6);
    TorusPolynomial tv = makeIntTestVector(
        server().params().N, kSpace, [](int64_t v) { return v; });
    std::vector<LweCiphertext> expected =
        server().bootstrapBatch(cts, tv);

    constexpr int kContexts = 3;
    std::vector<std::unique_ptr<ServerContext>> servers;
    for (int s = 0; s < kContexts; ++s)
        servers.push_back(
            std::make_unique<ServerContext>(client().evalKeys()));

    std::vector<std::vector<LweCiphertext>> results(kContexts);
    std::vector<std::thread> threads;
    for (int s = 0; s < kContexts; ++s) {
        EXPECT_EQ(&servers[s]->bsk(), &server().bsk());
        EXPECT_EQ(&servers[s]->ksk(), &server().ksk());
        threads.emplace_back([&, s] {
            servers[s]->setBatchThreads(unsigned(s) + 1);
            results[s] = servers[s]->bootstrapBatch(cts, tv);
        });
    }
    for (auto &t : threads)
        t.join();

    for (int s = 0; s < kContexts; ++s) {
        ASSERT_EQ(results[s].size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i)
            expectSameCiphertext(results[s][i], expected[i], i);
    }
}

/**
 * The satellite-1 contract: encryptBit/encryptInt are now safe to
 * call concurrently on one shared keyset (internal RNG mutex); every
 * resulting ciphertext must decrypt to its message.
 */
TEST_F(BatchPbs, ConcurrentEncryptionsAreSafeAndDecrypt)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 32;
    std::vector<LweCiphertext> cts(kThreads * kPerThread);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                size_t idx = size_t(t) * kPerThread + i;
                cts[idx] = client().encryptInt(
                    int64_t(idx % kSpace), kSpace);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (size_t i = 0; i < cts.size(); ++i)
        EXPECT_EQ(client().decryptInt(cts[i], kSpace),
                  int64_t(i % kSpace));
}
