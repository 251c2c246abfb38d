/**
 * @file
 * ServerContext implementation.
 */

#include "tfhe/server_context.h"

#include <algorithm>

#include "common/logging.h"
#include "poly/negacyclic_fft.h"
#include "tfhe/batch_executor.h"

namespace strix {

namespace {

const TfheParams &
checkedParams(const std::shared_ptr<const EvalKeys> &keys)
{
    panicIfNot(keys != nullptr, "ServerContext: null EvalKeys bundle");
    return keys->params();
}

} // namespace

ServerContext::FftPrewarm::FftPrewarm(const TfheParams &p)
{
    NegacyclicFft::prewarm(p.N);
}

ServerContext::ServerContext(std::shared_ptr<const EvalKeys> keys)
    : keys_(std::move(keys)), fft_prewarm_(checkedParams(keys_))
{
}

std::shared_ptr<ThreadPool>
ServerContext::pool() const
{
    MutexLock lock(pool_mutex_);
    if (!pool_)
        pool_ = std::make_shared<ThreadPool>(batch_threads_);
    return pool_;
}

void
ServerContext::setBatchThreads(unsigned threads)
{
    MutexLock lock(pool_mutex_);
    batch_threads_ = threads;
    if (pool_) // already spun up: publish a replacement at the new size
        pool_ = std::make_shared<ThreadPool>(threads);
}

unsigned
ServerContext::batchThreads() const
{
    MutexLock lock(pool_mutex_);
    return batch_threads_ != 0 ? batch_threads_
                               : ThreadPool::defaultThreadCount();
}

LweCiphertext
ServerContext::bootstrap(const LweCiphertext &ct,
                         const TorusPolynomial &test_vector) const
{
    LweCiphertext big =
        programmableBootstrap(ct, test_vector, keys_->bsk());
    return keySwitch(big, keys_->ksk());
}

LweCiphertext
ServerContext::applyLut(const LweCiphertext &ct, uint64_t msg_space,
                        const std::function<int64_t(int64_t)> &f) const
{
    TorusPolynomial tv = makeIntTestVector(params().N, msg_space, f);
    return bootstrap(ct, tv);
}

std::vector<LweCiphertext>
ServerContext::bootstrapBatch(const LweCiphertext *cts, size_t count,
                              const TorusPolynomial &test_vector) const
{
    const std::vector<const TorusPolynomial *> tvs(count, &test_vector);
    return bootstrapBatch(cts, tvs.data(), count);
}

std::vector<LweCiphertext>
ServerContext::bootstrapBatch(const std::vector<LweCiphertext> &cts,
                              const TorusPolynomial &test_vector) const
{
    return bootstrapBatch(cts.data(), cts.size(), test_vector);
}

std::vector<LweCiphertext>
ServerContext::bootstrapBatch(const LweCiphertext *cts,
                              const TorusPolynomial *const *tvs,
                              size_t count) const
{
    const TfheParams &p = params();
    for (size_t i = 0; i < count; ++i) {
        panicIfNot(tvs[i] != nullptr,
                   "bootstrapBatch: null test-vector pointer");
        panicIfNot(tvs[i]->size() == p.N,
                   "PBS: test vector size mismatch");
    }
    std::shared_ptr<ThreadPool> pool = this->pool();
    std::vector<LweCiphertext> out(count);
    // One contiguous chunk per worker, each blind-rotated
    // key-stationary (blindRotateBatch): every GGSW of the key is read
    // once per chunk instead of once per ciphertext. Chunk sizes
    // differ by at most one.
    const size_t chunks = std::min<size_t>(pool->threads(), count);
    std::vector<GlweCiphertext> accs;
    accs.reserve(count);
    for (size_t i = 0; i < count; ++i)
        accs.push_back(GlweCiphertext::trivial(p.k, *tvs[i]));
    // One scratch per worker: blind rotation allocates nothing and
    // shares nothing, so workers never touch common mutable state.
    std::vector<PbsScratch> scratch(pool->threads());
    pool->parallelFor(chunks, [&](size_t chunk, unsigned worker) {
        const size_t begin = chunk * count / chunks;
        const size_t end = (chunk + 1) * count / chunks;
        blindRotateBatch(accs.data() + begin, cts + begin, end - begin,
                         keys_->bsk(), scratch[worker]);
        for (size_t i = begin; i < end; ++i)
            out[i] = keySwitch(sampleExtract(accs[i], 0), keys_->ksk());
    });
    return out;
}

void
ServerContext::attachExecutor(std::shared_ptr<BatchExecutor> executor)
{
    MutexLock lock(pool_mutex_);
    executor_ = std::move(executor);
}

std::shared_ptr<BatchExecutor>
ServerContext::executor() const
{
    MutexLock lock(pool_mutex_);
    return executor_;
}

std::future<LweCiphertext>
ServerContext::submitBootstrap(const LweCiphertext &ct,
                               const TorusPolynomial &test_vector) const
{
    if (std::shared_ptr<BatchExecutor> exec = executor())
        return exec->submit(keys_, ct, test_vector);
    // No executor attached: evaluate inline and hand back a ready
    // future, so call sites written against the async API keep
    // working (and stay bit-identical) in single-session setups.
    std::promise<LweCiphertext> result;
    result.set_value(bootstrap(ct, test_vector));
    return result.get_future();
}

std::future<LweCiphertext>
ServerContext::submitApplyLut(const LweCiphertext &ct, uint64_t msg_space,
                              const std::function<int64_t(int64_t)> &f) const
{
    return submitBootstrap(ct,
                           makeIntTestVector(params().N, msg_space, f));
}

std::vector<LweCiphertext>
ServerContext::applyLutBatch(const std::vector<LweCiphertext> &cts,
                             uint64_t msg_space,
                             const std::function<int64_t(int64_t)> &f) const
{
    TorusPolynomial tv = makeIntTestVector(params().N, msg_space, f);
    return bootstrapBatch(cts, tv);
}

} // namespace strix
