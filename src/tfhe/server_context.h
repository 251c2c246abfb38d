/**
 * @file
 * ServerContext: the evaluation-side half of the split TFHE API.
 *
 * Constructed from a `shared_ptr<const EvalKeys>` -- the public
 * BSK/KSK bundle a ClientKeyset exports (or a deserialized bundle
 * from a remote client) -- and owns everything evaluation needs on
 * top of it: the bootstrap entry points, the batch worker pool, and
 * the FFT plan prewarm. It holds no secret key and no RNG: code that
 * compiles against ServerContext alone provably cannot decrypt.
 *
 * Many ServerContexts may share one EvalKeys with zero key
 * duplication (each adds only its pool), which is the seam the
 * multi-session serving and sharding work builds on. On top of the
 * synchronous calls there is an async seam: submitBootstrap /
 * submitApplyLut return futures and, when a BatchExecutor is
 * attached, coalesce with requests from every other session on the
 * same EvalKeys bundle into full-width sweeps (see
 * tfhe/batch_executor.h).
 *
 * Thread-safety contract
 * ----------------------
 * Every member is safe to call concurrently on one shared context.
 * Key material is immutable, the FFT plan caches are prewarmed at
 * construction and lock-free to read, and every bootstrap carries its
 * own scratch buffers. setBatchThreads() publishes a replacement pool
 * under the same lock the batch calls use to snapshot it: batches
 * already in flight finish undisturbed on the pool they started with
 * (the snapshot keeps it alive), and later calls use the new size.
 */

#ifndef STRIX_TFHE_SERVER_CONTEXT_H
#define STRIX_TFHE_SERVER_CONTEXT_H

#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/sync.h"
#include "tfhe/eval_keys.h"

namespace strix {

class BatchExecutor;

/** PBS evaluation engine over a shared public-key bundle. */
class ServerContext
{
  public:
    /**
     * Wrap @p keys (panics on null) and prewarm the FFT plan caches
     * for its ring dimension. The batch worker pool spins up lazily
     * on the first batch call (size: ThreadPool's default,
     * overridable via STRIX_THREADS or setBatchThreads), so
     * sequential users never pay for idle threads.
     */
    explicit ServerContext(std::shared_ptr<const EvalKeys> keys);

    const TfheParams &params() const { return keys_->params(); }
    const BootstrappingKey &bsk() const { return keys_->bsk(); }
    const KeySwitchKey &ksk() const { return keys_->ksk(); }

    /** The shared bundle this context evaluates under. */
    const std::shared_ptr<const EvalKeys> &evalKeys() const
    {
        return keys_;
    }

    /**
     * Bootstrap @p ct against @p test_vector and keyswitch back to
     * dimension n -- the PBS+KS node every workload graph is made of.
     */
    LweCiphertext bootstrap(const LweCiphertext &ct,
                            const TorusPolynomial &test_vector) const;

    /**
     * Programmable bootstrapping of an integer function f over
     * [0, msg_space): returns an encryption of f(m) (centered
     * encoding), keyswitched to dimension n.
     */
    LweCiphertext applyLut(const LweCiphertext &ct, uint64_t msg_space,
                           const std::function<int64_t(int64_t)> &f) const;

    /**
     * Batched PBS+KS: bootstrap @p count ciphertexts against one
     * shared test vector. Delegates to the per-test-vector overload
     * below. out[i] always corresponds to cts[i] and is bit-identical
     * to bootstrap(cts[i], test_vector) at any thread count -- the
     * software seam for Strix-style ciphertext batching.
     */
    std::vector<LweCiphertext>
    bootstrapBatch(const LweCiphertext *cts, size_t count,
                   const TorusPolynomial &test_vector) const;

    /** Convenience overload over a vector batch. */
    std::vector<LweCiphertext>
    bootstrapBatch(const std::vector<LweCiphertext> &cts,
                   const TorusPolynomial &test_vector) const;

    /**
     * Batched PBS+KS with a per-ciphertext test vector: tvs[i] is the
     * LUT applied to cts[i] (every pointer non-null, same ring
     * dimension). This is the sweep shape cross-session coalescing
     * needs -- requests keep their own LUTs while sharing one
     * parallel sweep -- and each out[i] is bit-identical to
     * bootstrap(cts[i], *tvs[i]) at any thread count.
     *
     * The batch is cut into min(threads, count) contiguous chunks, one
     * per pool worker, and each chunk is blind-rotated key-stationary
     * (blindRotateBatch): Strix's core-level batching, where one
     * bootstrapping-key GGSW serves every ciphertext of the chunk
     * before the next is fetched.
     */
    std::vector<LweCiphertext>
    bootstrapBatch(const LweCiphertext *cts,
                   const TorusPolynomial *const *tvs, size_t count) const;

    /**
     * Batched applyLut: builds the test vector for @p f once and
     * evaluates it over the whole batch via bootstrapBatch.
     */
    std::vector<LweCiphertext>
    applyLutBatch(const std::vector<LweCiphertext> &cts, uint64_t msg_space,
                  const std::function<int64_t(int64_t)> &f) const;

    /**
     * Attach (or detach, with nullptr) a cross-session batching
     * executor: submitBootstrap/submitApplyLut route through it, so
     * this context's requests coalesce with every other context
     * sharing the same EvalKeys bundle and executor. Safe to call
     * concurrently with submits: in-flight requests stay with the
     * executor they were submitted to.
     */
    void attachExecutor(std::shared_ptr<BatchExecutor> executor)
        STRIX_EXCLUDES(pool_mutex_);

    /** The attached executor, or nullptr. */
    std::shared_ptr<BatchExecutor> executor() const
        STRIX_EXCLUDES(pool_mutex_);

    /**
     * Async PBS+KS: returns a future for bootstrap(ct, test_vector).
     * With an executor attached the request is queued for a coalesced
     * sweep (latency bounded by the executor's flush policy); without
     * one it runs inline and the future is already ready. Results are
     * bit-identical either way.
     */
    std::future<LweCiphertext>
    submitBootstrap(const LweCiphertext &ct,
                    const TorusPolynomial &test_vector) const;

    /** Async applyLut, same routing rules as submitBootstrap. */
    std::future<LweCiphertext>
    submitApplyLut(const LweCiphertext &ct, uint64_t msg_space,
                   const std::function<int64_t(int64_t)> &f) const;

    /**
     * Resize the batch worker pool to @p threads workers (0 restores
     * the default). Safe to call concurrently with batch calls:
     * in-flight batches complete on the pool they snapshotted; the
     * replacement serves later calls.
     */
    void setBatchThreads(unsigned threads) STRIX_EXCLUDES(pool_mutex_);

    /**
     * Batch worker count the next batch call will use (>= 1,
     * including the caller). Pure query: does not spin up the pool.
     */
    unsigned batchThreads() const STRIX_EXCLUDES(pool_mutex_);

  private:
    /**
     * Snapshot the current pool (building it on first use). Returning
     * the shared_ptr by value is what makes setBatchThreads safe
     * concurrently with batches: a replacement cannot destroy a pool
     * a running batch still references.
     */
    std::shared_ptr<ThreadPool> pool() const STRIX_EXCLUDES(pool_mutex_);

    std::shared_ptr<const EvalKeys> keys_;

    /** Prewarms the FFT plan caches before any evaluation runs. */
    struct FftPrewarm
    {
        explicit FftPrewarm(const TfheParams &p);
    };
    FftPrewarm fft_prewarm_;

    mutable Mutex pool_mutex_;
    mutable std::shared_ptr<ThreadPool> pool_
        STRIX_GUARDED_BY(pool_mutex_);
    unsigned batch_threads_ STRIX_GUARDED_BY(pool_mutex_) =
        0; //!< requested size; 0 = default
    std::shared_ptr<BatchExecutor> executor_
        STRIX_GUARDED_BY(pool_mutex_); //!< null = inline submits
};

} // namespace strix

#endif // STRIX_TFHE_SERVER_CONTEXT_H
