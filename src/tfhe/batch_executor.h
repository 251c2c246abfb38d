/**
 * @file
 * BatchExecutor: cross-session dynamic batching for the PBS stream --
 * the software rendering of Strix's two-level ciphertext batching.
 *
 * The paper wins throughput by keeping full-width ciphertext batches
 * streaming through the PBS pipeline. `ServerContext::bootstrapBatch`
 * already batches *within* one caller's call; this executor closes the
 * remaining gap by coalescing *across* callers: independent sessions
 * submit single PBS requests and get futures back, and requests that
 * share a params-shard -- the same `EvalKeys` bundle by pointer
 * identity, which is what a shared ClientKeyset and the daemon's
 * per-tenant EvalKeyCache entry hand out -- are swept
 * together as one full-width `bootstrapBatch` call. Requests from
 * different shards never co-batch (cross-tenant isolation by
 * construction: a sweep runs under exactly one key bundle).
 *
 * Flush policy is the buffered-sender shape: a shard flushes when its
 * fill reaches `target_batch` requests (size trigger) or when its
 * oldest request has waited `flush_delay_us` (deadline trigger), so a
 * saturated stream runs at full occupancy while a trickle still meets
 * a microsecond-scale latency bound. The staging is double-buffered:
 * the dispatcher swaps a shard's fill queue out under the lock and
 * runs the PBS sweep outside it, so the next batch fills while the
 * current one is in flight. (Within the sweep, bootstrapBatch cuts the
 * batch into one chunk per worker and blind-rotates each chunk
 * key-stationary, so every bootstrapping-key GGSW serves a whole chunk
 * per fetch -- the executor supplies that pipeline with full batches,
 * which is the paper's TvLP knob in software.)
 *
 * Time comes from a WaitableClock, so the deadline path is testable
 * with a ManualWaitableClock and no real sleeps.
 *
 * Thread-safety: every member is safe to call concurrently. Results
 * are bit-identical to calling `bootstrap`/`bootstrapBatch` directly
 * -- batching changes scheduling, never values (asserted by
 * tests/test_batch_executor.cpp).
 */

#ifndef STRIX_TFHE_BATCH_EXECUTOR_H
#define STRIX_TFHE_BATCH_EXECUTOR_H

#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/waitclock.h"
#include "tfhe/server_context.h"

namespace strix {

/** Coalesces PBS requests across sessions into full-width sweeps. */
class BatchExecutor
{
  public:
    /** Flush-policy knobs. */
    struct Options
    {
        /**
         * Size trigger: a shard flushes as soon as this many requests
         * are waiting (values < 1 are treated as 1). This is the
         * sweep width the occupancy metric is measured against.
         */
        size_t target_batch = 16;

        /**
         * Deadline trigger: maximum time a request may wait in the
         * fill queue before its shard is flushed regardless of width.
         * 0 flushes on the dispatcher's next pass.
         */
        uint64_t flush_delay_us = 200;

        /**
         * Worker-pool size for each shard's sweep, including the
         * dispatcher thread (0 = ThreadPool's default).
         */
        unsigned sweep_threads = 0;
    };

    /** Monotonic counters; a consistent snapshot via stats(). */
    struct Stats
    {
        uint64_t submitted = 0;        //!< requests accepted
        uint64_t completed = 0;        //!< futures fulfilled
        uint64_t sweeps = 0;           //!< bootstrapBatch calls issued
        uint64_t swept_lwes = 0;       //!< requests across all sweeps
        uint64_t size_flushes = 0;     //!< sweeps triggered by width
        uint64_t deadline_flushes = 0; //!< sweeps triggered by age
        uint64_t drain_flushes = 0;    //!< sweeps triggered by shutdown
        size_t shards = 0;             //!< distinct EvalKeys seen

        /** Mean batch width over target width: 1.0 = full sweeps. */
        double occupancy(size_t target_batch) const
        {
            if (sweeps == 0 || target_batch == 0)
                return 0.0;
            return double(swept_lwes) /
                   (double(sweeps) * double(target_batch));
        }
    };

    /**
     * Start the dispatcher. @p clock defaults to a fresh
     * SteadyWaitableClock; tests pass a ManualWaitableClock to drive
     * the deadline trigger deterministically.
     */
    explicit BatchExecutor(Options opts,
                           std::shared_ptr<WaitableClock> clock = nullptr);

    /** Default Options, real clock. */
    BatchExecutor();

    /** Drains every pending request (see shutdown()), then joins. */
    ~BatchExecutor();

    BatchExecutor(const BatchExecutor &) = delete;
    BatchExecutor &operator=(const BatchExecutor &) = delete;

    /**
     * Queue one PBS+KS of @p ct against @p test_vector under @p keys
     * (panics on null, or after shutdown). The future yields a result
     * bit-identical to `ServerContext(keys).bootstrap(ct, tv)`; a
     * failed sweep delivers the exception through every affected
     * future instead. Safe from any thread; requests sharing a keys
     * pointer coalesce into one sweep.
     */
    std::future<LweCiphertext> submit(std::shared_ptr<const EvalKeys> keys,
                                      LweCiphertext ct,
                                      TorusPolynomial test_vector)
        STRIX_EXCLUDES(m_);

    /**
     * Block until every request submitted so far has completed.
     * Concurrent submitters can re-fill the queues afterwards; drain
     * only promises a moment of emptiness.
     */
    void drain() STRIX_EXCLUDES(m_);

    /**
     * Mark everything currently queued as due and wake the dispatcher
     * (non-blocking); requests submitted later fall back to the
     * normal triggers. A serving layer's shutdown drain calls this
     * each pass so pending responses are fulfilled promptly even
     * under a very long flush_delay_us policy. Sweeps this forces are
     * counted as drain_flushes.
     */
    void flushNow() STRIX_EXCLUDES(m_);

    /**
     * Stop accepting submissions, flush everything still queued
     * (futures are fulfilled, not dropped), and join the dispatcher.
     * Idempotent and safe to call concurrently; the destructor calls
     * it. Submitting afterwards panics.
     */
    void shutdown() STRIX_EXCLUDES(m_, join_mutex_);

    /**
     * Release shards whose fill queue is empty and whose sweep is not
     * currently running, dropping the executor's reference to their
     * EvalKeys bundle. A serving layer calls this after budget-driven
     * key eviction so a departed tenant's bundle does not stay pinned
     * by the executor forever; the shard is recreated transparently
     * on that bundle's next submit. Returns the shards released.
     */
    size_t releaseIdleShards() STRIX_EXCLUDES(m_);

    /** Snapshot of the counters. */
    Stats stats() const STRIX_EXCLUDES(m_);

    const Options &options() const { return opts_; }

  private:
    /** One queued PBS request. */
    struct Request
    {
        uint64_t submit_us = 0; //!< clock time at submission
        LweCiphertext ct;
        TorusPolynomial tv;
        std::promise<LweCiphertext> result;
    };

    /**
     * Per-params-shard state: the key bundle, a private ServerContext
     * whose pool runs this shard's sweeps, and the fill queue the
     * dispatcher swaps batches out of. Shards are created on first
     * submit and live until shutdown or releaseIdleShards(); the
     * dispatcher marks a shard `sweeping` under the lock before
     * running its sweep unlocked, and release skips sweeping shards,
     * so raw Shard pointers the dispatcher holds across the unlocked
     * sweep stay valid.
     */
    struct Shard
    {
        Shard(std::shared_ptr<const EvalKeys> k, unsigned sweep_threads);

        std::shared_ptr<const EvalKeys> keys;
        ServerContext eval;
        // Guarded by the owning BatchExecutor's m_. The analysis has
        // no way to express a guard that lives in another object, so
        // this contract is manual: every fill access sits in a
        // BatchExecutor member that provably holds m_ (submit and the
        // locked sections of dispatchLoop); runSweep never touches it.
        std::deque<Request> fill;
        // Guarded by m_ like fill: true while the dispatcher runs
        // this shard's sweep outside the lock.
        bool sweeping = false;
    };

    void dispatchLoop() STRIX_EXCLUDES(m_);

    /** Run one sweep outside the lock and fulfill its promises. */
    static void runSweep(Shard &shard, std::vector<Request> batch);

    const Options opts_;
    const std::shared_ptr<WaitableClock> clock_;

    // Lock order: m_ is never held across a WaitableClock call -- the
    // dispatcher releases it around clock_->wait()/waitUntil() and
    // producers signal() after dropping it, so BatchExecutor::m_ and
    // the clock's internal mutex are never nested.
    mutable Mutex m_;
    std::map<const EvalKeys *, std::unique_ptr<Shard>> shards_
        STRIX_GUARDED_BY(m_);
    Stats stats_ STRIX_GUARDED_BY(m_);
    uint64_t in_flight_ STRIX_GUARDED_BY(m_) = 0; //!< submitted - completed
    bool stopping_ STRIX_GUARDED_BY(m_) = false;
    bool flush_now_ STRIX_GUARDED_BY(m_) = false; //!< force-flush latch
    CondVar drained_cv_; //!< signaled at in_flight_ == 0

    Mutex join_mutex_;       //!< serializes concurrent shutdown()s
    std::thread dispatcher_; //!< started last: sees a complete object
};

} // namespace strix

#endif // STRIX_TFHE_BATCH_EXECUTOR_H
