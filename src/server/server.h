/**
 * @file
 * StrixServer: the multi-tenant encrypted-compute serving daemon.
 *
 * One poll(2) event loop owns every connection: it accepts, reads
 * MSG1 frames through the incremental FrameDecoder, dispatches
 * requests, and writes replies through per-connection BufferedSenders
 * (MTU + flush-delay coalescing). PBS work never runs on the loop
 * thread: Bootstrap/ApplyLut requests are submitted to the shared
 * BatchExecutor -- so requests from *different tenants and different
 * connections* coalesce into full-width sweeps whenever their key
 * bundles match -- and EvalCircuit requests run plan-driven on a
 * dedicated circuit worker whose per-level PBS stream feeds the same
 * executor. The loop polls outstanding futures and ships each reply
 * when its work completes.
 *
 * Tenants register by uploading an EVK2 EvalKeys bundle, which
 * lands in a bytes-budgeted EvalKeyCache: under key-memory pressure
 * the least-recently-used idle tenant is evicted and must re-register
 * (requests answer UnknownTenant, a structured error, never a crash).
 * The server never holds a strong bundle reference outside the cache,
 * the executor's shards (released when idle before each eviction
 * attempt), and in-flight work -- so eviction of idle tenants is
 * actually possible, and active tenants are pinned resident.
 *
 * Admission control bounds work the server will buffer: a per-tenant
 * in-flight cap and a global queue depth; past either, requests get a
 * structured Busy reject immediately (clients back off and retry).
 * Each request may carry a relative deadline; work that completes too
 * late is answered with DeadlineExceeded instead of a stale result.
 *
 * Trust model: this layer never sees a secret key -- it includes
 * neither tfhe/client_keyset.h nor the ContextCache facade that owns
 * keysets (both lint-enforced). Everything it holds and computes on
 * is public evaluation material and ciphertexts.
 *
 * Threading: all connection and admission state belongs to the loop
 * thread exclusively (no locks); cross-thread surface is start/stop,
 * the atomic counters behind stats(), and the internally-synchronized
 * EvalKeyCache / BatchExecutor.
 */

#ifndef STRIX_SERVER_SERVER_H
#define STRIX_SERVER_SERVER_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/waitclock.h"
#include "net/buffered.h"
#include "net/socket.h"
#include "net/wire.h"
#include "tfhe/batch_executor.h"
#include "tfhe/eval_key_cache.h"

namespace strix {

/** Multi-tenant MSG1 serving daemon over loopback TCP. */
class StrixServer
{
  public:
    struct Options
    {
        /** Listen port (0 = kernel-assigned; see port()). */
        uint16_t port = 0;

        /**
         * Admission: max requests one tenant may have in flight;
         * the next gets a Busy reject.
         */
        size_t max_inflight_per_tenant = 32;

        /** Admission: max requests in flight across all tenants. */
        size_t max_queue_depth = 256;

        /**
         * Per-request payload cap for compute requests (Bootstrap /
         * ApplyLut / EvalCircuit); RegisterTenant is governed by
         * `limits` alone since key bundles are legitimately tens of
         * MiB. Over the cap answers PayloadTooLarge.
         */
        uint64_t max_request_payload_bytes = 64ull << 20;

        /** Cross-tenant PBS batching policy (shared BatchExecutor). */
        BatchExecutor::Options exec;

        /** Response coalescing policy (per-connection sender). */
        BufferedSender::Options send;

        /**
         * Key-memory budget handed to the EvalKeyCache
         * (0 = unbounded).
         */
        uint64_t cache_budget_bytes = 0;

        /** Outer-framing caps (absolute payload-length bound). */
        FrameLimits limits;
    };

    /** Monotonic serving counters (atomics; readable any time). */
    struct Stats
    {
        uint64_t conns_accepted = 0;
        uint64_t requests = 0;        //!< well-framed messages seen
        uint64_t ok_replies = 0;
        uint64_t error_replies = 0;   //!< all structured errors
        uint64_t busy_rejects = 0;    //!< admission-control rejects
        uint64_t deadline_misses = 0; //!< completed past deadline
        uint64_t protocol_errors = 0; //!< malformed outer framing
    };

    /**
     * @p clock defaults to a fresh SteadyWaitableClock shared with
     * the executor; tests may pass a manual clock to drive batching
     * deadlines deterministically (the event loop itself still
     * paces on real poll timeouts).
     */
    explicit StrixServer(Options opts,
                         std::shared_ptr<WaitableClock> clock = nullptr);

    /** Default Options, real clock. */
    StrixServer();

    /** stop()s if still running. */
    ~StrixServer();

    StrixServer(const StrixServer &) = delete;
    StrixServer &operator=(const StrixServer &) = delete;

    /**
     * Bind the listener and start the event loop + circuit worker.
     * False if the port cannot be bound. Call at most once.
     */
    bool start();

    /**
     * Drain and shut down: stop reading new requests, fulfil every
     * pending response, flush the senders, then stop the executor
     * and join all threads. Idempotent.
     */
    void stop();

    /** Bound port (valid after start()). */
    uint16_t port() const { return port_; }

    bool running() const { return running_.load(); }

    Stats stats() const;

    /** Key-cache counters (tenant bundles). */
    CacheStats cacheStats() const { return cache_.stats(); }

    /** Shared PBS executor counters. */
    BatchExecutor::Stats executorStats() const
    {
        return executor_->stats();
    }

    const Options &options() const { return opts_; }

  private:
    /** Per-connection state; owned by the loop thread. */
    struct ConnState
    {
        uint64_t id = 0;
        TcpConn conn;
        FrameDecoder dec;
        BufferedSender out;
        /** Flush what is queued, then close (post-framing-error). */
        bool closing = false;
    };

    /** One admitted request waiting on its compute future. */
    struct Pending
    {
        uint64_t conn_id = 0;
        uint64_t tenant = 0;
        uint64_t request_id = 0;
        uint64_t deadline_abs_us = 0; //!< 0 = no deadline
        bool is_many = false;         //!< which future is live
        std::future<LweCiphertext> single;
        std::future<std::vector<LweCiphertext>> many;
    };

    void run();
    void circuitWorker();

    void acceptPending(uint64_t now_us);
    /** Read + decode + dispatch; false when the conn must be dropped. */
    bool serviceReadable(ConnState &c, uint64_t now_us);
    void handleMessage(ConnState &c, WireMessage &&m, uint64_t now_us);
    void handleRegister(ConnState &c, const WireMessage &m,
                        uint64_t now_us);
    void handleCompute(ConnState &c, WireMessage &&m, uint64_t now_us);
    /** Scan pendings; ship replies for completed work. */
    void completeFinished(uint64_t now_us);
    void flushSenders(uint64_t now_us);

    void sendOk(ConnState &c, const WireMessage &m,
                std::vector<uint8_t> payload, uint64_t now_us);
    void sendErr(ConnState &c, uint64_t tenant, uint64_t request_id,
                 WireError code, const std::string &text,
                 uint64_t now_us);

    /** Poll timeout folding sender deadlines and pending futures. */
    int pollTimeoutMs(uint64_t now_us) const;

    static std::string tenantKey(uint64_t tenant);

    Options opts_;
    std::shared_ptr<WaitableClock> clock_;
    std::shared_ptr<BatchExecutor> executor_;
    EvalKeyCache cache_;

    TcpListener listener_;
    uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_requested_{false};
    std::thread loop_;

    // -- loop-thread-owned state ------------------------------------
    uint64_t next_conn_id_ = 1;
    std::map<uint64_t, ConnState> conns_;
    std::vector<uint8_t> rbuf_; //!< loop-thread read scratch
    std::list<Pending> pendings_;
    std::map<uint64_t, size_t> inflight_; //!< per-tenant admitted

    // -- circuit worker ---------------------------------------------
    std::thread circuit_thread_;
    Mutex circuit_m_;
    CondVar circuit_cv_;
    std::deque<std::function<void()>> circuit_q_
        STRIX_GUARDED_BY(circuit_m_);
    bool circuit_stop_ STRIX_GUARDED_BY(circuit_m_) = false;

    // -- counters ----------------------------------------------------
    std::atomic<uint64_t> conns_accepted_{0};
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> ok_replies_{0};
    std::atomic<uint64_t> error_replies_{0};
    std::atomic<uint64_t> busy_rejects_{0};
    std::atomic<uint64_t> deadline_misses_{0};
    std::atomic<uint64_t> protocol_errors_{0};
};

} // namespace strix

#endif // STRIX_SERVER_SERVER_H
