/**
 * @file
 * EvalKeyCache: the serving daemon's bytes-budgeted tenant key store.
 *
 * Holds one EvalKeys bundle -- public evaluation material only -- per
 * registered tenant id. A set-I bundle is ~47 MiB resident
 * (EvalKeys::residentBytes), so a multi-tenant server is bounded by
 * key memory, not compute: under a setBudgetBytes() budget, an insert
 * evicts least-recently-used *unpinned* entries until the resident
 * bytes fit. An entry is pinned while anything outside the store
 * holds its bundle (executor shards, in-flight work). The entry just
 * inserted is never the victim, and when every other entry is pinned
 * the store stays over budget rather than drop a live tenant.
 *
 * One mutex guards the whole store. Every call is a map lookup or,
 * on insert and setBudgetBytes, a scan over the resident tenants
 * (few: the budget bounds them), so it is safe to call from any
 * thread -- the event loop inserts and looks up, stats() is read from
 * others.
 */

#ifndef STRIX_TFHE_EVAL_KEY_CACHE_H
#define STRIX_TFHE_EVAL_KEY_CACHE_H

#include <cstdint>
#include <map>
#include <memory>

#include "common/sync.h"
#include "tfhe/eval_keys.h"

namespace strix {

/** Point-in-time key-store counters. */
struct CacheStats
{
    uint64_t hits = 0;       //!< lookups/inserts finding a resident entry
    uint64_t inserts = 0;    //!< bundles adopted
    uint64_t evictions = 0;  //!< entries evicted under budget pressure
    uint64_t resident_bytes = 0; //!< bytes of resident bundles
    uint64_t entries = 0;    //!< tenants resident
    uint64_t budget_bytes = 0;   //!< configured budget (0 = unbounded)
};

/** Budgeted LRU store of tenant EvalKeys bundles (no secret material). */
class EvalKeyCache
{
  public:
    EvalKeyCache() = default;

    EvalKeyCache(const EvalKeyCache &) = delete;
    EvalKeyCache &operator=(const EvalKeyCache &) = delete;

    /**
     * Adopt @p bundle (non-null) as @p tenant's keys, then evict down
     * to budget. Idempotent: if @p tenant is already resident, its
     * *existing* bundle is returned (a hit) and @p bundle is dropped
     * -- a re-registration does not duplicate key memory.
     */
    std::shared_ptr<const EvalKeys>
    insert(uint64_t tenant, std::shared_ptr<const EvalKeys> bundle)
        STRIX_EXCLUDES(mutex_);

    /**
     * @p tenant's bundle, or nullptr if never inserted or evicted
     * under budget pressure (the tenant must re-register). A hit
     * stamps LRU recency.
     */
    std::shared_ptr<const EvalKeys> lookup(uint64_t tenant)
        STRIX_EXCLUDES(mutex_);

    /**
     * Cap the resident bytes (EvalKeys::residentBytes accounting);
     * 0 restores the unbounded default. Applies immediately,
     * best-effort under pinning.
     */
    void setBudgetBytes(uint64_t budget) STRIX_EXCLUDES(mutex_);

    /** Current counters. */
    CacheStats stats() const STRIX_EXCLUDES(mutex_);

  private:
    struct Entry
    {
        std::shared_ptr<const EvalKeys> bundle;
        uint64_t last_used = 0; //!< LRU stamp from tick_
    };

    /**
     * Evict LRU unpinned entries (never @p keep) until the resident
     * bytes fit the budget or no candidate remains.
     */
    void evictIfOver(const Entry *keep) STRIX_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::map<uint64_t, Entry> entries_ STRIX_GUARDED_BY(mutex_);
    uint64_t budget_bytes_ STRIX_GUARDED_BY(mutex_) = 0;
    uint64_t resident_bytes_ STRIX_GUARDED_BY(mutex_) = 0;
    uint64_t tick_ STRIX_GUARDED_BY(mutex_) = 0; //!< LRU clock
    uint64_t hits_ STRIX_GUARDED_BY(mutex_) = 0;
    uint64_t inserts_ STRIX_GUARDED_BY(mutex_) = 0;
    uint64_t evictions_ STRIX_GUARDED_BY(mutex_) = 0;
};

} // namespace strix

#endif // STRIX_TFHE_EVAL_KEY_CACHE_H
