/**
 * @file
 * EvalKeyCache implementation.
 */

#include "tfhe/eval_key_cache.h"

#include "common/logging.h"

namespace strix {

std::shared_ptr<const EvalKeys>
EvalKeyCache::insert(uint64_t tenant,
                     std::shared_ptr<const EvalKeys> bundle)
{
    panicIfNot(bundle != nullptr, "EvalKeyCache: null bundle insert");
    MutexLock lock(mutex_);
    auto [it, inserted] = entries_.try_emplace(tenant);
    Entry &e = it->second;
    e.last_used = ++tick_;
    if (!inserted) {
        ++hits_;
        return e.bundle;
    }
    e.bundle = std::move(bundle);
    resident_bytes_ += e.bundle->residentBytes();
    ++inserts_;
    evictIfOver(&e);
    return e.bundle;
}

std::shared_ptr<const EvalKeys>
EvalKeyCache::lookup(uint64_t tenant)
{
    MutexLock lock(mutex_);
    auto it = entries_.find(tenant);
    if (it == entries_.end())
        return nullptr; // never inserted, or evicted under pressure
    it->second.last_used = ++tick_;
    ++hits_;
    return it->second.bundle;
}

void
EvalKeyCache::evictIfOver(const Entry *keep)
{
    while (budget_bytes_ != 0 && resident_bytes_ > budget_bytes_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            const Entry &e = it->second;
            // Pinned: a reference beyond the store's own is alive, so
            // the tenant is active and must stay resident.
            if (&e == keep || e.bundle.use_count() > 1)
                continue;
            if (victim == entries_.end() ||
                e.last_used < victim->second.last_used)
                victim = it;
        }
        if (victim == entries_.end())
            return; // everything left is pinned
        resident_bytes_ -= victim->second.bundle->residentBytes();
        entries_.erase(victim);
        ++evictions_;
    }
}

void
EvalKeyCache::setBudgetBytes(uint64_t budget)
{
    MutexLock lock(mutex_);
    budget_bytes_ = budget;
    evictIfOver(nullptr);
}

CacheStats
EvalKeyCache::stats() const
{
    MutexLock lock(mutex_);
    CacheStats s;
    s.hits = hits_;
    s.inserts = inserts_;
    s.evictions = evictions_;
    s.resident_bytes = resident_bytes_;
    s.entries = entries_.size();
    s.budget_bytes = budget_bytes_;
    return s;
}

} // namespace strix
