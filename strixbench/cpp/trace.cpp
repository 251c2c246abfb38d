/**
 * @file
 * Span recorder implementation.
 */

#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace sb {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint32_t> g_next_id{1};
std::mutex g_mutex;
std::vector<Span> g_spans; // guarded by g_mutex

} // namespace

uint64_t
monoNs()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
}

void
Trace::setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
Trace::enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

uint32_t
Trace::newId()
{
    if (!enabled())
        return 0;
    return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void
Trace::record(const char *name, uint32_t id, uint32_t parent,
              uint64_t request, uint64_t start_ns, uint64_t end_ns)
{
    if (id == 0)
        return;
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans.push_back({name, id, parent, request, start_ns, end_ns});
}

std::vector<Span>
Trace::snapshot()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_spans;
}

SpanScope::SpanScope(const char *name, uint32_t parent, uint64_t request)
    : name_(name), id_(Trace::newId()), parent_(parent),
      request_(request), start_ns_(id_ ? monoNs() : 0)
{
}

SpanScope::~SpanScope()
{
    if (id_)
        Trace::record(name_, id_, parent_, request_, start_ns_, monoNs());
}

std::map<std::string, std::vector<double>>
selfTimesUs(const std::vector<Span> &spans)
{
    // Child intervals of each parent, clipped to the parent's own
    // interval; their union is the covered part.
    std::unordered_map<uint32_t, const Span *> by_id;
    for (const Span &s : spans)
        by_id[s.id] = &s;
    std::unordered_map<uint32_t,
                       std::vector<std::pair<uint64_t, uint64_t>>>
        children;
    for (const Span &s : spans) {
        auto it = by_id.find(s.parent);
        if (s.parent == 0 || it == by_id.end())
            continue;
        const Span &p = *it->second;
        const uint64_t a = std::max(s.start_ns, p.start_ns);
        const uint64_t b = std::min(s.end_ns, p.end_ns);
        if (a < b)
            children[p.id].push_back({a, b});
    }
    std::map<std::string, std::vector<double>> out;
    for (const Span &s : spans) {
        uint64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            uint64_t cur_a = iv[0].first, cur_b = iv[0].second;
            for (size_t i = 1; i < iv.size(); ++i) {
                if (iv[i].first > cur_b) {
                    covered += cur_b - cur_a;
                    cur_a = iv[i].first;
                }
                cur_b = std::max(cur_b, iv[i].second);
            }
            covered += cur_b - cur_a;
        }
        const uint64_t dur = s.end_ns - s.start_ns;
        out[s.name].push_back(double(dur - std::min(dur, covered)) *
                              1e-3);
    }
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans)
        std::fprintf(f,
                     "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,"
                     "\"request\":%llu,\"start_ns\":%llu,"
                     "\"end_ns\":%llu}\n",
                     s.name, s.id, s.parent,
                     (unsigned long long)s.request,
                     (unsigned long long)s.start_ns,
                     (unsigned long long)s.end_ns);
    return std::fclose(f) == 0;
}

} // namespace sb
