/**
 * @file
 * Set-up and load generation for the workloads.
 *
 * Both workloads are closed loops with one StrixClient per thread; a
 * request is timed from send() to its reply.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "server/wire_codec.h"
#include "trace.h"

using namespace strix;

namespace sb {

namespace {

const WorkloadSpec kWorkloads[] = {
    {"pbs_saturate", Kind::PbsSaturate, 1, 500.0,
     "closed loop, 1 tenant, 4 conns x 8 Bootstrap in flight, 3-bit LUT"},
    {"tenant_churn", Kind::TenantChurn, 4, 500.0,
     "closed loop, 4 tenants, budget 2 bundles, 2 conns in lockstep: one "
     "sends 16 Bootstrap, then the other uploads the next tenant's EVK2"},
};

double
rusageCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double
msBetween(uint64_t a_ns, uint64_t b_ns)
{
    return double(b_ns - a_ns) * 1e-6;
}

/** Ok/failure bookkeeping for one reply, shared by every load loop. */
void
countReply(Window &w, const WorkloadSpec &spec, bool ok_reply,
           WireError error, bool decoded_right, uint64_t sent_ns,
           uint64_t reply_ns)
{
    if (!ok_reply) {
        ++w.failed;
        ++w.errors[wireErrorName(error)];
        return;
    }
    if (!decoded_right) {
        ++w.failed;
        ++w.misdecoded;
        ++w.errors["misdecoded"];
        return;
    }
    const double lat_ms = msBetween(sent_ns, reply_ns);
    ++w.ok;
    w.lat_ms.push_back(lat_ms);
    w.reply_ns.push_back(reply_ns);
    if (lat_ms <= spec.limit_ms)
        ++w.slo_ok;
}

void
merge(Window &into, const Window &from)
{
    into.attempted += from.attempted;
    into.ok += from.ok;
    into.failed += from.failed;
    into.misdecoded += from.misdecoded;
    into.slo_ok += from.slo_ok;
    into.reregisters += from.reregisters;
    for (const auto &[k, v] : from.errors)
        into.errors[k] += v;
    into.lat_ms.insert(into.lat_ms.end(), from.lat_ms.begin(),
                       from.lat_ms.end());
    into.reply_ns.insert(into.reply_ns.end(), from.reply_ns.begin(),
                         from.reply_ns.end());
    into.register_rtt_ms.insert(into.register_rtt_ms.end(),
                                from.register_rtt_ms.begin(),
                                from.register_rtt_ms.end());
}

/** Run @p fn(i, window) on @p threads threads, merge, rethrow. */
template <typename Fn>
void
onThreads(unsigned threads, Window &w, Fn fn)
{
    std::vector<Window> parts(threads);
    std::vector<std::exception_ptr> errs(threads);
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back([&, i] {
            try {
                fn(i, parts[i]);
            } catch (...) {
                errs[i] = std::current_exception();
            }
        });
    for (auto &t : pool)
        t.join();
    for (auto &e : errs)
        if (e)
            std::rethrow_exception(e);
    for (const Window &p : parts)
        merge(w, p);
}

StrixClient
connectTo(const Rig &rig)
{
    StrixClient c;
    if (!c.connectLoopback(rig.server->port()))
        throw std::runtime_error("cannot connect to the server");
    return c;
}

/** A Bootstrap request on @p t's 3-bit LUT, with its expected decode. */
std::vector<uint8_t>
pbsRequest(const Tenant &t, Rng &rng, int64_t &expect)
{
    const int64_t m = int64_t(rng.uniformBelow(kPbsSpace));
    expect = t.pbs_table[size_t(m)];
    return encodeBootstrapPayload(t.keys->encryptInt(m, kPbsSpace, rng),
                                  t.pbs_tv);
}

bool
pbsDecodesTo(const StrixClient::Reply &r, const Tenant &t, int64_t expect,
             uint32_t parent_span)
{
    SpanScope s("client.check", parent_span, r.request_id);
    try {
        const std::vector<LweCiphertext> out = decodeCiphertexts(r.payload);
        return out.size() == 1 &&
               t.keys->decryptInt(out[0], kPbsSpace) == expect;
    } catch (const std::exception &) {
        return false;
    }
}

double
registerTenant(StrixClient &c, const Tenant &t)
{
    SpanScope s("client.register", 0, t.id);
    const uint64_t a = monoNs();
    const StrixClient::Reply r =
        c.call(MsgType::RegisterTenant, t.id, t.evk2);
    if (!r.ok)
        throw std::runtime_error("RegisterTenant failed: " +
                                 r.error_text);
    return msBetween(a, monoNs());
}

struct Sent
{
    uint64_t sent_ns = 0;
    uint64_t reply_ns = 0;
    int64_t expect = 0;
    uint32_t span = 0;
    std::vector<uint8_t> payload; //!< kept only where a resend may follow
};

/**
 * Send one pipelined Bootstrap on @p c; its reply is matched later by
 * request id. @p keep keeps the payload for a resend.
 */
void
sendPbs(StrixClient &c, const Tenant &t, Rng &rng,
        std::map<uint64_t, Sent> &open, bool keep)
{
    Sent s;
    std::vector<uint8_t> payload = pbsRequest(t, rng, s.expect);
    if (keep)
        s.payload = payload;
    s.span = Trace::newId();
    s.sent_ns = monoNs();
    uint64_t id = 0;
    {
        SpanScope span("client.send", s.span);
        id = c.send(MsgType::Bootstrap, t.id, std::move(payload));
    }
    if (id == 0)
        throw std::runtime_error("send failed: connection closed");
    open.emplace(id, std::move(s));
}

/** Block for the next reply on @p c; moves its request into @p done. */
StrixClient::Reply
recvPbs(StrixClient &c, std::map<uint64_t, Sent> &open, Sent &done)
{
    StrixClient::Reply r;
    const uint64_t a = monoNs();
    if (!c.recvReply(r))
        throw std::runtime_error("connection lost while awaiting a reply");
    const uint64_t b = monoNs();
    auto it = open.find(r.request_id);
    if (it == open.end())
        throw std::runtime_error("reply for a request never sent");
    Trace::record("client.recv", Trace::newId(), 0, r.request_id, a, b);
    done = std::move(it->second);
    done.reply_ns = b;
    open.erase(it);
    return r;
}

/**
 * Account a request whose reply was checked. Latency ends at the
 * reply; the request span also covers the client's check.
 */
void
finishRequest(Window &w, const WorkloadSpec &spec,
              const StrixClient::Reply &r, const Sent &s, bool right)
{
    Trace::record("request", s.span, 0, r.request_id, s.sent_ns,
                  monoNs());
    countReply(w, spec, r.ok, r.error, right, s.sent_ns, s.reply_ns);
}

// -- pbs_saturate ------------------------------------------------------

void
runSaturate(Rig &rig, uint64_t seed, uint64_t t_end, Window &w)
{
    onThreads(kConns, w, [&](unsigned conn, Window &part) {
        const Tenant &t = rig.tenants[0];
        StrixClient c = connectTo(rig);
        Rng rng(mix(seed, 0x5a7 + conn));
        std::map<uint64_t, Sent> open;
        auto harvest = [&] {
            Sent s;
            const StrixClient::Reply r = recvPbs(c, open, s);
            const bool right =
                r.ok && pbsDecodesTo(r, t, s.expect, s.span);
            finishRequest(part, *rig.spec, r, s, right);
        };
        while (monoNs() < t_end) {
            while (open.size() < kSaturateWindow) {
                sendPbs(c, t, rng, open, false);
                ++part.attempted;
            }
            harvest();
        }
        while (!open.empty())
            harvest();
    });
}

// -- tenant_churn ------------------------------------------------------

/**
 * Where the churn connections meet between the phases of a step. The
 * last to arrive decides whether the window is still open; a thread
 * that fails calls abort() so its partner does not wait forever.
 */
class Rendezvous
{
  public:
    static constexpr uint64_t kAlwaysOpen =
        std::numeric_limits<uint64_t>::max();

    /** Wait for both connections; false once closed or aborted. */
    bool meet(uint64_t t_end)
    {
        std::unique_lock<std::mutex> lock(m_);
        if (aborted_)
            return false;
        const uint64_t gen = gen_;
        if (++waiting_ == kChurnConns) {
            waiting_ = 0;
            open_ = monoNs() < t_end;
            ++gen_;
            cv_.notify_all();
        } else {
            cv_.wait(lock, [&] { return gen_ != gen || aborted_; });
        }
        return open_ && !aborted_;
    }

    void abort()
    {
        std::lock_guard<std::mutex> lock(m_);
        aborted_ = true;
        cv_.notify_all();
    }

  private:
    std::mutex m_;
    std::condition_variable cv_;
    unsigned waiting_ = 0; // guarded by m_, as are the rest
    uint64_t gen_ = 0;
    bool open_ = true;
    bool aborted_ = false;
};

/** Send @p t's burst on @p c; its replies are harvested later. */
std::map<uint64_t, Sent>
sendBurst(StrixClient &c, const Tenant &t, Rng &rng, Window &part)
{
    std::map<uint64_t, Sent> open;
    for (size_t i = 0; i < kChurnBurst; ++i) {
        sendPbs(c, t, rng, open, true);
        ++part.attempted;
    }
    return open;
}

/** Check every reply to the burst @p open of @p t. */
void
harvestBurst(Rig &rig, StrixClient &c, const Tenant &t,
             std::map<uint64_t, Sent> open, Window &part)
{
    // A tenant evicted before its burst answers UnknownTenant:
    // register again and resend those requests.
    for (int round = 0; !open.empty(); ++round) {
        std::vector<Sent> evicted;
        while (!open.empty()) {
            Sent s;
            const StrixClient::Reply r = recvPbs(c, open, s);
            if (!r.ok && r.error == WireError::UnknownTenant && round < 3) {
                evicted.push_back(std::move(s));
                continue;
            }
            const bool right = r.ok && pbsDecodesTo(r, t, s.expect, s.span);
            finishRequest(part, *rig.spec, r, s, right);
        }
        if (evicted.empty())
            break;
        ++part.reregisters;
        part.register_rtt_ms.push_back(registerTenant(c, t));
        for (Sent &s : evicted) {
            const uint64_t id = c.send(MsgType::Bootstrap, t.id, s.payload);
            if (id == 0)
                throw std::runtime_error("resend failed");
            // Latency keeps counting from the first send.
            open.emplace(id, std::move(s));
        }
    }
}

/**
 * The two connections take turns in lockstep. In step k, connection
 * k%2 sends the burst for tenant k-1, which it registered in the step
 * before; once the burst is written, connection (k+1)%2 uploads
 * tenant k's EVK2 bundle. The server reads the whole burst into one
 * sweep before the upload is complete, decodes the bundle on its loop
 * thread while the sweep runs, and can send the burst's replies only
 * when both are done. The insert evicts tenant k-2, idle since the
 * step before, and never the tenant in flight. Free-running
 * connections instead drift into a different relative phase on each
 * run, and the run's figures with them.
 */
void
runChurn(Rig &rig, uint64_t seed, uint64_t t_end, Window &w)
{
    Rendezvous rv;
    const size_t n = rig.tenants.size();
    size_t next_step = rig.churn_step;
    onThreads(kChurnConns, w, [&](unsigned conn, Window &part) {
        try {
            StrixClient c = connectTo(rig);
            Rng rng(mix(seed, 0xc4a + conn));
            for (size_t k = rig.churn_step;; ++k) {
                if (k % kChurnConns == conn) {
                    const Tenant &t = rig.tenants[(k + n - 1) % n];
                    std::map<uint64_t, Sent> open =
                        sendBurst(c, t, rng, part);
                    if (!rv.meet(Rendezvous::kAlwaysOpen))
                        return;
                    harvestBurst(rig, c, t, std::move(open), part);
                } else {
                    if (!rv.meet(Rendezvous::kAlwaysOpen))
                        return;
                    part.register_rtt_ms.push_back(
                        registerTenant(c, rig.tenants[k % n]));
                }
                if (!rv.meet(t_end)) {
                    if (conn == 0)
                        next_step = k + 1;
                    return;
                }
            }
        } catch (...) {
            rv.abort();
            throw;
        }
    });
    rig.churn_step = next_step;
}

/** The daemon's default Options as @p spec runs them. */
StrixServer::Options
serverOptions(const WorkloadSpec &spec, uint64_t bundle_bytes)
{
    // Ephemeral port; only tenant_churn sets a key budget: room for
    // kChurnResident bundles, not one more.
    StrixServer::Options o;
    o.port = 0;
    if (spec.kind == Kind::TenantChurn)
        o.cache_budget_bytes =
            kChurnResident * bundle_bytes + bundle_bytes / 2;
    return o;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

std::unique_ptr<Rig>
setUp(const WorkloadSpec &spec, uint64_t seed)
{
    const uint64_t t0 = monoNs();
    SpanScope root("setup");
    auto rig = std::make_unique<Rig>();
    rig->spec = &spec;
    for (unsigned i = 0; i < spec.tenants; ++i) {
        Tenant t;
        t.id = i + 1;
        {
            SpanScope s("keys.keygen", root.id(), t.id);
            t.keys = std::make_unique<ClientKeyset>(paramsSetI(),
                                                    mix(seed, 0x6b + i));
        }
        {
            SpanScope s("keys.evk2_encode", root.id(), t.id);
            t.evk2 = encodeEvalKeysPayload(*t.keys->evalKeys(),
                                           EvalKeysFormat::Seeded);
        }
        Rng rng(mix(seed, 0x7ab + i));
        t.pbs_table.resize(kPbsSpace);
        for (auto &v : t.pbs_table)
            v = int64_t(rng.uniformBelow(kPbsSpace));
        t.pbs_tv = makeIntTestVector(
            paramsSetI().N, kPbsSpace,
            [tab = t.pbs_table](int64_t v) {
                return tab[size_t(v) % tab.size()];
            });
        rig->tenants.push_back(std::move(t));
    }
    rig->options = serverOptions(
        spec, rig->tenants[0].keys->evalKeys()->residentBytes());
    rig->server = std::make_unique<StrixServer>(rig->options);
    if (!rig->server->start())
        throw std::runtime_error("server failed to start");
    rig->admin = connectTo(*rig);
    for (const Tenant &t : rig->tenants)
        registerTenant(rig->admin, t);

    // One full-width warm-up sweep per tenant whose bundle the timed
    // window starts from; under the churn budget only the last
    // registered tenants are still resident.
    const size_t first_warm =
        spec.kind == Kind::TenantChurn ? rig->tenants.size() - 1 : 0;
    Rng rng(mix(seed, 0x3a4));
    for (size_t ti = first_warm; ti < rig->tenants.size(); ++ti) {
        const Tenant &t = rig->tenants[ti];
        std::map<uint64_t, Sent> open;
        for (size_t i = 0; i < kWarmupBurst; ++i)
            sendPbs(rig->admin, t, rng, open, false);
        while (!open.empty()) {
            Sent s;
            const StrixClient::Reply r = recvPbs(rig->admin, open, s);
            if (!r.ok || !pbsDecodesTo(r, t, s.expect, s.span))
                throw std::runtime_error("warm-up reply failed its check");
        }
    }
    rig->setup_s = double(monoNs() - t0) * 1e-9;
    return rig;
}

Window
runWindow(Rig &rig, uint64_t seed, double seconds)
{
    Window w;
    w.server0 = rig.server->stats();
    w.exec0 = rig.server->executorStats();
    w.cache0 = rig.server->cacheStats();
    const double cpu0 = rusageCpuS();
    w.t0_ns = monoNs();
    w.seconds = seconds;
    const uint64_t t_end = w.t0_ns + uint64_t(seconds * 1e9);
    // Process CPU at the inner slice boundaries, read while the load
    // runs.
    std::vector<double> boundary_cpu;
    std::thread sampler([&] {
        for (unsigned i = 1; i < kSlices; ++i) {
            const uint64_t due =
                w.t0_ns + uint64_t(seconds * 1e9 * i / kSlices);
            for (uint64_t now = monoNs(); now < due; now = monoNs())
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(due - now));
            boundary_cpu.push_back(rusageCpuS());
        }
    });
    std::exception_ptr err;
    try {
        switch (rig.spec->kind) {
        case Kind::PbsSaturate:
            runSaturate(rig, seed, t_end, w);
            break;
        case Kind::TenantChurn:
            runChurn(rig, seed, t_end, w);
            break;
        }
    } catch (...) {
        err = std::current_exception();
    }
    sampler.join();
    if (err)
        std::rethrow_exception(err);
    w.wall_s = double(monoNs() - w.t0_ns) * 1e-9;
    w.cpu_s = rusageCpuS() - cpu0;
    w.slice_cpu_s.push_back(cpu0);
    w.slice_cpu_s.insert(w.slice_cpu_s.end(), boundary_cpu.begin(),
                         boundary_cpu.end());
    w.slice_cpu_s.push_back(cpu0 + w.cpu_s);
    w.server1 = rig.server->stats();
    w.exec1 = rig.server->executorStats();
    w.cache1 = rig.server->cacheStats();
    return w;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * double(v.size()));
    const size_t idx = size_t(std::max(rank, 1.0)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace sb
