/**
 * @file
 * Shared declarations of the Set-I serving benchmark: the workloads,
 * the live server with its tenants, one timed window's outcome, and
 * the layer replay of the traced run.
 */

#ifndef STRIXBENCH_BENCH_H
#define STRIXBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "server/server.h"
#include "tfhe/client_keyset.h"

namespace sb {

enum class Kind
{
    PbsSaturate,
    TenantChurn,
};

/** One traffic mix. Every figure here is fixed for all runs. */
struct WorkloadSpec
{
    const char *name;
    Kind kind;
    unsigned tenants;    //!< key bundles the client side generates
    double limit_ms;     //!< latency limit behind slo_ok_frac
    const char *summary; //!< one line for the report
};

/** The workloads; nullptr for an unknown name. */
const WorkloadSpec *findWorkload(const std::string &name);

// Fixed shape of the load (see README.md for why each value).
inline constexpr unsigned kConns = 4;          //!< max client conns
inline constexpr size_t kSaturateWindow = 8;   //!< in flight per conn
inline constexpr uint64_t kPbsSpace = 8;       //!< 3-bit LUT (Bootstrap)
inline constexpr uint32_t kAdderBits = 8;      //!< replayed circuit
inline constexpr size_t kChurnBurst = 16;      //!< requests per tenant visit
inline constexpr unsigned kChurnConns = 2;
inline constexpr unsigned kChurnResident = 2;  //!< bundles the budget holds
inline constexpr size_t kWarmupBurst = 16;     //!< one full default sweep
inline constexpr unsigned kSlices = 3; //!< equal parts of a timed window

/** One tenant as its client sees it: secret keys + upload frame. */
struct Tenant
{
    uint64_t id = 0;
    std::unique_ptr<strix::ClientKeyset> keys;
    std::vector<uint8_t> evk2; //!< RegisterTenant payload (EVK2)
    std::vector<int64_t> pbs_table; //!< 3-bit LUT for Bootstrap traffic
    strix::TorusPolynomial pbs_tv;  //!< its test vector
};

/** splitmix64 of @p a ^ @p b: derives every stream from the run seed. */
inline uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a ^ (b * 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** A live in-process server and the tenants that use it. */
struct Rig
{
    const WorkloadSpec *spec = nullptr;
    strix::StrixServer::Options options;
    std::unique_ptr<strix::StrixServer> server;
    strix::StrixClient admin; //!< set-up and probe connection
    std::vector<Tenant> tenants;
    double setup_s = 0;
    //! tenant_churn's next lockstep step; step 0 bursts on the tenant
    //! set-up registered last, and a later window resumes the rotation.
    size_t churn_step = 0;
};

/**
 * Start a server, generate every tenant's keys, register them over
 * EVK2 and run one warm-up sweep. Throws std::runtime_error when any
 * step fails.
 */
std::unique_ptr<Rig> setUp(const WorkloadSpec &spec, uint64_t seed);

/** Outcome of one timed window. */
struct Window
{
    uint64_t attempted = 0;
    uint64_t ok = 0;          //!< OK replies that decoded correctly
    uint64_t failed = 0;      //!< errors, refusals and wrong decodes
    uint64_t misdecoded = 0;  //!< OK replies that decoded wrongly
    uint64_t slo_ok = 0;      //!< OK within the workload's limit
    uint64_t reregisters = 0; //!< UnknownTenant -> register again
    std::map<std::string, uint64_t> errors; //!< by wire error name
    std::vector<double> lat_ms;             //!< OK replies
    std::vector<uint64_t> reply_ns;         //!< their arrival, as lat_ms
    std::vector<double> register_rtt_ms;
    uint64_t t0_ns = 0;   //!< first send
    double seconds = 0;   //!< requested length; sends stop after it
    double wall_s = 0;    //!< first send to last reply
    double cpu_s = 0;     //!< process user+sys over the same interval
    //! Process CPU seconds at the start, at each inner slice boundary
    //! and at the end: kSlices + 1 values. The last slice runs on to
    //! the last reply.
    std::vector<double> slice_cpu_s;
    strix::StrixServer::Stats server0, server1;
    strix::BatchExecutor::Stats exec0, exec1;
    strix::CacheStats cache0, cache1;
};

/** Drive @p rig for @p seconds with inputs drawn from @p seed. */
Window runWindow(Rig &rig, uint64_t seed, double seconds);

/** What the layer replay learned besides its spans. */
struct ReplayFacts
{
    unsigned sweep_threads = 0;   //!< bootstrapBatch pool size
    uint64_t bsk_fft_bytes = 0;   //!< frequency-domain BSK streamed per PBS
    uint64_t ksk_bytes = 0;       //!< KSK streamed per keyswitch
    uint64_t req_frame_bytes = 0; //!< one request frame on the wire
    uint64_t reply_frame_bytes = 0;
    uint64_t circuit_pbs = 0;     //!< PBS the adder plan keeps
    uint64_t circuit_depth = 0;
};

/**
 * Replay the calls a served request makes into each layer, one span
 * per call, on the rig's first tenant. Throws when the in-process
 * circuit evaluation it times decodes wrongly.
 */
ReplayFacts replayLayers(Rig &rig, uint64_t seed);

/** Percentile by nearest rank over a copy of @p v (0 when empty). */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

} // namespace sb

#endif // STRIXBENCH_BENCH_H
