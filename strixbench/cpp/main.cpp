/**
 * @file
 * strixbench: the Set-I serving benchmark.
 *
 *   strixbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--record <file>] [--spans <file>] [--source-id <id>]
 *
 * Starts an in-process StrixServer with the daemon's default Options,
 * sets it up (keygen, EVK2 registration, one warm-up sweep), then
 * drives the workload for --seconds with every reply decode-checked.
 * Six more set-ups follow the window; setup_s is the median of all
 * seven. The untraced run (--trace 0) reports the
 * end-to-end metrics, each the median over three equal slices of the
 * window. The traced run (--trace 1) replays each layer's calls under
 * spans, runs half the window untraced and half traced, and reports
 * the per-layer metrics. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Exit code 0 when the
 * outputs are correct, 1 when they are not, 2 on bad usage.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "poly/simd.h"
#include "trace.h"

#ifndef STRIXBENCH_BUILD_TYPE
#define STRIXBENCH_BUILD_TYPE "unknown"
#endif

using namespace strix;

namespace sb {
namespace {

constexpr int kSetupReps = 7;
constexpr double kTableVConcreteMs = 14; //!< paper Table V, set I PBS
constexpr double kLayerTolerancePct = 5; //!< ROADMAP layer-sum tolerance

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string record, spans, source_id = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (!(a.seconds >= 1 && a.seconds <= 60))
                return false;
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                return false;
            a.trace = v[0] == '1';
        } else if (flag == "--record") {
            a.record = v;
        } else if (flag == "--spans") {
            a.spans = v;
        } else if (flag == "--source-id") {
            a.source_id = v;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return have_workload;
}

std::string
jstr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o + "\"";
}

std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string o = "{";
    for (size_t i = 0; i < ms.size(); ++i)
        o += (i ? ", " : "") + jstr(ms[i].name) + ": {\"value\": " +
             jnum(ms[i].value) + ", \"unit\": " + jstr(ms[i].unit) + "}";
    return o + "}";
}

std::string
contextJson(const Rig &rig, const Args &a)
{
    char host[256] = {};
    gethostname(host, sizeof host - 1);
    __builtin_cpu_init();
    const TfheParams &p = paramsSetI();
    const StrixServer::Options &o = rig.options;
    std::ostringstream s;
    s << std::boolalpha << "{\"source_id\": " << jstr(a.source_id)
      << ", \"host\": " << jstr(host)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu\": {\"avx2\": " << bool(__builtin_cpu_supports("avx2"))
      << ", \"fma\": " << bool(__builtin_cpu_supports("fma"))
      << ", \"avx512f\": " << bool(__builtin_cpu_supports("avx512f"))
      << ", \"avx512ifma\": "
      << bool(__builtin_cpu_supports("avx512ifma")) << "}"
      << ", \"kernels\": " << jstr(activeKernels().name)
      << ", \"force_scalar\": " << simdForcedScalar()
      << ", \"build_type\": " << jstr(STRIXBENCH_BUILD_TYPE)
      << ", \"compiler\": " << jstr(__VERSION__)
      << ", \"params\": {\"name\": " << jstr(p.name) << ", \"n\": " << p.n
      << ", \"N\": " << p.N << ", \"k\": " << p.k
      << ", \"l_bsk\": " << p.l_bsk << ", \"bg_bits\": " << p.bg_bits
      << ", \"l_ksk\": " << p.l_ksk
      << ", \"ks_base_bits\": " << p.ks_base_bits << "}"
      << ", \"options\": {\"port\": " << o.port
      << ", \"max_inflight_per_tenant\": " << o.max_inflight_per_tenant
      << ", \"max_queue_depth\": " << o.max_queue_depth
      << ", \"max_request_payload_bytes\": "
      << o.max_request_payload_bytes
      << ", \"exec.target_batch\": " << o.exec.target_batch
      << ", \"exec.flush_delay_us\": " << o.exec.flush_delay_us
      << ", \"exec.sweep_threads\": " << o.exec.sweep_threads
      << ", \"send.mtu_bytes\": " << o.send.mtu_bytes
      << ", \"send.flush_delay_us\": " << o.send.flush_delay_us
      << ", \"cache_budget_bytes\": " << o.cache_budget_bytes
      << ", \"limits.max_payload_bytes\": " << o.limits.max_payload_bytes
      << "}, \"workload\": {\"name\": " << jstr(rig.spec->name)
      << ", \"shape\": " << jstr(rig.spec->summary)
      << ", \"limit_ms\": " << rig.spec->limit_ms
      << ", \"seconds\": " << a.seconds << ", \"slices\": " << kSlices
      << ", \"setup_reps\": " << kSetupReps << "}}";
    return s.str();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/**
 * The percentile @p p as far as the sample supports it: it must leave
 * 10 requests beyond it (p99 needs n >= 1000), else the highest
 * percentile that does is used instead.
 */
double
supportedPct(double p, size_t n)
{
    if (n <= 20)
        return 0.5;
    return std::min(p, 1.0 - 10.0 / double(n));
}

double
cpuMsPerReq(const Window &w)
{
    return w.ok ? w.cpu_s * 1e3 / double(w.ok) : 0.0;
}

/** The OK replies, wall time and CPU time of one slice of a window. */
struct Slice
{
    std::vector<double> lat_ms;
    double wall_s = 0;
    double cpu_s = 0;
};

/**
 * Split @p w into kSlices equal parts by reply time. The last part
 * also holds the replies that arrive after the sends stop.
 */
std::vector<Slice>
slicesOf(const Window &w)
{
    std::vector<Slice> out(kSlices);
    const double len = w.seconds / kSlices;
    for (unsigned i = 0; i < kSlices; ++i) {
        out[i].wall_s = i + 1 < kSlices ? len : w.wall_s - len * i;
        out[i].cpu_s = w.slice_cpu_s[i + 1] - w.slice_cpu_s[i];
    }
    for (size_t j = 0; j < w.lat_ms.size(); ++j) {
        const double at = double(w.reply_ns[j] - w.t0_ns) * 1e-9;
        const size_t i = std::min<size_t>(size_t(at / len), kSlices - 1);
        out[i].lat_ms.push_back(w.lat_ms[j]);
    }
    return out;
}

/** The median over @p slices of @p fn(slice). */
template <typename Fn>
double
sliceMedian(const std::vector<Slice> &slices, Fn fn)
{
    std::vector<double> v;
    for (const Slice &s : slices)
        v.push_back(fn(s));
    return median(v);
}

std::vector<Metric>
endToEnd(const Window &w, double setup_s, double peak_rss_mb)
{
    const double n = double(std::max<uint64_t>(w.attempted, 1));
    const std::vector<Slice> ss = slicesOf(w);
    auto pct = [&](double p) {
        return sliceMedian(ss, [p](const Slice &s) {
            return percentile(s.lat_ms, supportedPct(p, s.lat_ms.size()));
        });
    };
    return {
        {"setup_s", setup_s, "s"},
        {"throughput_rps",
         sliceMedian(ss,
                     [](const Slice &s) {
                         return double(s.lat_ms.size()) / s.wall_s;
                     }),
         "1/s"},
        {"p50_ms", pct(0.50), "ms"},
        {"p90_ms", pct(0.90), "ms"},
        {"p99_ms", pct(0.99), "ms"},
        {"ok_frac", double(w.ok) / n, "frac"},
        {"slo_ok_frac", double(w.slo_ok) / n, "frac"},
        {"cpu_ms_per_req",
         sliceMedian(ss,
                     [](const Slice &s) {
                         return s.lat_ms.empty() ? 0.0
                                                 : s.cpu_s * 1e3 /
                                                       double(s.lat_ms.size());
                     }),
         "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
}

/** Median self time of the spans named @p name, in microseconds. */
double
selfUs(const std::map<std::string, std::vector<double>> &self,
       const char *name)
{
    auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
}

std::vector<Metric>
perLayer(const StrixServer::Options &options, size_t evk2_bytes,
         const ReplayFacts &f, const Window &untraced,
         const Window &w,
         const std::map<std::string, std::vector<double>> &self)
{
    const TfheParams &p = paramsSetI();
    auto us = [&](const char *n) { return selfUs(self, n); };
    const double cmux = us("tfhe.cmux_rotate");
    const double extract = us("tfhe.sample_extract");
    const double ks_ms = us("tfhe.keyswitch") * 1e-3;
    const double pbs_ms = us("tfhe.pbs_ks") * 1e-3;
    const double sweep_ms = us("tfhe.sweep16") * 1e-3;
    const double threads = double(std::max(1u, f.sweep_threads));
    const double gap_pct =
        100.0 *
        std::fabs(double(p.n) * cmux * 1e-3 + extract * 1e-3 + ks_ms -
                  pbs_ms) /
        pbs_ms;
    const double bytes = double(f.bsk_fft_bytes + f.ksk_bytes);

    const uint64_t sweeps = w.exec1.sweeps - w.exec0.sweeps;
    const double swept = double(w.exec1.swept_lwes - w.exec0.swept_lwes);
    const double width = sweeps ? swept / double(sweeps) : 0.0;
    const double target = double(options.exec.target_batch);
    auto frac = [&](uint64_t a, uint64_t b) {
        return sweeps ? double(b - a) / double(sweeps) : 0.0;
    };
    // The one sweep a request rides, at the window's mean width.
    const double sweep_share_ms = sweep_ms *
                                  std::ceil(std::max(width, 1.0) / threads) /
                                  std::ceil(16.0 / threads);
    const double p50 = percentile(w.lat_ms, 0.5);
    const double unattributed =
        p50 - (us("codec.req_decode") + us("codec.reply_encode") +
               us("net.ping")) *
                  1e-3 -
        sweep_share_ms;
    const double cpu_a = cpuMsPerReq(untraced);

    return {
        {"poly.fft_fwd_us", us("poly.fft_fwd"), "us"},
        {"poly.fft_inv_us", us("poly.fft_inv"), "us"},
        {"poly.mac_us", us("poly.mac"), "us"},
        {"poly.fft_fwd_batch_us", us("poly.fft_fwd_batch"), "us"},
        {"tfhe.decompose_us", us("tfhe.decompose"), "us"},
        {"tfhe.external_product_us", us("tfhe.external_product"), "us"},
        {"tfhe.external_product_per_poly_us",
         us("tfhe.external_product_per_poly"), "us"},
        {"tfhe.cmux_rotate_us", cmux, "us"},
        {"tfhe.blind_rotate_ms", us("tfhe.blind_rotate") * 1e-3, "ms"},
        {"tfhe.sample_extract_us", extract, "us"},
        {"tfhe.keyswitch_ms", ks_ms, "ms"},
        {"tfhe.pbs_ks_ms", pbs_ms, "ms"},
        {"tfhe.pbs_sum_gap_pct", gap_pct, "%"},
        {"tfhe.sweep16_ms", sweep_ms, "ms"},
        {"tfhe.sweep_efficiency", 16.0 * pbs_ms / (sweep_ms * threads),
         "ratio"},
        {"tfhe.bytes_per_pbs", bytes, "bytes"},
        {"tfhe.effective_gbps", bytes / (pbs_ms * 1e-3) * 1e-9, "GB/s"},
        {"exec.sweeps", double(sweeps), "count"},
        {"exec.mean_width", width, "count"},
        {"exec.occupancy", width / target, "ratio"},
        {"exec.size_flush_frac",
         frac(w.exec0.size_flushes, w.exec1.size_flushes), "ratio"},
        {"exec.deadline_flush_frac",
         frac(w.exec0.deadline_flushes, w.exec1.deadline_flushes),
         "ratio"},
        {"keys.keygen_ms", us("keys.keygen") * 1e-3, "ms"},
        {"keys.evk2_bytes", double(evk2_bytes), "bytes"},
        {"keys.evk2_encode_ms", us("keys.evk2_encode") * 1e-3, "ms"},
        {"keys.evk2_decode_ms", us("keys.evk2_decode") * 1e-3, "ms"},
        {"keys.register_rtt_ms", us("client.register") * 1e-3, "ms"},
        {"keys.reregisters", double(w.reregisters), "count"},
        {"cache.inserts", double(w.cache1.inserts - w.cache0.inserts),
         "count"},
        {"cache.evictions",
         double(w.cache1.evictions - w.cache0.evictions), "count"},
        {"cache.hits", double(w.cache1.hits - w.cache0.hits), "count"},
        {"cache.resident_mb", double(w.cache1.resident_bytes) / 1048576.0,
         "MB"},
        {"circuit.plan_us", us("circuit.plan"), "us"},
        {"circuit.pbs", double(f.circuit_pbs), "count"},
        {"circuit.depth", double(f.circuit_depth), "count"},
        {"circuit.eval_sync_ms", us("circuit.eval_sync") * 1e-3, "ms"},
        {"codec.req_decode_us", us("codec.req_decode"), "us"},
        {"codec.reply_encode_us", us("codec.reply_encode"), "us"},
        {"net.ping_rtt_us", us("net.ping"), "us"},
        {"net.req_bytes", double(f.req_frame_bytes), "bytes"},
        {"net.reply_bytes", double(f.reply_frame_bytes), "bytes"},
        {"server.busy_rejects",
         double(w.server1.busy_rejects - w.server0.busy_rejects), "count"},
        {"server.deadline_misses",
         double(w.server1.deadline_misses - w.server0.deadline_misses),
         "count"},
        {"server.error_replies",
         double(w.server1.error_replies - w.server0.error_replies),
         "count"},
        {"server.unattributed_ms", unattributed, "ms"},
        {"trace.overhead_pct",
         cpu_a > 0 ? 100.0 * (cpuMsPerReq(w) - cpu_a) / cpu_a : 0.0, "%"},
    };
}

double
valueOf(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms)
        if (m.name == name)
            return m.value;
    return 0.0;
}

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
printFindings(const std::vector<Metric> &layer, const Window &w)
{
    const double gap = valueOf(layer, "tfhe.pbs_sum_gap_pct");
    const double pbs = valueOf(layer, "tfhe.pbs_ks_ms");
    const double un = valueOf(layer, "server.unattributed_ms");
    const double p50 = percentile(w.lat_ms, 0.5);
    const double un_pct = p50 > 0 ? 100.0 * un / p50 : 0.0;
    std::printf("\nlayer-sum findings (tolerance %.0f%%):\n",
                kLayerTolerancePct);
    std::printf("  tfhe.pbs_sum_gap_pct   %6.2f%%  n*cmux + extract + KS "
                "vs PBS+KS: %s\n",
                gap, gap <= kLayerTolerancePct ? "within" : "FINDING: over");
    std::printf("  server.unattributed_ms %8.2f ms = %5.1f%% of client "
                "p50 %.2f ms (queue wait + poll lag): %s\n",
                un, un_pct, p50,
                std::fabs(un_pct) <= kLayerTolerancePct
                    ? "within"
                    : "FINDING: over");
    std::printf("  yardstick (context, not a gate): paper Table V, "
                "Concrete %.0f ms per set-I PBS on one Xeon thread; "
                "tfhe.pbs_ks_ms here %.2f ms (%.2fx)\n",
                kTableVConcreteMs, pbs, pbs / kTableVConcreteMs);
}

void
printSelfTimes(const std::map<std::string, std::vector<double>> &self)
{
    std::printf("\nspan self time (duration minus child spans):\n");
    std::printf("  %-34s %8s %12s %12s\n", "span", "count", "median us",
                "total ms");
    for (const auto &[name, v] : self) {
        double total = 0;
        for (double x : v)
            total += x;
        std::printf("  %-34s %8zu %12.2f %12.2f\n", name.c_str(), v.size(),
                    median(v), total * 1e-3);
    }
}

std::string
windowExtra(const Window &w)
{
    std::ostringstream s;
    s << "{\"attempted\": " << w.attempted << ", \"ok\": " << w.ok
      << ", \"failed\": " << w.failed << ", \"misdecoded\": "
      << w.misdecoded << ", \"fail_frac\": "
      << jnum(w.attempted ? double(w.failed) / double(w.attempted) : 0)
      << ", \"latency_samples\": " << w.lat_ms.size()
      << ", \"slice_latency_samples\": [";
    const std::vector<Slice> ss = slicesOf(w);
    for (size_t i = 0; i < ss.size(); ++i)
        s << (i ? ", " : "") << ss[i].lat_ms.size();
    s << "], \"reregisters\": " << w.reregisters
      << ", \"register_rtt_ms_median\": " << jnum(median(w.register_rtt_ms))
      << ", \"wall_s\": " << jnum(w.wall_s) << ", \"errors\": {";
    bool first = true;
    for (const auto &[k, v] : w.errors) {
        s << (first ? "" : ", ") << jstr(k) << ": " << v;
        first = false;
    }
    s << "}}";
    return s.str();
}

int
run(const Args &a)
{
    const WorkloadSpec *spec = findWorkload(a.workload);
    if (!spec) {
        std::fprintf(stderr, "strixbench: unknown workload %s\n",
                     a.workload.c_str());
        return 2;
    }
    Trace::setEnabled(a.trace);

    std::unique_ptr<Rig> rig = setUp(*spec, a.seed);
    std::vector<double> setups{rig->setup_s};
    const std::string context = contextJson(*rig, a);
    std::printf("strixbench %s seed %llu, %s\ncontext: %s\n", spec->name,
                (unsigned long long)a.seed, spec->summary, context.c_str());

    ReplayFacts facts;
    Window untraced, w;
    const double first_request_s = double(monoNs()) * 1e-9;
    if (a.trace) {
        facts = replayLayers(*rig, a.seed);
        Trace::setEnabled(false);
        untraced = runWindow(*rig, mix(a.seed, 1), a.seconds / 2);
        Trace::setEnabled(true);
        w = runWindow(*rig, mix(a.seed, 2), a.seconds / 2);
        Trace::setEnabled(false);
    } else {
        w = runWindow(*rig, a.seed, a.seconds);
    }
    rig->admin.close();
    rig->server->stop();
    // Peak RSS is read here, before the further set-ups below: the
    // heap each one leaves behind differs from run to run by up to
    // half the serving footprint.
    const double peak_rss_mb = peakRssMb();
    const StrixServer::Options options = rig->options;
    const size_t evk2_bytes = rig->tenants[0].evk2.size();
    rig.reset();
    Trace::setEnabled(a.trace);
    for (int r = 1; r < kSetupReps; ++r) {
        malloc_trim(0);
        setups.push_back(setUp(*spec, a.seed)->setup_s);
    }
    Trace::setEnabled(false);
    const double setup_s = median(setups);
    std::printf("setup_s: median of %d set-ups:", kSetupReps);
    for (double s : setups)
        std::printf(" %.3f", s);
    std::printf("\n");

    const uint64_t attempted = untraced.attempted + w.attempted;
    const uint64_t failed = untraced.failed + w.failed;
    const uint64_t misdecoded = untraced.misdecoded + w.misdecoded;
    const bool must_not_fail = spec->kind == Kind::PbsSaturate;
    const bool correct =
        misdecoded == 0 && !(must_not_fail && failed > 0) && attempted > 0;

    std::vector<Metric> metrics;
    if (a.trace) {
        const std::vector<Span> spans = Trace::snapshot();
        const auto self = selfTimesUs(spans);
        metrics = perLayer(options, evk2_bytes, facts, untraced, w, self);
        printSelfTimes(self);
        if (!a.spans.empty()) {
            if (!writeSpans(a.spans, spans))
                std::fprintf(stderr, "strixbench: cannot write %s\n",
                             a.spans.c_str());
            else
                std::printf("\nwrote %zu spans to %s\n", spans.size(),
                            a.spans.c_str());
        }
        std::printf("\nper-layer metrics (bytes_per_pbs and effective_gbps "
                    "are computed from key sizes, not measured traffic):\n");
        printMetrics(metrics);
        printFindings(metrics, w);
    } else {
        metrics = endToEnd(w, setup_s, peak_rss_mb);
        std::printf("\nend-to-end metrics (rates, latency percentiles and "
                    "CPU per request are medians over %u slices):\n",
                    kSlices);
        for (const Slice &sl : slicesOf(w))
            std::printf("  slice: %zu replies in %.2f s; p90_ms uses p%.2f, "
                        "p99_ms uses p%.2f\n",
                        sl.lat_ms.size(), sl.wall_s,
                        100.0 * supportedPct(0.90, sl.lat_ms.size()),
                        100.0 * supportedPct(0.99, sl.lat_ms.size()));
        printMetrics(metrics);
    }
    std::printf("window: %s\n", windowExtra(w).c_str());
    if (!correct)
        std::printf("CORRECTNESS GATE FAILED: %llu misdecoded, %llu "
                    "failed\n",
                    (unsigned long long)misdecoded,
                    (unsigned long long)failed);

    const std::string result =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"metrics\": " + metricsJson(metrics) + "}";
    if (!a.record.empty()) {
        std::FILE *f = std::fopen(a.record.c_str(), "w");
        if (f) {
            std::fprintf(f,
                         "{\"workload\": %s, \"seed\": %llu, \"trace\": %s, "
                         "\"context\": %s, \"setup_runs_s\": [",
                         jstr(spec->name).c_str(),
                         (unsigned long long)a.seed,
                         a.trace ? "true" : "false", context.c_str());
            for (size_t i = 0; i < setups.size(); ++i)
                std::fprintf(f, "%s%s", i ? ", " : "",
                             jnum(setups[i]).c_str());
            std::fprintf(f,
                         "], \"first_request_s\": %s, \"window\": %s, "
                         "\"result\": %s}\n",
                         jnum(first_request_s).c_str(),
                         windowExtra(w).c_str(), result.c_str());
            std::fclose(f);
        }
    }
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace sb

int
main(int argc, char **argv)
{
    sb::monoNs(); // anchor the clock at process start
    sb::Args args;
    if (!sb::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: strixbench --workload <name> --seed <n> "
                     "--seconds <1..60> --trace <0|1> [--record <file>] "
                     "[--spans <file>] [--source-id <id>]\n");
        return 2;
    }
    try {
        return sb::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "strixbench: %s\n", e.what());
        return 1;
    }
}
