/**
 * @file
 * Google-benchmark microbenchmarks of the software TFHE substrate:
 * transforms, multipliers, decomposition, external product, PBS,
 * keyswitch, and gates. These are the measured counterparts of the
 * CPU baseline's cost model.
 *
 * `--json <file>` (or `--json=<file>`) writes the results as Google
 * Benchmark's JSON to <file>; CI's bench job uploads that file as the
 * `bench-results` artifact, and BENCH_baseline.json in the repo root
 * is the first recorded capture. The BM_FftForward/<kernel> rows run
 * the scalar and AVX2 kernel tables explicitly, so one run records
 * the dispatch speedup; every other row uses whatever activeKernels()
 * selected (see the `fft_kernel` context key, and STRIX_FORCE_SCALAR
 * to pin it).
 */

#include <benchmark/benchmark.h>

#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "poly/simd.h"
#include "tfhe/context_cache.h"
#include "tfhe/gates.h"
#include "tfhe/serialize.h"
#include "workloads/circuit.h"
#include "workloads/circuit_analysis.h"

using namespace strix;

namespace {

/** Shared set-I split keyset (keygen is expensive; build once). */
struct KeysI
{
    KeysI() : client(paramsSetI(), 77), server(client.evalKeys()) {}
    ClientKeyset client;
    ServerContext server;
};

KeysI &
keysI()
{
    static KeysI keys;
    return keys;
}

void
BM_ComplexFft(benchmark::State &state)
{
    const size_t m = state.range(0);
    const FftPlan &plan = FftPlan::get(m);
    std::vector<Cplx> data(m, Cplx(0.5, -0.25));
    for (auto _ : state) {
        plan.forward(data.data());
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_ComplexFft)->Arg(512)->Arg(1024)->Arg(8192);

void
BM_NegacyclicForward(benchmark::State &state)
{
    const size_t n = state.range(0);
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(1);
    TorusPolynomial p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = rng.uniformTorus32();
    FreqPolynomial f;
    for (auto _ : state) {
        eng.forward(f, p);
        benchmark::DoNotOptimize(f.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NegacyclicForward)->Arg(1024)->Arg(2048)->Arg(16384);

void
BM_PolyMulNaive(benchmark::State &state)
{
    const size_t n = state.range(0);
    Rng rng(2);
    IntPolynomial a(n);
    TorusPolynomial b(n), r(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = int32_t(rng.uniformBelow(1024)) - 512;
        b[i] = rng.uniformTorus32();
    }
    for (auto _ : state) {
        negacyclicMulNaive(r, a, b);
        benchmark::DoNotOptimize(r.data());
    }
}
BENCHMARK(BM_PolyMulNaive)->Arg(256)->Arg(1024);

void
BM_PolyMulKaratsuba(benchmark::State &state)
{
    const size_t n = state.range(0);
    Rng rng(3);
    IntPolynomial a(n);
    TorusPolynomial b(n), r(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = int32_t(rng.uniformBelow(1024)) - 512;
        b[i] = rng.uniformTorus32();
    }
    for (auto _ : state) {
        negacyclicMulKaratsuba(r, a, b);
        benchmark::DoNotOptimize(r.data());
    }
}
BENCHMARK(BM_PolyMulKaratsuba)->Arg(256)->Arg(1024);

void
BM_PolyMulFft(benchmark::State &state)
{
    const size_t n = state.range(0);
    Rng rng(4);
    IntPolynomial a(n);
    TorusPolynomial b(n), r(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = int32_t(rng.uniformBelow(1024)) - 512;
        b[i] = rng.uniformTorus32();
    }
    for (auto _ : state) {
        negacyclicMulFft(r, a, b);
        benchmark::DoNotOptimize(r.data());
    }
}
BENCHMARK(BM_PolyMulFft)->Arg(256)->Arg(1024)->Arg(16384);

void
BM_GadgetDecomposePoly(benchmark::State &state)
{
    const size_t n = state.range(0);
    GadgetParams g{10, 2};
    Rng rng(5);
    TorusPolynomial p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = rng.uniformTorus32();
    std::vector<IntPolynomial> out;
    for (auto _ : state) {
        gadgetDecomposePoly(out, p, g);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GadgetDecomposePoly)->Arg(1024)->Arg(16384);

/**
 * One set-I-shaped external product (N=1024, k=1, l=2, Bg=2^10) with a
 * persistent scratch: decompose, (k+1)*l forward FFTs streamed into
 * the multiply-accumulate, k+1 in-place inverse FFTs.
 */
void
BM_ExternalProductFft(benchmark::State &state)
{
    Rng rng(6);
    const uint32_t n = 1024, k = 1;
    GlweKey key(k, n, rng);
    GadgetParams g{10, 2};
    GgswFft ggsw(ggswEncrypt(key, 1, g, 0.0, rng));
    TorusPolynomial mu(n);
    GlweCiphertext ct = glweEncrypt(key, mu, 0.0, rng);
    GlweCiphertext out;
    PbsScratch scratch;
    for (auto _ : state) {
        ggsw.externalProduct(out, ct, scratch);
        benchmark::DoNotOptimize(&out);
    }
}
BENCHMARK(BM_ExternalProductFft);

void
BM_ProgrammableBootstrap(benchmark::State &state)
{
    auto &keys = keysI();
    auto ct = keys.client.encryptInt(2, 4);
    TorusPolynomial tv = makeIntTestVector(keys.server.params().N, 4,
                                           [](int64_t x) { return x; });
    for (auto _ : state) {
        auto out = programmableBootstrap(ct, tv, keys.server.bsk());
        benchmark::DoNotOptimize(&out);
    }
    state.SetLabel("parameter set I");
}
BENCHMARK(BM_ProgrammableBootstrap)->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

void
BM_KeySwitch(benchmark::State &state)
{
    auto &keys = keysI();
    auto ct = keys.client.encryptInt(2, 4);
    TorusPolynomial tv = makeIntTestVector(keys.server.params().N, 4,
                                           [](int64_t x) { return x; });
    auto big = programmableBootstrap(ct, tv, keys.server.bsk());
    for (auto _ : state) {
        auto out = keySwitch(big, keys.server.ksk());
        benchmark::DoNotOptimize(&out);
    }
}
BENCHMARK(BM_KeySwitch)->Unit(benchmark::kMillisecond);

void
BM_GateNand(benchmark::State &state)
{
    auto &keys = keysI();
    auto a = keys.client.encryptBit(true);
    auto b = keys.client.encryptBit(false);
    for (auto _ : state) {
        auto out = gateNand(keys.server, a, b);
        benchmark::DoNotOptimize(&out);
    }
    state.SetLabel("bootstrapped NAND, set I");
}
BENCHMARK(BM_GateNand)->Unit(benchmark::kMillisecond)->MinTime(2.0);

/**
 * One full-width PBS+KS sweep through ServerContext::bootstrapBatch at
 * set I: the batch is cut into one contiguous chunk per pool worker,
 * and each chunk is blind-rotated key-stationary. Wall time per sweep;
 * items are ciphertexts, so items_per_second is sweep throughput.
 */
void
BM_BootstrapBatch(benchmark::State &state)
{
    auto &keys = keysI();
    const size_t width = size_t(state.range(0));
    std::vector<LweCiphertext> cts;
    for (size_t i = 0; i < width; ++i)
        cts.push_back(keys.client.encryptInt(int64_t(i % 4), 4));
    TorusPolynomial tv = makeIntTestVector(keys.server.params().N, 4,
                                           [](int64_t x) { return x; });
    for (auto _ : state) {
        auto out = keys.server.bootstrapBatch(cts, tv);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t(width));
    state.counters["threads"] = keys.server.batchThreads();
    state.SetLabel("PBS+KS sweep, set I");
}
BENCHMARK(BM_BootstrapBatch)->Arg(16)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Forward FFT through an explicit kernel table: the A/B pair CI
 * records so the dispatch speedup is measured, not asserted (expected
 * well above 2x on AVX2 hosts -- the baseline capture shows 5-9x --
 * but the bench job never gates a merge; shared runners are noisy).
 */
void
BM_FftForwardKernel(benchmark::State &state, const PolyKernels *kernels,
                    size_t m)
{
    const FftPlan &plan = FftPlan::get(m);
    std::vector<Cplx> data(m, Cplx(0.5, -0.25));
    for (auto _ : state) {
        plan.forward(data.data(), *kernels);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t(m));
}

/**
 * Keygen-amortization A/B: BM_KeygenCold generates a full keyset from
 * scratch (a fresh seed each iteration so nothing ages into warmth),
 * BM_ContextCacheHit looks the same shape up in a primed
 * ContextCache. The recorded ratio is the claim the service layer
 * makes: repeated sessions pay a lookup, not a keygen (expected
 * >= 100x; typically far more). The paper sets would inflate the
 * ratio further but make the cold rows minutes long, so both rows use
 * the small-but-real PBS shape the unit tests bootstrap with
 * (n=48, N=512, k=1, l=3).
 */
const TfheParams &
cacheBenchParams()
{
    static const TfheParams p = testParams(48, 512, 1, 3, 8, 0.0);
    return p;
}

void
BM_KeygenCold(benchmark::State &state)
{
    uint64_t seed = 0x5eed;
    for (auto _ : state) {
        ClientKeyset keyset(cacheBenchParams(), seed++);
        benchmark::DoNotOptimize(&keyset);
    }
    state.SetLabel("full keygen, n=48 N=512");
}
BENCHMARK(BM_KeygenCold)->Unit(benchmark::kMillisecond);

void
BM_ContextCacheHit(benchmark::State &state)
{
    static ContextCache cache;
    cache.getOrCreate(cacheBenchParams(), 0x5eed); // prime: one miss
    for (auto _ : state) {
        auto keys = cache.getOrCreate(cacheBenchParams(), 0x5eed);
        benchmark::DoNotOptimize(keys.get());
    }
    state.SetLabel("cached EvalKeys lookup");
}
BENCHMARK(BM_ContextCacheHit);

/**
 * Naive-vs-planned circuit evaluation A/B on the 8-bit ripple-carry
 * adder: the naive row bootstraps all 37 gates sequentially; the
 * planned row runs the CircuitAnalyzer plan (majority fusion + XOR
 * elision + per-level bootstrapBatch sweeps). Both rows carry their
 * PBS count as a counter so the CI summary can print the elision
 * ratio next to the wall-time speedup. Same small-but-real PBS shape
 * as the cache rows; the plan itself is parameter-checked at set I in
 * test_circuit_analysis.
 */
struct CircuitBench
{
    CircuitBench()
        : client(cacheBenchParams(), 0xC13C),
          server(client.evalKeys()), circuit(buildAdder(8)),
          plan(analyzeCircuit(circuit, cacheBenchParams()))
    {
        for (uint32_t i = 0; i < circuit.numInputs(); ++i)
            inputs.push_back(client.encryptBit((i & 1) != 0));
    }
    ClientKeyset client;
    ServerContext server;
    Circuit circuit;
    CircuitPlan plan;
    std::vector<LweCiphertext> inputs;
};

CircuitBench &
circuitBench()
{
    static CircuitBench bench;
    return bench;
}

void
BM_CircuitNaive(benchmark::State &state)
{
    auto &b = circuitBench();
    for (auto _ : state) {
        auto out = b.circuit.evalEncrypted(b.server, b.inputs);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["pbs"] = double(b.circuit.pbsCount());
    state.SetLabel("adder8, every gate bootstrapped");
}
BENCHMARK(BM_CircuitNaive)->Unit(benchmark::kMillisecond);

void
BM_CircuitPlanned(benchmark::State &state)
{
    auto &b = circuitBench();
    for (auto _ : state) {
        auto out = b.circuit.evalEncrypted(b.server, b.inputs, b.plan);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["pbs"] = double(b.plan.pbsCount());
    state.counters["pbs_elided"] = double(b.plan.elidedPbs());
    state.SetLabel(b.plan.summary());
}
BENCHMARK(BM_CircuitPlanned)->Unit(benchmark::kMillisecond);

/** Counting sink: serialization cost without buffer-growth noise. */
class CountingBuf : public std::streambuf
{
  public:
    uint64_t count() const { return count_; }

  protected:
    int overflow(int ch) override
    {
        ++count_;
        return ch;
    }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        count_ += uint64_t(n);
        return n;
    }

  private:
    uint64_t count_ = 0;
};

/**
 * EvalKeys frame writers, v1 (expanded) vs v2 (seeded): the recorded
 * byte counters are the wire-size claim (EVK2 ~ 1/(k+1) of the BSK +
 * 1/(n+1) of the KSK; ~1/3 of EVK1 at set I), the times the
 * serialization cost at paper set I.
 */
void
BM_EvalKeysSerialize(benchmark::State &state, EvalKeysFormat format)
{
    auto &keys = keysI();
    uint64_t bytes = 0;
    for (auto _ : state) {
        CountingBuf sink;
        std::ostream os(&sink);
        serialize(os, *keys.client.evalKeys(), format);
        bytes = sink.count();
        benchmark::DoNotOptimize(bytes);
    }
    state.counters["frame_bytes"] =
        benchmark::Counter(double(bytes));
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(bytes));
    state.SetLabel("parameter set I");
}
BENCHMARK_CAPTURE(BM_EvalKeysSerialize, v1, EvalKeysFormat::Expanded)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EvalKeysSerialize, v2, EvalKeysFormat::Seeded)
    ->Unit(benchmark::kMillisecond);

/**
 * Server-side cost of standing up keys from a seeded frame: parse +
 * mask re-expansion (PRNG) + per-row forward FFTs. The price paid
 * once per key delivery for shipping a third of the bytes.
 */
void
BM_SeededExpand(benchmark::State &state)
{
    auto &keys = keysI();
    std::stringstream wire;
    serialize(wire, *keys.client.evalKeys(), EvalKeysFormat::Seeded);
    const std::string frame = wire.str();
    for (auto _ : state) {
        std::istringstream is(frame);
        auto bundle = deserializeEvalKeys(is);
        benchmark::DoNotOptimize(bundle.get());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(frame.size()));
    state.SetLabel("EVK2 -> EvalKeys, set I");
}
BENCHMARK(BM_SeededExpand)->Unit(benchmark::kMillisecond);

/**
 * Budget-pressure churn: two keysets, a budget that fits one. Every
 * lookup misses, regenerates, and LRU-evicts the other bundle, so the
 * row records the full miss-under-pressure path (keygen + accounting
 * + eviction scan); the delta against BM_KeygenCold is the cache's
 * own overhead.
 */
void
BM_ContextCacheEvict(benchmark::State &state)
{
    static ContextCache cache;
    static const uint64_t bundle_bytes =
        cache.getOrCreate(cacheBenchParams(), 0)->residentBytes();
    cache.setBudgetBytes(bundle_bytes);
    uint64_t flip = 0;
    for (auto _ : state) {
        auto keys = cache.getOrCreate(cacheBenchParams(), 1 + flip % 2);
        ++flip;
        benchmark::DoNotOptimize(keys.get());
    }
    state.counters["evictions"] =
        benchmark::Counter(double(cache.stats().evictions));
    state.SetLabel("keygen + LRU evict, n=48 N=512");
}
BENCHMARK(BM_ContextCacheEvict)->Unit(benchmark::kMillisecond);

void
registerKernelBenchmarks()
{
    struct Entry {
        const char *name;
        const PolyKernels *kernels;
    };
    std::vector<Entry> tables{{"scalar", &scalarKernels()}};
    if (const PolyKernels *avx2 = avx2Kernels())
        tables.push_back({"avx2", avx2});
    for (const Entry &e : tables)
        for (size_t m : {size_t{512}, size_t{1024}, size_t{8192}}) {
            std::string name =
                std::string("BM_FftForward/") + e.name + "/" +
                std::to_string(m);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [kernels = e.kernels, m](benchmark::State &st) {
                    BM_FftForwardKernel(st, kernels, m);
                });
        }
}

} // namespace

int
main(int argc, char **argv)
{
    // Translate our stable `--json <file>` flag into Google
    // Benchmark's out/out_format pair; everything else passes through
    // (e.g. --benchmark_filter).
    std::vector<std::string> args;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (!matchJsonFlag(argc, argv, i, json_path))
            args.emplace_back(argv[i]);
    }
    if (!json_path.empty()) {
        args.push_back("--benchmark_out=" + json_path);
        args.push_back("--benchmark_out_format=json");
    }
    std::vector<char *> cargv{argv[0]};
    for (std::string &s : args)
        cargv.push_back(s.data());
    int cargc = static_cast<int>(cargv.size());

    registerKernelBenchmarks();
    benchmark::Initialize(&cargc, cargv.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data()))
        return 1;
    // Recorded into the JSON context so the artifact says which
    // backend the non-A/B rows ran on.
    benchmark::AddCustomContext("fft_kernel", activeKernels().name);
    benchmark::AddCustomContext("avx2_available",
                                avx2Kernels() ? "yes" : "no");
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
