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
 * is the first recorded capture. The BM_FftForward/<kernel>/<m> rows
 * run the fused negacyclic forward (ring dimension 2m) through the
 * scalar and AVX2 kernel tables explicitly, so one run records the
 * dispatch speedup; every other row uses whatever activeKernels()
 * selected (see the `fft_kernel` context key, and STRIX_FORCE_SCALAR
 * to pin it).
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "poly/simd.h"
#include "tfhe/client_keyset.h"
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
 * persistent scratch: decompose, (k+1)*l forward FFTs, one vmaBlocked
 * call, k+1 in-place inverse FFTs.
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

/**
 * The batched external product blind rotation runs: one
 * GgswFft::cmuxRotateBatch over `width` set-I-shaped accumulators
 * (rotate, decompose and forward-transform each, one VMA pass of the
 * GGSW over all of them, inverse and accumulate). Items are
 * ciphertexts, so time per item compares with BM_ExternalProductFft.
 */
void
BM_ExternalProductFftBatch(benchmark::State &state)
{
    const size_t width = size_t(state.range(0));
    Rng rng(6);
    const uint32_t n = 1024, k = 1;
    GlweKey key(k, n, rng);
    GadgetParams g{10, 2};
    GgswFft ggsw(ggswEncrypt(key, 1, g, 0.0, rng));
    std::vector<GlweCiphertext> accs;
    std::vector<uint32_t> powers;
    for (size_t i = 0; i < width; ++i) {
        accs.push_back(glweEncrypt(key, TorusPolynomial(n), 0.0, rng));
        powers.push_back(uint32_t(1 + 97 * i));
    }
    PbsScratch scratch;
    for (auto _ : state) {
        ggsw.cmuxRotateBatch(accs.data(), powers.data(), width, scratch);
        benchmark::DoNotOptimize(accs.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t(width));
}
BENCHMARK(BM_ExternalProductFftBatch)->Arg(4);

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

/**
 * keySwitchBatch over a chunk of `width` set-I PBS outputs, the call
 * bootstrapBatch makes once per chunk: each KSK row serves the whole
 * chunk before the next is read. Items are ciphertexts, so time per
 * item compares with BM_KeySwitch.
 */
void
BM_KeySwitchBatch(benchmark::State &state)
{
    auto &keys = keysI();
    const size_t width = size_t(state.range(0));
    TorusPolynomial tv = makeIntTestVector(keys.server.params().N, 4,
                                           [](int64_t x) { return x; });
    std::vector<LweCiphertext> big;
    for (size_t i = 0; i < width; ++i)
        big.push_back(programmableBootstrap(
            keys.client.encryptInt(int64_t(i % 4), 4), tv,
            keys.server.bsk()));
    std::vector<LweCiphertext> out(width);
    for (auto _ : state) {
        keySwitchBatch(out.data(), big.data(), width, keys.server.ksk());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t(width));
}
BENCHMARK(BM_KeySwitchBatch)->Arg(4)->Unit(benchmark::kMillisecond);

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
 * Negacyclic forward transform of one ring-2m row (fold, twist and
 * the m-point FFT: the fused kernel the CMux runs per digit row)
 * through an explicit kernel table: the A/B pair CI records so the
 * dispatch speedup is measured, not asserted (the bench job never
 * gates a merge; shared runners are noisy).
 */
void
BM_FftForwardKernel(benchmark::State &state, const PolyKernels *kernels,
                    size_t m)
{
    const NegacyclicFft &eng = NegacyclicFft::get(2 * m);
    Rng rng(m);
    std::vector<int32_t> coeffs(2 * m);
    for (int32_t &c : coeffs)
        c = static_cast<int32_t>(rng.uniformTorus32());
    std::vector<Cplx> out(m);
    for (auto _ : state) {
        eng.forward(out.data(), coeffs.data(), *kernels);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t(m));
}

/**
 * Cold keygen of a full set-I keyset (secret keys, seeded BSK + KSK,
 * FFT-domain BSK): what a client pays once per tenant before its
 * EVK2 upload. A fresh seed each iteration so nothing ages into
 * warmth; a fixed 3 iterations because one keygen takes ~0.5 s.
 */
void
BM_KeygenCold(benchmark::State &state)
{
    uint64_t seed = 0x5eed;
    for (auto _ : state) {
        ClientKeyset keyset(paramsSetI(), seed++);
        benchmark::DoNotOptimize(&keyset);
    }
    state.SetLabel("full keygen, parameter set I");
}
BENCHMARK(BM_KeygenCold)->Iterations(3)->Unit(benchmark::kMillisecond);

/**
 * The small-but-real PBS shape the unit tests bootstrap with
 * (n=48, N=512, k=1, l=3): the circuit rows below compare two plans
 * of one circuit, and set I would make each row minutes long.
 */
const TfheParams &
circuitBenchParams()
{
    static const TfheParams p = testParams(48, 512, 1, 3, 8, 0.0);
    return p;
}

/**
 * Naive-vs-planned circuit evaluation A/B on the 8-bit ripple-carry
 * adder: the naive row bootstraps all 37 gates sequentially; the
 * planned row runs the CircuitAnalyzer plan (majority fusion + XOR
 * elision + per-level bootstrapBatch sweeps). Both rows carry their
 * PBS count as a counter so the CI summary can print the elision
 * ratio next to the wall-time speedup. At circuitBenchParams(); the
 * plan itself is parameter-checked at set I in test_circuit_analysis.
 */
struct CircuitBench
{
    CircuitBench()
        : client(circuitBenchParams(), 0xC13C),
          server(client.evalKeys()), circuit(buildAdder(8)),
          plan(analyzeCircuit(circuit, circuitBenchParams()))
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
 * EvalKeys (EVK2) frame writer: the recorded byte counters are the
 * wire-size claim against the resident key bytes (EVK2 ~ 1/(k+1) of
 * the BSK + 1/(n+1) of the KSK; ~1/3 at set I), the time the
 * serialization cost at paper set I.
 */
void
BM_EvalKeysSerialize(benchmark::State &state)
{
    auto &keys = keysI();
    uint64_t bytes = 0;
    for (auto _ : state) {
        CountingBuf sink;
        std::ostream os(&sink);
        serialize(os, *keys.client.evalKeys());
        bytes = sink.count();
        benchmark::DoNotOptimize(bytes);
    }
    state.counters["frame_bytes"] =
        benchmark::Counter(double(bytes));
    state.counters["resident_bytes"] = benchmark::Counter(
        double(keys.client.evalKeys()->residentBytes()));
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(bytes));
    state.SetLabel("parameter set I");
}
BENCHMARK(BM_EvalKeysSerialize)->Unit(benchmark::kMillisecond);

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
    serialize(wire, *keys.client.evalKeys());
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

/**
 * If argv[i] is the --json flag (either spelling) with a usable path
 * value, capture the path into @p json_path, advance @p i past any
 * consumed value argument, and return true. A missing/empty path or a
 * value that is itself a flag ("--json --benchmark_filter=...") does
 * NOT match, so it falls through to Google Benchmark, which reports
 * it as an unrecognized argument instead of silently writing to a
 * file named like a flag.
 */
bool
matchJsonFlag(int argc, char **argv, int &i, std::string &json_path)
{
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc &&
        argv[i + 1][0] != '\0' && argv[i + 1][0] != '-') {
        json_path = argv[++i];
        return true;
    }
    if (!std::strncmp(argv[i], "--json=", 7) && argv[i][7] != '\0') {
        json_path = argv[i] + 7;
        return true;
    }
    return false;
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
