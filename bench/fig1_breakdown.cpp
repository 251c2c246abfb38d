/**
 * @file
 * Fig. 1 reproduction: workload breakdown of a TFHE gate operation on
 * CPU. Unlike the other benches (which use analytic models), this one
 * *measures* our software TFHE at parameter set I and prints the same
 * three-level breakdown as the paper:
 *
 *   gate level:      PBS ~65% / keyswitch ~30% / other ~5%
 *   PBS level:       blind rotation ~98%
 *   BR iteration:    FFT > vector mult > accum+IFFT > decomp > rotate
 *
 * Every number times a production call on one thread: the calls one
 * blind-rotation iteration (GgswFft::cmuxRotate) is made of, then the
 * larger steps (cmuxRotate, blindRotate, sampleExtract, keySwitch,
 * ServerContext::bootstrap, one NAND gate). Each phase is scaled by
 * its count per PBS, and the sum of the parts is set against the
 * measured whole: the gap is what the parts leave out (loop and
 * scratch overhead, cache effects of running the phases apart).
 */

#include <chrono>
#include <cstdio>

#include "common/table.h"
#include "poly/simd.h"
#include "tfhe/client_keyset.h"
#include "tfhe/decompose.h"
#include "tfhe/gates.h"

using namespace strix;

namespace {

using Clock = std::chrono::steady_clock;

/** Accumulated wall time and call count of one timed phase. */
struct Phase
{
    double seconds = 0.0;
    long calls = 0;

    /** Run @p fn(i) @p reps times under one clock pair. */
    template <typename Fn>
    void time(int reps, Fn fn)
    {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < reps; ++i)
            fn(calls + i);
        seconds += std::chrono::duration<double>(Clock::now() - t0).count();
        calls += reps;
    }

    double perCall() const { return seconds / double(calls); }
};

std::string
pct(double part, double whole)
{
    return TextTable::num(100.0 * part / whole, 1);
}

std::string
gapPct(double parts, double whole)
{
    return TextTable::num(100.0 * (whole - parts) / whole, 1) + "%";
}

} // namespace

int
main()
{
    std::printf("=== Fig. 1: TFHE gate workload breakdown on CPU "
                "(measured on our software TFHE, parameter set I) ===\n\n");

    const TfheParams &p = paramsSetI();
    ClientKeyset client(p, 2024);
    ServerContext server(client.evalKeys());
    const BootstrappingKey &bsk = server.bsk();
    const KeySwitchKey &ksk = server.ksk();
    const NegacyclicFft &eng = NegacyclicFft::get(p.N);
    const PolyKernels &kernels = activeKernels();
    const GadgetParams g{p.bg_bits, p.l_bsk};
    const size_t cols = size_t(p.k) + 1;
    const size_t digit_rows = cols * g.levels;
    const size_t half_n = size_t(p.N) / 2;
    Rng rng(7);

    // Inputs shaped like the ones a gate's blind rotation sees.
    const LweCiphertext a = client.encryptBit(true);
    const LweCiphertext b = client.encryptBit(false);
    LweCiphertext lin = LweCiphertext::trivial(p.n, encodeMessage(1, 8));
    lin.subAssign(a);
    lin.subAssign(b);
    TorusPolynomial tv(p.N);
    for (uint32_t j = 0; j < p.N; ++j)
        tv[j] = encodeMessage(1, 8);
    GlweCiphertext acc(p.k, p.N), diff(p.k, p.N);
    for (size_t c = 0; c < cols; ++c)
        for (uint32_t j = 0; j < p.N; ++j)
            acc.poly(c)[j] = rng.uniformTorus32();
    std::vector<int32_t> coeffs(digit_rows * p.N);
    std::vector<Cplx> fdigit(half_n);
    std::vector<std::vector<Cplx>> facc(cols,
                                        std::vector<Cplx>(half_n));
    TorusPolynomial prod(p.N);
    PbsScratch scratch;

    // CMux iterations per PBS: bits whose switched mask is 0 skip.
    const ModSwitch ms(p.N);
    size_t iters = 0;
    for (uint32_t i = 0; i < p.n; ++i)
        iters += ms(lin.a(i)) != 0;
    auto power = [&](long i) {
        return 1 + uint32_t((uint64_t(i) * 2654435761u) % (2 * p.N - 1));
    };

    Phase rotate, decompose, forward, mac, inverse, cmux, br, extract,
        keyswitch, pbs_ks, gate;
    GlweCiphertext rot = acc, brot;
    LweCiphertext big, out;
    // Interleaved rounds: a drift in host speed moves every phase and
    // every whole alike.
    for (int round = 0; round < 5; ++round) {
        rotate.time(100, [&](long i) {
            negacyclicRotateMinusOne(diff.poly(i % cols),
                                     acc.poly(i % cols), power(i));
        });
        decompose.time(100, [&](long i) {
            const size_t c = size_t(i) % cols;
            gadgetDecomposePolyInto(coeffs.data() + c * g.levels * p.N,
                                    diff.poly(c), g);
        });
        forward.time(200, [&](long i) {
            eng.forward(fdigit.data(),
                        coeffs.data() + (size_t(i) % digit_rows) * p.N,
                        kernels);
        });
        // Stream the key's rows as the iterations do: call i reads row
        // (r, c) of bit i / rows-per-bit, never one cache-hot row.
        for (std::vector<Cplx> &col : facc)
            col.assign(half_n, Cplx(0, 0));
        mac.time(400, [&](long i) {
            const size_t per_bit = digit_rows * cols;
            const size_t slot = size_t(i) % per_bit;
            const GgswFft &bit = bsk.bit((size_t(i) / per_bit) % p.n);
            kernels.mulAccumulate(facc[slot % cols].data(), fdigit.data(),
                                  bit.row(slot / cols, slot % cols).data(),
                                  half_n);
        });
        // The inverse clobbers its input column, as in production.
        inverse.time(100, [&](long i) {
            const size_t c = size_t(i) % cols;
            eng.inverse(prod, facc[c].data(), kernels);
            acc.poly(c).addAssign(prod);
        });
        cmux.time(60, [&](long i) {
            bsk.bit(size_t(i) % p.n).cmuxRotate(rot, power(i), scratch);
        });
        br.time(2, [&](long) {
            brot = GlweCiphertext::trivial(p.k, tv);
            blindRotate(brot, lin, bsk, scratch);
        });
        extract.time(60, [&](long) { big = sampleExtract(brot, 0); });
        keyswitch.time(2, [&](long) { out = keySwitch(big, ksk); });
        pbs_ks.time(2, [&](long) { out = server.bootstrap(lin, tv); });
        gate.time(2, [&](long) { out = gateNand(server, a, b); });
    }
    if (!client.decryptBit(out)) {
        std::printf("ERROR: NAND(1,0) decrypted to 0\n");
        return 1;
    }

    // Per-PBS seconds of each iteration phase: calls per iteration x
    // iterations per PBS.
    const double n_it = double(iters);
    const double t_rotate = rotate.perCall() * double(cols) * n_it;
    const double t_decomp = decompose.perCall() * double(cols) * n_it;
    const double t_fft = forward.perCall() * double(digit_rows) * n_it;
    const double t_mac =
        mac.perCall() * double(digit_rows * cols) * n_it;
    const double t_ifft = inverse.perCall() * double(cols) * n_it;
    const double iter_parts = t_rotate + t_decomp + t_fft + t_mac + t_ifft;
    const double t_cmux = cmux.perCall() * n_it;
    const double t_br = br.perCall();
    const double t_extract = extract.perCall();
    const double t_ks = keyswitch.perCall();
    const double t_pbs = t_br + t_extract;
    const double t_pbs_ks = pbs_ks.perCall();
    const double t_gate = gate.perCall();

    TextTable gate_t;
    gate_t.header({"Gate-level phase", "ms/gate", "measured %", "paper %"});
    gate_t.row({"PBS (blindRotate + sampleExtract)",
                TextTable::num(t_pbs * 1e3, 2), pct(t_pbs, t_gate),
                "~65"});
    gate_t.row({"Keyswitch (keySwitch)", TextTable::num(t_ks * 1e3, 2),
                pct(t_ks, t_gate), "~30"});
    gate_t.row({"Other (gate - PBS - KS)",
                TextTable::num((t_gate - t_pbs - t_ks) * 1e3, 2),
                pct(t_gate - t_pbs - t_ks, t_gate), "~5"});
    gate_t.print();

    TextTable pbs_t;
    pbs_t.header({"PBS phase", "ms/PBS", "measured %", "paper %"});
    pbs_t.row({"Blind rotation (blindRotate)", TextTable::num(t_br * 1e3, 2),
               pct(t_br, t_pbs), "~98"});
    pbs_t.row({"SampleExtract", TextTable::num(t_extract * 1e6, 1) + " us",
               pct(t_extract, t_pbs), "~2"});
    pbs_t.print();

    TextTable iter_t;
    iter_t.header({"BR iteration phase", "us/call", "calls/PBS", "ms/PBS",
                   "measured %"});
    auto iterRow = [&](const char *name, const Phase &ph, size_t per_iter,
                       double per_pbs) {
        iter_t.row({name, TextTable::num(ph.perCall() * 1e6, 3),
                    std::to_string(per_iter * iters),
                    TextTable::num(per_pbs * 1e3, 2),
                    pct(per_pbs, iter_parts)});
    };
    iterRow("FFT (forward)", forward, digit_rows, t_fft);
    iterRow("Vector mult (mulAccumulate)", mac, digit_rows * cols, t_mac);
    iterRow("IFFT + accumulate", inverse, cols, t_ifft);
    iterRow("Decomposition", decompose, cols, t_decomp);
    iterRow("Rotate (negacyclicRotateMinusOne)", rotate, cols, t_rotate);
    iter_t.print();

    const double parts = iter_parts + t_extract + t_ks;
    TextTable gap_t;
    gap_t.header({"Sum of parts vs whole", "parts ms", "whole ms", "gap"});
    gap_t.row({"iteration phases vs cmuxRotate x iters",
               TextTable::num(iter_parts * 1e3, 2),
               TextTable::num(t_cmux * 1e3, 2), gapPct(iter_parts, t_cmux)});
    gap_t.row({"cmuxRotate x iters vs blindRotate",
               TextTable::num(t_cmux * 1e3, 2), TextTable::num(t_br * 1e3, 2),
               gapPct(t_cmux, t_br)});
    gap_t.row({"phases + extract + KS vs bootstrap",
               TextTable::num(parts * 1e3, 2),
               TextTable::num(t_pbs_ks * 1e3, 2), gapPct(parts, t_pbs_ks)});
    gap_t.print();

    std::printf("\n%zu CMux iterations per PBS (n = %u); one NAND gate "
                "%.2f ms, PBS+KS %.2f ms.\n",
                iters, p.n, t_gate * 1e3, t_pbs_ks * 1e3);
    std::printf("Shape check: PBS dominates the gate, BR dominates "
                "PBS, and the transform pipeline (FFT + vector mult + "
                "IFFT) dominates each BR iteration -- the premise of "
                "the Strix design.\n");
    return 0;
}
