/**
 * @file
 * Gate bootstrapping implementation with optional phase timers.
 */

#include "tfhe/gates.h"

#include <chrono>

#include "poly/simd.h"

namespace strix {

namespace {

GateStats g_stats;
bool g_stats_on = false;

using Clock = std::chrono::steady_clock;

/** Scoped timer accumulating into a GateStats field. */
class PhaseTimer
{
  public:
    explicit PhaseTimer(double &sink)
        : sink_(sink), start_(g_stats_on ? Clock::now() : Clock::time_point{})
    {
    }
    ~PhaseTimer()
    {
        if (g_stats_on) {
            sink_ += std::chrono::duration<double>(Clock::now() - start_)
                         .count();
        }
    }

  private:
    double &sink_;
    Clock::time_point start_;
};

/** mu = 1/8 constant test vector for the sign bootstrap. */
TorusPolynomial
signTestVector(uint32_t big_n)
{
    TorusPolynomial tv(big_n);
    Torus32 mu = encodeMessage(1, 8);
    for (uint32_t j = 0; j < big_n; ++j)
        tv[j] = mu;
    return tv;
}

/** linear combo -> sign bootstrap -> keyswitch. */
LweCiphertext
signBootstrap(const ServerContext &ctx, const LweCiphertext &linear)
{
    if (g_stats_on)
        return instrumentedGateBootstrap(ctx, linear);
    TorusPolynomial tv = signTestVector(ctx.params().N);
    return ctx.bootstrap(linear, tv);
}

Torus32
eighth(int mult)
{
    return encodeMessage(mult, 8);
}

} // namespace

void
gateStatsEnable(bool on)
{
    g_stats_on = on;
}

void
gateStatsReset()
{
    g_stats = GateStats{};
}

const GateStats &
gateStats()
{
    return g_stats;
}

LweCiphertext
instrumentedGateBootstrap(const ServerContext &ctx, const LweCiphertext &linear)
{
    const TfheParams &p = ctx.params();
    const BootstrappingKey &bsk = ctx.bsk();
    const auto &eng = NegacyclicFft::get(p.N);
    const GadgetParams g{p.bg_bits, p.l_bsk};
    const uint32_t two_n = 2 * p.N;

    GlweCiphertext acc =
        GlweCiphertext::trivial(p.k, signTestVector(p.N));

    const ModSwitch ms(p.N);
    {
        PhaseTimer t(g_stats.other_pbs_s);
        const uint32_t b_tilde = ms(linear.b());
        if (b_tilde != 0) {
            GlweCiphertext rotated(p.k, p.N);
            for (uint32_t c = 0; c <= p.k; ++c)
                negacyclicRotate(rotated.poly(c), acc.poly(c),
                                 two_n - b_tilde);
            acc = std::move(rotated);
        }
    }

    // Blind rotation with per-phase timers; computation is identical
    // to GgswFft::cmuxRotate (bit for bit), but all (k+1)*l digit rows
    // are transformed before the multiply-accumulate starts so the
    // FFT and VMA phases time separately.
    const size_t nrows = (size_t(p.k) + 1) * g.levels;
    const size_t half_n = size_t(p.N) / 2;
    const PolyKernels &kernels = activeKernels();
    GlweCiphertext diff(p.k, p.N);
    std::vector<int32_t> digit_coeffs(nrows * p.N);
    std::vector<Cplx> fdigits(nrows * half_n);
    std::vector<FreqPolynomial> facc(p.k + 1);
    TorusPolynomial prod(p.N);
    for (uint32_t i = 0; i < p.n; ++i) {
        const uint32_t a_tilde = ms(linear.a(i));
        if (a_tilde == 0)
            continue;
        const GgswFft &ggsw = bsk.bit(i);

        {
            PhaseTimer t(g_stats.rotate_s);
            for (uint32_t c = 0; c <= p.k; ++c)
                negacyclicRotateMinusOne(diff.poly(c), acc.poly(c),
                                         a_tilde);
        }
        for (auto &f : facc)
            f.assign(half_n, Cplx(0, 0));
        {
            PhaseTimer t(g_stats.decompose_s);
            for (uint32_t comp = 0; comp <= p.k; ++comp)
                gadgetDecomposePolyInto(
                    digit_coeffs.data() + size_t(comp) * g.levels * p.N,
                    diff.poly(comp), g);
        }
        {
            PhaseTimer t(g_stats.fft_s);
            eng.forwardBatch(fdigits.data(), digit_coeffs.data(), nrows);
        }
        {
            PhaseTimer t(g_stats.vecmult_s);
            for (size_t r = 0; r < nrows; ++r) {
                const Cplx *fdigit = fdigits.data() + r * half_n;
                for (uint32_t c = 0; c <= p.k; ++c)
                    kernels.mulAccumulate(facc[c].data(), fdigit,
                                          ggsw.row(r, c).data(),
                                          half_n);
            }
        }
        {
            PhaseTimer t(g_stats.ifft_accum_s);
            for (uint32_t c = 0; c <= p.k; ++c) {
                eng.inverse(prod, facc[c].data(), kernels);
                acc.poly(c).addAssign(prod);
            }
        }
    }

    LweCiphertext big;
    {
        PhaseTimer t(g_stats.other_pbs_s);
        big = sampleExtract(acc, 0);
    }
    PhaseTimer t(g_stats.keyswitch_s);
    return keySwitch(big, ctx.ksk());
}

LweCiphertext
gateNand(const ServerContext &ctx, const LweCiphertext &a,
         const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(1));
    {
        PhaseTimer t(g_stats.linear_s);
        lin.subAssign(a);
        lin.subAssign(b);
    }
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateAnd(const ServerContext &ctx, const LweCiphertext &a,
        const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(-1));
    lin.addAssign(a);
    lin.addAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateOr(const ServerContext &ctx, const LweCiphertext &a,
       const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(1));
    lin.addAssign(a);
    lin.addAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateNor(const ServerContext &ctx, const LweCiphertext &a,
        const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(-1));
    lin.subAssign(a);
    lin.subAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateXor(const ServerContext &ctx, const LweCiphertext &a,
        const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, encodeMessage(1, 4));
    LweCiphertext sum = a;
    sum.addAssign(b);
    sum.scalarMulAssign(2);
    lin.addAssign(sum);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateXnor(const ServerContext &ctx, const LweCiphertext &a,
         const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, encodeMessage(-1, 4));
    LweCiphertext sum = a;
    sum.addAssign(b);
    sum.scalarMulAssign(2);
    lin.subAssign(sum);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateAndNY(const ServerContext &ctx, const LweCiphertext &a,
          const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(-1));
    lin.subAssign(a);
    lin.addAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateAndYN(const ServerContext &ctx, const LweCiphertext &a,
          const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(-1));
    lin.addAssign(a);
    lin.subAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateOrNY(const ServerContext &ctx, const LweCiphertext &a,
         const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(1));
    lin.subAssign(a);
    lin.addAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateOrYN(const ServerContext &ctx, const LweCiphertext &a,
         const LweCiphertext &b)
{
    LweCiphertext lin =
        LweCiphertext::trivial(ctx.params().n, eighth(1));
    lin.addAssign(a);
    lin.subAssign(b);
    return signBootstrap(ctx, lin);
}

LweCiphertext
gateNot(const LweCiphertext &a)
{
    LweCiphertext out = a;
    out.negate();
    return out;
}

LweCiphertext
gateMux(const ServerContext &ctx, const LweCiphertext &a,
        const LweCiphertext &b, const LweCiphertext &c)
{
    const TfheParams &p = ctx.params();
    TorusPolynomial tv = signTestVector(p.N);

    // u1 = PBS(a AND b), u2 = PBS(not a AND c), both kept at
    // dimension k*N; one keyswitch at the end (as in the TFHE lib).
    LweCiphertext lin1 = LweCiphertext::trivial(p.n, eighth(-1));
    lin1.addAssign(a);
    lin1.addAssign(b);
    LweCiphertext u1 = programmableBootstrap(lin1, tv, ctx.bsk());

    LweCiphertext lin2 = LweCiphertext::trivial(p.n, eighth(-1));
    lin2.subAssign(a);
    lin2.addAssign(c);
    LweCiphertext u2 = programmableBootstrap(lin2, tv, ctx.bsk());

    u1.addAssign(u2);
    LweCiphertext bias =
        LweCiphertext::trivial(u1.dim(), eighth(1));
    u1.addAssign(bias);
    return keySwitch(u1, ctx.ksk());
}

} // namespace strix
