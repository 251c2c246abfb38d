/**
 * @file
 * Tests for the FFT plan (its spectral slot map and the complex DFT
 * inside the negacyclic transform) and the folded negacyclic FFT,
 * plus the scalar-vs-AVX2 kernel cross-checks for the runtime-dispatch seam
 * (poly/simd.h). The cross-checks sweep every plan size any shipped
 * parameter set touches (midParams N=256 ... set IV N=16384) and run
 * under both CI legs: with STRIX_SIMD=ON they compare the two
 * backends element by element; with STRIX_SIMD=OFF (or on a non-AVX2
 * host) the vector half skips and the scalar reference still runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/random.h"
#include "poly/complex_fft.h"
#include "poly/negacyclic_fft.h"
#include "poly/simd.h"
#include "support/test_util.h"

namespace strix {
namespace {

/** Every kernel table reachable in this process, with a tag. */
std::vector<std::pair<const char *, const PolyKernels *>>
allKernelTables()
{
    std::vector<std::pair<const char *, const PolyKernels *>> tables{
        {"scalar", &scalarKernels()}, {"active", &activeKernels()}};
    if (const PolyKernels *avx2 = avx2Kernels())
        tables.emplace_back("avx2", avx2);
    return tables;
}

/** Natural spectral point @p t of @p spectrum (an m-point plan's). */
Cplx
pointAt(const FreqPolynomial &spectrum, size_t t)
{
    const FftPlan &plan = FftPlan::get(spectrum.size());
    const double *d = reinterpret_cast<const double *>(spectrum.data());
    return {d[plan.reSlot(t)], d[plan.imSlot(t)]};
}

TEST(ComplexFft, ForwardInverseRoundTrip)
{
    // The m-point FFT inside the ring-2m transform inverts exactly on
    // integer inputs, in every backend, including m = 2, whose split
    // blocks are 2 points wide.
    for (size_t m : {2u, 8u, 64u, 512u}) {
        const size_t n = 2 * m;
        Rng rng(m);
        const IntPolynomial a = test::randomSmallIntPoly(n, 1 << 20, rng);
        TorusPolynomial p(n);
        for (size_t i = 0; i < n; ++i)
            p[i] = static_cast<Torus32>(a[i]);
        const auto &eng = NegacyclicFft::get(n);
        for (const auto &[tag, kernels] : allKernelTables()) {
            FreqPolynomial f;
            eng.forward(f, a, *kernels);
            TorusPolynomial back(n);
            eng.inverse(back, f, *kernels);
            EXPECT_TRUE(back == p) << tag << " m=" << m;
        }
    }
}

TEST(ComplexFft, MatchesDirectDft)
{
    // Point t (read through the plan's slot map) is the m-point DFT,
    // positive exponent, of the twisted fold u_j * exp(i*pi*j/(2m)),
    // u_j = a_j + i*a_{j+m}: the polynomial's value at the odd root
    // exp(i*pi*(4t+1)/(2m)).
    for (size_t m : {2u, 4u, 8u, 16u, 64u}) {
        const size_t n = 2 * m;
        Rng rng(3 + m);
        const IntPolynomial a = test::randomSmallIntPoly(n, 1000, rng);
        for (const auto &[tag, kernels] : allKernelTables()) {
            FreqPolynomial f;
            NegacyclicFft::get(n).forward(f, a, *kernels);
            for (size_t t = 0; t < m; ++t) {
                Cplx dft(0, 0), eval(0, 0);
                for (size_t j = 0; j < m; ++j) {
                    const Cplx u(a[j], a[j + m]);
                    const double tw = M_PI * double(j) / double(2 * m);
                    const double ang = 2.0 * M_PI * double(j * t) / double(m);
                    dft += u * Cplx(std::cos(tw), std::sin(tw)) *
                           Cplx(std::cos(ang), std::sin(ang));
                }
                for (size_t j = 0; j < n; ++j) {
                    const double ang =
                        M_PI * double((4 * t + 1) * j) / double(n);
                    eval += double(a[j]) * Cplx(std::cos(ang), std::sin(ang));
                }
                const Cplx got = pointAt(f, t);
                EXPECT_NEAR(got.real(), dft.real(), 1e-8) << tag << " t=" << t;
                EXPECT_NEAR(got.imag(), dft.imag(), 1e-8) << tag << " t=" << t;
                EXPECT_NEAR(got.real(), eval.real(), 1e-8) << tag << " t=" << t;
                EXPECT_NEAR(got.imag(), eval.imag(), 1e-8) << tag << " t=" << t;
            }
        }
    }
}

TEST(ComplexFft, LinearityOfTransform)
{
    const size_t n = 128;
    Rng rng(4);
    const IntPolynomial a = test::randomSmallIntPoly(n, 1 << 20, rng);
    const IntPolynomial b = test::randomSmallIntPoly(n, 1 << 20, rng);
    IntPolynomial sum(n);
    for (size_t i = 0; i < n; ++i)
        sum[i] = a[i] + b[i];
    const auto &eng = NegacyclicFft::get(n);
    FreqPolynomial fa, fb, fsum;
    eng.forward(fa, a);
    eng.forward(fb, b);
    eng.forward(fsum, sum);
    // Slot by slot: the layout is the same for all three spectra.
    for (size_t i = 0; i < fsum.size(); ++i) {
        EXPECT_NEAR(fsum[i].real(), fa[i].real() + fb[i].real(), 1e-6);
        EXPECT_NEAR(fsum[i].imag(), fa[i].imag() + fb[i].imag(), 1e-6);
    }
}

TEST(ComplexFft, PlanCacheReturnsSameInstance)
{
    EXPECT_EQ(&FftPlan::get(256), &FftPlan::get(256));
    EXPECT_NE(&FftPlan::get(256), &FftPlan::get(512));
}

/** The folded transform must invert exactly (up to rounding). */
class NegacyclicRoundTrip : public ::testing::TestWithParam<size_t>
{
};

TEST_P(NegacyclicRoundTrip, TorusPolySurvives)
{
    const size_t n = GetParam();
    Rng rng(n);
    TorusPolynomial p = test::randomTorusPoly(n, rng);
    const auto &eng = NegacyclicFft::get(n);
    FreqPolynomial f;
    eng.forward(f, p);
    TorusPolynomial back(n);
    eng.inverse(back, f);
    for (size_t i = 0; i < n; ++i) {
        // Allow one ulp of rounding.
        EXPECT_LE(std::abs(torusDistance(back[i], p[i])), 1) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NegacyclicRoundTrip,
                         ::testing::Values(4, 16, 64, 256, 1024, 4096,
                                           16384));

TEST(NegacyclicFft, FrequencySizeIsHalfRingDim)
{
    // The folding scheme: an N-point negacyclic transform produces
    // N/2 complex points (Sec. V-A).
    const auto &eng = NegacyclicFft::get(1024);
    TorusPolynomial p(1024);
    FreqPolynomial f;
    eng.forward(f, p);
    EXPECT_EQ(f.size(), 512u);
}

TEST(NegacyclicFft, MonomialProductViaFftIsExactRotation)
{
    const size_t n = 128;
    Rng rng(5);
    TorusPolynomial p = test::randomTorusPoly(n, rng);

    IntPolynomial mono(n);
    mono[3] = 1;
    TorusPolynomial viaFft(n), viaRotate(n);
    negacyclicMulFft(viaFft, mono, p);
    negacyclicRotate(viaRotate, p, 3);
    for (size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(torusDistance(viaFft[i], viaRotate[i])), 1);
}

TEST(NegacyclicFft, MulAccumulateAddsInFrequencyDomain)
{
    const size_t n = 64;
    Rng rng(6);
    IntPolynomial a(n), b(n);
    TorusPolynomial x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(rng.uniformBelow(17)) - 8;
        b[i] = static_cast<int32_t>(rng.uniformBelow(17)) - 8;
        x[i] = rng.uniformTorus32();
        y[i] = rng.uniformTorus32();
    }

    // freq(a)*freq(x) + freq(b)*freq(y) inverted == a*x + b*y.
    const auto &eng = NegacyclicFft::get(n);
    FreqPolynomial fa, fb, fx, fy, acc;
    eng.forward(fa, a);
    eng.forward(fb, b);
    eng.forward(fx, x);
    eng.forward(fy, y);
    NegacyclicFft::mulAccumulate(acc, fa, fx);
    NegacyclicFft::mulAccumulate(acc, fb, fy);
    TorusPolynomial got(n);
    eng.inverse(got, acc);

    TorusPolynomial expected(n);
    negacyclicMulNaive(expected, a, x);
    negacyclicMulAddNaive(expected, b, y);
    for (size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(torusDistance(got[i], expected[i])), 2);
}

// ---------------------------------------------------------------------------
// Runtime-dispatch seam: scalar vs AVX2 kernel cross-checks.

/**
 * Every complex-FFT plan size the software path can instantiate:
 * N/2 for midParams (128), fastParams (256), sets I/II (512),
 * set III (1024), Deep-NN 4096 (2048), set IV (8192), plus the tiny
 * sizes the algorithm must still handle.
 */
const size_t kPlanSizes[] = {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
                             2048, 4096, 8192};

/** Ring dimensions: n = 2m for each plan size above. */
const size_t kRingDims[] = {4, 8, 16, 32, 64, 128, 256, 512, 1024,
                            2048, 4096, 8192, 16384};

/**
 * The plan's slot map is the one owner of the spectral layout: a
 * bijection of the m natural points onto the 2m doubles (real and
 * imaginary slots disjoint), equal to the layout simd.h documents
 * (bit-reversed position p in split blocks of min(4, m) points), and
 * carrying natural points out of a spectrum and back unchanged.
 */
class SpectralLayout : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SpectralLayout, SlotMapRoundTripsNaturalPoints)
{
    const size_t m = GetParam();
    const FftPlan &plan = FftPlan::get(m);
    const size_t blk = std::min<size_t>(4, m);
    size_t log_m = 0;
    while ((size_t{1} << log_m) < m)
        ++log_m;
    std::vector<int> hits(2 * m, 0);
    for (size_t t = 0; t < m; ++t) {
        size_t p = 0;
        for (size_t b = 0; b < log_m; ++b)
            if ((t >> b) & 1)
                p |= size_t{1} << (log_m - 1 - b);
        EXPECT_EQ(plan.reSlot(t), 2 * blk * (p / blk) + p % blk) << t;
        EXPECT_EQ(plan.imSlot(t), plan.reSlot(t) + blk) << t;
        ++hits[plan.reSlot(t)];
        ++hits[plan.imSlot(t)];
    }
    for (size_t slot = 0; slot < 2 * m; ++slot)
        EXPECT_EQ(hits[slot], 1) << "slot " << slot;

    Rng rng(m + 5);
    FreqPolynomial f;
    NegacyclicFft::get(2 * m).forward(f, test::randomTorusPoly(2 * m, rng));
    std::vector<Cplx> natural(m);
    for (size_t t = 0; t < m; ++t)
        natural[t] = pointAt(f, t);
    FreqPolynomial back(m);
    double *d = reinterpret_cast<double *>(back.data());
    for (size_t t = 0; t < m; ++t) {
        d[plan.reSlot(t)] = natural[t].real();
        d[plan.imSlot(t)] = natural[t].imag();
    }
    EXPECT_EQ(std::memcmp(back.data(), f.data(), m * sizeof(Cplx)), 0);
}

INSTANTIATE_TEST_SUITE_P(PlanSizes, SpectralLayout,
                         ::testing::ValuesIn(kPlanSizes));

/**
 * FMA vs separate multiply/add changes rounding, so vector results
 * are ULP-bounded, not bit-equal: allow a small relative error
 * against the largest magnitude in the reference output.
 */
double
maxAbs(const Cplx *data, size_t m)
{
    double mx = 0.0;
    for (size_t i = 0; i < m; ++i)
        mx = std::max(mx, std::abs(data[i]));
    return mx;
}

void
expectUlpClose(const Cplx *got, const Cplx *ref, size_t m, double rel)
{
    const double tol = std::max(maxAbs(ref, m), 1.0) * rel;
    for (size_t i = 0; i < m; ++i) {
        EXPECT_NEAR(got[i].real(), ref[i].real(), tol) << "index " << i;
        EXPECT_NEAR(got[i].imag(), ref[i].imag(), tol) << "index " << i;
    }
}

TEST(SimdDispatch, ActiveTableMatchesProbeAndOverride)
{
    // The active table is latched once; whatever it is, it must be
    // consistent with the CPUID probe and the environment override.
    const PolyKernels &active = activeKernels();
    if (simdForcedScalar()) {
        EXPECT_STREQ(active.name, "scalar");
    } else if (avx2Kernels() != nullptr) {
        EXPECT_STREQ(active.name, "avx2");
    } else {
        EXPECT_STREQ(active.name, "scalar");
    }
    if (avx2Kernels() != nullptr) {
        EXPECT_TRUE(cpuSupportsAvx2Fma());
    }
}

TEST(SimdDispatch, ScalarTableIsAlwaysAvailable)
{
    const PolyKernels &s = scalarKernels();
    EXPECT_STREQ(s.name, "scalar");
    EXPECT_NE(s.negacyclicForward, nullptr);
    EXPECT_NE(s.negacyclicInverseAdd, nullptr);
    EXPECT_NE(s.vmaBlocked, nullptr);
    EXPECT_NE(s.subScaledRow, nullptr);
}

class KernelCrossCheck : public ::testing::TestWithParam<size_t>
{
  protected:
    void SetUp() override
    {
        if (avx2Kernels() == nullptr)
            GTEST_SKIP() << "AVX2 kernels unavailable "
                            "(STRIX_SIMD=OFF or non-AVX2 host)";
    }
};

TEST_P(KernelCrossCheck, ForwardFftMatchesScalar)
{
    // The fused fold + twist + FFT of a full-range ring-2m row.
    const size_t m = GetParam();
    const auto &eng = NegacyclicFft::get(2 * m);
    Rng rng(m);
    std::vector<int32_t> coeffs(2 * m);
    for (auto &c : coeffs)
        c = static_cast<int32_t>(rng.uniformTorus32());
    std::vector<Cplx> ref(m), vec(m);
    eng.forward(ref.data(), coeffs.data(), scalarKernels());
    eng.forward(vec.data(), coeffs.data(), *avx2Kernels());
    expectUlpClose(vec.data(), ref.data(), m, 1e-12);
}

TEST_P(KernelCrossCheck, InverseFftMatchesScalar)
{
    // The fused IFFT + scale + untwist + round, added onto a nonzero
    // accumulator: within one grid step of the scalar reference (tie
    // rounding and FMA), and the accumulator's old value is kept.
    const size_t m = GetParam(), n = 2 * m;
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(m + 17);
    const TorusPolynomial p = test::randomTorusPoly(n, rng);
    const TorusPolynomial init = test::randomTorusPoly(n, rng);
    FreqPolynomial f;
    eng.forward(f, p, scalarKernels());
    FreqPolynomial work_ref = f, work_vec = f;
    TorusPolynomial ref = init, vec = init;
    eng.inverseAdd(ref.data(), work_ref.data(), scalarKernels());
    eng.inverseAdd(vec.data(), work_vec.data(), *avx2Kernels());
    for (size_t i = 0; i < n; ++i) {
        EXPECT_LE(std::abs(torusDistance(vec[i], ref[i])), 1) << i;
        EXPECT_LE(std::abs(torusDistance(ref[i] - init[i], p[i])), 1) << i;
    }
}

TEST_P(KernelCrossCheck, MulAccumulateMatchesScalar)
{
    // NegacyclicFft::mulAccumulate is one vmaBlocked call plus an
    // elementwise add, so the backends agree bit for bit.
    const size_t m = GetParam();
    Rng rng(m + 31);
    FreqPolynomial a(m), b(m), ref(m), vec(m);
    for (size_t i = 0; i < m; ++i) {
        a[i] = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
        b[i] = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
        ref[i] = vec[i] =
            Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
    }
    NegacyclicFft::mulAccumulate(ref, a, b, scalarKernels());
    NegacyclicFft::mulAccumulate(vec, a, b, *avx2Kernels());
    EXPECT_EQ(std::memcmp(ref.data(), vec.data(), m * sizeof(Cplx)), 0);
}

INSTANTIATE_TEST_SUITE_P(PlanSizes, KernelCrossCheck,
                         ::testing::ValuesIn(kPlanSizes));

class NegacyclicKernelCrossCheck : public ::testing::TestWithParam<size_t>
{
  protected:
    void SetUp() override
    {
        if (avx2Kernels() == nullptr)
            GTEST_SKIP() << "AVX2 kernels unavailable "
                            "(STRIX_SIMD=OFF or non-AVX2 host)";
    }
};

TEST_P(NegacyclicKernelCrossCheck, TorusForwardMatchesScalar)
{
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(n);
    TorusPolynomial p = test::randomTorusPoly(n, rng);
    FreqPolynomial ref, vec;
    eng.forward(ref, p, scalarKernels());
    eng.forward(vec, p, *avx2Kernels());
    ASSERT_EQ(vec.size(), ref.size());
    expectUlpClose(vec.data(), ref.data(), ref.size(), 1e-12);
}

TEST_P(NegacyclicKernelCrossCheck, IntForwardMatchesScalar)
{
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(n + 7);
    IntPolynomial p = test::randomSmallIntPoly(n, 512, rng);
    FreqPolynomial ref, vec;
    eng.forward(ref, p, scalarKernels());
    eng.forward(vec, p, *avx2Kernels());
    ASSERT_EQ(vec.size(), ref.size());
    expectUlpClose(vec.data(), ref.data(), ref.size(), 1e-12);
}

TEST_P(NegacyclicKernelCrossCheck, InverseMatchesScalarWithinOneStep)
{
    // Full inverse path (inverse FFT + untwist + round to Torus32).
    // The vector untwist rounds ties to even where scalar llround
    // rounds away from zero, and FMA shifts values near a rounding
    // boundary, so allow one grid step.
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(n + 13);
    TorusPolynomial p = test::randomTorusPoly(n, rng);
    FreqPolynomial f;
    eng.forward(f, p, scalarKernels());
    TorusPolynomial ref(n), vec(n);
    eng.inverse(ref, f, scalarKernels());
    eng.inverse(vec, f, *avx2Kernels());
    for (size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(torusDistance(vec[i], ref[i])), 1) << i;
}

TEST_P(NegacyclicKernelCrossCheck, RoundTripSurvivesUnderAvx2)
{
    // Same property the scalar path guarantees: forward then inverse
    // recovers the torus polynomial to one ulp.
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(n + 23);
    TorusPolynomial p = test::randomTorusPoly(n, rng);
    FreqPolynomial f;
    eng.forward(f, p, *avx2Kernels());
    TorusPolynomial back(n);
    eng.inverse(back, f, *avx2Kernels());
    for (size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(torusDistance(back[i], p[i])), 1) << i;
}

TEST_P(NegacyclicKernelCrossCheck, ProductMatchesExactKaratsuba)
{
    // End-to-end check against exact integer arithmetic: the AVX2
    // pipeline (twist -> FFT -> mulAcc -> inverse FFT -> untwist)
    // must compute the same negacyclic product the exact Karatsuba
    // multiplier does, to the usual FFT rounding slack.
    const size_t n = GetParam();
    if (n > 4096)
        GTEST_SKIP() << "Karatsuba reference too slow beyond 4096";
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(n + 29);
    IntPolynomial a = test::randomSmallIntPoly(n, 512, rng);
    TorusPolynomial b = test::randomTorusPoly(n, rng);

    FreqPolynomial fa, fb, prod;
    eng.forward(fa, a, *avx2Kernels());
    eng.forward(fb, b, *avx2Kernels());
    NegacyclicFft::mulAccumulate(prod, fa, fb, *avx2Kernels());
    TorusPolynomial got(n);
    eng.inverse(got, prod, *avx2Kernels());

    TorusPolynomial expected(n);
    negacyclicMulKaratsuba(expected, a, b);
    for (size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(torusDistance(got[i], expected[i])), 2) << i;
}

INSTANTIATE_TEST_SUITE_P(RingDims, NegacyclicKernelCrossCheck,
                         ::testing::ValuesIn(kRingDims));

// ---------------------------------------------------------------------------
// Batched transforms: NegacyclicFft::forwardBatch must be BIT-identical
// to per-row forward() -- same table, element by element -- not just
// ULP-close. These sweeps run on every CI leg: with STRIX_SIMD=OFF
// only the scalar table is exercised; with STRIX_FORCE_SCALAR=1 the
// `active` leg pins to scalar while the explicit avx2 leg still runs.

/** Batch sizes covering 1, odd, and the PBS digit counts. */
const size_t kBatchSizes[] = {1, 2, 3, 4, 6, 8};

/**
 * Parameterized by complex-plan size m: the batch goes through the
 * negacyclic engine of ring dimension 2m, whose rows are full-range
 * centered lifts (torus-like), the case with the largest magnitudes.
 */
class FftBatchExactness : public ::testing::TestWithParam<size_t>
{
};

TEST_P(FftBatchExactness, ForwardBatchBitIdenticalToSingle)
{
    const size_t m = GetParam();
    const size_t n = 2 * m;
    const auto &eng = NegacyclicFft::get(n);
    for (const auto &[tag, kernels] : allKernelTables()) {
        for (size_t batch : kBatchSizes) {
            Rng rng(m + 101 * batch);
            std::vector<int32_t> coeffs(n * batch);
            for (auto &c : coeffs)
                c = static_cast<int32_t>(rng.uniformTorus32());
            std::vector<Cplx> fused(m * batch);
            eng.forwardBatch(fused.data(), coeffs.data(), batch, *kernels);
            for (size_t b = 0; b < batch; ++b) {
                TorusPolynomial row(n);
                for (size_t j = 0; j < n; ++j)
                    row[j] = static_cast<Torus32>(coeffs[b * n + j]);
                FreqPolynomial single;
                eng.forward(single, row, *kernels);
                for (size_t i = 0; i < m; ++i) {
                    ASSERT_EQ(fused[b * m + i].real(), single[i].real())
                        << tag << " m=" << m << " batch=" << batch
                        << " b=" << b << " i=" << i;
                    ASSERT_EQ(fused[b * m + i].imag(), single[i].imag())
                        << tag << " m=" << m << " batch=" << batch
                        << " b=" << b << " i=" << i;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PlanSizes, FftBatchExactness,
                         ::testing::ValuesIn(kPlanSizes));

class NegacyclicFftBatch : public ::testing::TestWithParam<size_t>
{
};

TEST_P(NegacyclicFftBatch, ForwardBatchBitIdenticalToPerPoly)
{
    // Digit-like inputs (the external product's actual feed): small
    // signed coefficients, contiguous rows.
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    const size_t m = n / 2;
    for (const auto &[tag, kernels] : allKernelTables()) {
        for (size_t batch : {size_t{1}, size_t{4}, size_t{6}}) {
            Rng rng(n + 13 * batch);
            std::vector<int32_t> coeffs(n * batch);
            for (auto &c : coeffs)
                c = static_cast<int32_t>(rng.uniformBelow(1024)) - 512;
            std::vector<Cplx> fused(m * batch);
            eng.forwardBatch(fused.data(), coeffs.data(), batch,
                             *kernels);
            for (size_t b = 0; b < batch; ++b) {
                IntPolynomial row(n);
                std::copy(coeffs.begin() + b * n,
                          coeffs.begin() + (b + 1) * n, row.data());
                FreqPolynomial ref;
                eng.forward(ref, row, *kernels);
                for (size_t j = 0; j < m; ++j) {
                    ASSERT_EQ(fused[b * m + j].real(), ref[j].real())
                        << tag << " n=" << n << " b=" << b
                        << " j=" << j;
                    ASSERT_EQ(fused[b * m + j].imag(), ref[j].imag())
                        << tag << " n=" << n << " b=" << b
                        << " j=" << j;
                }
            }
        }
    }
}

TEST_P(NegacyclicFftBatch, DispatchedForwardBatchMatchesPerPoly)
{
    // Same comparison through the default (activeKernels) overloads:
    // whatever backend the dispatcher latched, fused == per-poly.
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    const size_t m = n / 2;
    const size_t batch = 5;
    Rng rng(n + 77);
    std::vector<int32_t> coeffs(n * batch);
    for (auto &c : coeffs)
        c = static_cast<int32_t>(rng.uniformBelow(64)) - 32;
    std::vector<Cplx> fused(m * batch);
    eng.forwardBatch(fused.data(), coeffs.data(), batch);
    for (size_t b = 0; b < batch; ++b) {
        IntPolynomial row(n);
        std::copy(coeffs.begin() + b * n, coeffs.begin() + (b + 1) * n,
                  row.data());
        FreqPolynomial ref;
        eng.forward(ref, row);
        for (size_t j = 0; j < m; ++j) {
            ASSERT_EQ(fused[b * m + j], ref[j])
                << "n=" << n << " b=" << b << " j=" << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RingDims, NegacyclicFftBatch,
                         ::testing::ValuesIn(kRingDims));

TEST(NegacyclicFft, InPlaceInverseMatchesCopyingInverse)
{
    // The allocation-free overload runs the same kernels over the
    // caller's buffer: bit-identical to the copying overload, and
    // still a round trip of forward().
    for (size_t n : {size_t{4}, size_t{8}, size_t{1024}, size_t{2048}}) {
        Rng rng(n + 41);
        TorusPolynomial p = test::randomTorusPoly(n, rng);
        const auto &eng = NegacyclicFft::get(n);
        for (const auto &[tag, kernels] : allKernelTables()) {
            FreqPolynomial f;
            eng.forward(f, p, *kernels);
            FreqPolynomial work = f;
            TorusPolynomial copying(n), in_place(n);
            eng.inverse(copying, f, *kernels);
            eng.inverse(in_place, work.data(), *kernels);
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(in_place[i], copying[i])
                    << tag << " n=" << n << " i=" << i;
                EXPECT_LE(std::abs(torusDistance(in_place[i], p[i])), 1)
                    << tag << " n=" << n << " i=" << i;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chunk kernels: vmaBlocked fixes one FMA summation order, so its
// backends must agree EXACTLY (no ulp slack), and an output must not
// depend on the chunk around it; subScaledRow is integer arithmetic.

/** GGSW shape of one vmaBlocked call: rows = (k+1)*l, cols = k+1. */
struct VmaShape
{
    size_t k;
    size_t l;
};

// k=3/l=5 has (k+1)^2*l = 80 key rows, past the 64 the AVX2 kernel
// stages on the stack: its heap-staged block must give the same bits.
const VmaShape kVmaShapes[] = {{1, 2}, {1, 3}, {2, 3}, {3, 5}};

/** Digit spectra, key rows and the call's strides for one shape. */
struct VmaCase
{
    VmaCase(size_t m_, VmaShape sh, size_t count_, uint64_t seed)
        : m(m_), stride(m_ + 4), rows((sh.k + 1) * sh.l), cols(sh.k + 1),
          count(count_), digits(count_ * rows * stride),
          key(rows * cols, FreqPolynomial(m_))
    {
        // Magnitudes of a real external product: digit spectra up to
        // ~N*Bg/2, key spectra up to ~N*2^31. Padding points hold
        // garbage the kernel must never read into a result.
        Rng rng(seed);
        const double dmag = double(m) * 512.0, kmag = double(m) * 2e9;
        for (auto &x : digits)
            x = Cplx((rng.uniformDouble() - 0.5) * dmag,
                     (rng.uniformDouble() - 0.5) * dmag);
        for (auto &row : key)
            for (auto &x : row)
                x = Cplx((rng.uniformDouble() - 0.5) * kmag,
                         (rng.uniformDouble() - 0.5) * kmag);
        for (const auto &row : key)
            key_ptrs.push_back(row.data());
    }

    std::vector<Cplx> run(const PolyKernels &kernels) const
    {
        std::vector<Cplx> out(count * cols * stride, Cplx(-1.0, -1.0));
        kernels.vmaBlocked(out.data(), digits.data(), key_ptrs.data(), rows,
                           cols, count, m, stride);
        return out;
    }

    size_t m, stride, rows, cols, count;
    std::vector<Cplx> digits;
    std::vector<FreqPolynomial> key;
    std::vector<const Cplx *> key_ptrs;
};

/** Bitwise equality of doubles (0.0 vs -0.0 counts as a difference). */
bool
sameBits(Cplx a, Cplx b)
{
    return std::memcmp(&a, &b, sizeof(Cplx)) == 0;
}

class VmaBlockedExactness : public ::testing::TestWithParam<size_t>
{
};

TEST_P(VmaBlockedExactness, Avx2MatchesScalarExactly)
{
    const PolyKernels *avx2 = avx2Kernels();
    if (avx2 == nullptr)
        GTEST_SKIP() << "AVX2 kernels unavailable "
                        "(STRIX_SIMD=OFF or non-AVX2 host)";
    const size_t m = GetParam();
    for (const VmaShape &sh : kVmaShapes) {
        for (size_t count = 1; count <= 5; ++count) {
            const VmaCase c(m, sh, count, m * 131 + count * 7 + sh.l);
            const std::vector<Cplx> ref = c.run(scalarKernels());
            const std::vector<Cplx> vec = c.run(*avx2);
            size_t mismatches = 0;
            for (size_t b = 0; b < count; ++b)
                for (size_t col = 0; col < c.cols; ++col)
                    for (size_t i = 0; i < m; ++i) {
                        const size_t at = (b * c.cols + col) * c.stride + i;
                        mismatches += !sameBits(vec[at], ref[at]);
                    }
            EXPECT_EQ(mismatches, 0u) << "m=" << m << " k=" << sh.k
                                      << " l=" << sh.l << " width=" << count;
        }
    }
}

TEST_P(VmaBlockedExactness, OutputIndependentOfChunk)
{
    // Ciphertext b of a width-5 call must equal a width-1 call on its
    // own digits, in every table: an output never depends on the
    // width of the chunk or on its place in it.
    const size_t m = GetParam();
    for (const auto &[tag, kernels] : allKernelTables()) {
        for (const VmaShape &sh : kVmaShapes) {
            const VmaCase wide(m, sh, 5, m + sh.k);
            const std::vector<Cplx> all = wide.run(*kernels);
            for (size_t b = 0; b < wide.count; ++b) {
                VmaCase one(m, sh, 1, 0);
                one.key = wide.key;
                one.key_ptrs = wide.key_ptrs;
                std::copy_n(wide.digits.begin() + b * wide.rows * wide.stride,
                            wide.rows * wide.stride, one.digits.begin());
                const std::vector<Cplx> lone = one.run(*kernels);
                size_t mismatches = 0;
                for (size_t col = 0; col < wide.cols; ++col)
                    for (size_t i = 0; i < m; ++i)
                        mismatches += !sameBits(
                            lone[col * wide.stride + i],
                            all[(b * wide.cols + col) * wide.stride + i]);
                EXPECT_EQ(mismatches, 0u)
                    << tag << " m=" << m << " k=" << sh.k << " l=" << sh.l
                    << " slot " << b;
            }
        }
    }
}

TEST(VmaBlocked, ScalarFollowsTheContractSummationOrder)
{
    // The scalar oracle written out by hand for every point: two FMA
    // chains from +0.0 over the rows, then one subtract and one add.
    for (size_t m : {size_t{2}, size_t{8}}) {
        const VmaCase c(m, {1, 2}, 1, 99);
        const std::vector<Cplx> out = c.run(scalarKernels());
        const auto spectrum = [&](const std::vector<Cplx> &v, size_t at) {
            return FreqPolynomial(v.begin() + at, v.begin() + at + c.m);
        };
        for (size_t col = 0; col < c.cols; ++col) {
            for (size_t t = 0; t < c.m; ++t) {
                double p_re = 0.0, p_im = 0.0, s_re = 0.0, s_im = 0.0;
                for (size_t r = 0; r < c.rows; ++r) {
                    const Cplx a =
                        pointAt(spectrum(c.digits, r * c.stride), t);
                    const Cplx w = pointAt(c.key[r * c.cols + col], t);
                    p_re = std::fma(a.real(), w.real(), p_re);
                    p_im = std::fma(a.imag(), w.real(), p_im);
                    s_re = std::fma(a.imag(), w.imag(), s_re);
                    s_im = std::fma(a.real(), w.imag(), s_im);
                }
                EXPECT_TRUE(
                    sameBits(pointAt(spectrum(out, col * c.stride), t),
                             Cplx(p_re - s_re, p_im + s_im)))
                    << "m " << m << " col " << col << " t " << t;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PlanSizes, VmaBlockedExactness,
                         ::testing::ValuesIn(kPlanSizes));

TEST(SubScaledRow, BackendsAgreeWordForWord)
{
    // Full-range rows and digits, widths with and without an AVX2
    // tail, zero digits that must leave their ciphertext untouched.
    Rng rng(47);
    for (size_t width : {size_t{1}, size_t{7}, size_t{8}, size_t{17},
                         size_t{501}}) {
        const size_t count = 5, stride = 3;
        std::vector<uint32_t> row(width);
        for (auto &w : row)
            w = rng.uniformTorus32();
        std::vector<int32_t> digits(count * stride);
        for (auto &d : digits)
            d = static_cast<int32_t>(rng.uniformBelow(9)) - 4;
        digits[0] = 0;
        digits[2 * stride] = 0;
        std::vector<std::vector<uint32_t>> init(count,
                                                std::vector<uint32_t>(width));
        for (auto &ct : init)
            for (auto &w : ct)
                w = rng.uniformTorus32();
        for (const auto &[tag, kernels] : allKernelTables()) {
            std::vector<std::vector<uint32_t>> outs = init;
            std::vector<uint32_t *> ptrs;
            for (auto &ct : outs)
                ptrs.push_back(ct.data());
            kernels->subScaledRow(ptrs.data(), digits.data(), stride, count,
                                  row.data(), width);
            for (size_t b = 0; b < count; ++b) {
                std::vector<uint32_t> expect = init[b];
                const uint32_t d = static_cast<uint32_t>(digits[b * stride]);
                for (size_t x = 0; x < width; ++x)
                    expect[x] -= d * row[x];
                EXPECT_EQ(outs[b], expect)
                    << tag << " width " << width << " ciphertext " << b;
            }
        }
    }
}

TEST(NegacyclicFft, MulAccumulatePanicsOnAccumulatorShapeMismatch)
{
    const size_t n = 64;
    Rng rng(31);
    IntPolynomial a(n);
    TorusPolynomial x(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(rng.uniformBelow(17)) - 8;
        x[i] = rng.uniformTorus32();
    }
    const auto &eng = NegacyclicFft::get(n);
    FreqPolynomial fa, fx;
    eng.forward(fa, a);
    eng.forward(fx, x);

    // Empty accumulator still auto-sizes...
    FreqPolynomial acc;
    NegacyclicFft::mulAccumulate(acc, fa, fx);
    EXPECT_EQ(acc.size(), n / 2);
    // ...but a wrong-sized one is a caller shape bug, not a request
    // to throw away the partial sum.
    FreqPolynomial wrong(n / 4, Cplx(0, 0));
    EXPECT_DEATH(NegacyclicFft::mulAccumulate(wrong, fa, fx),
                 "accumulator size mismatch");
}

} // namespace
} // namespace strix
