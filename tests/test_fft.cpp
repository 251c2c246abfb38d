/**
 * @file
 * Tests for the complex FFT and the folded negacyclic FFT, plus the
 * scalar-vs-AVX2 kernel cross-checks for the runtime-dispatch seam
 * (poly/simd.h). The cross-checks sweep every plan size any shipped
 * parameter set touches (midParams N=256 ... set IV N=16384) and run
 * under both CI legs: with STRIX_SIMD=ON they compare the two
 * backends element by element; with STRIX_SIMD=OFF (or on a non-AVX2
 * host) the vector half skips and the scalar reference still runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/random.h"
#include "poly/complex_fft.h"
#include "poly/negacyclic_fft.h"
#include "poly/simd.h"
#include "support/test_util.h"

namespace strix {
namespace {

TEST(ComplexFft, ForwardInverseRoundTrip)
{
    for (size_t m : {2u, 8u, 64u, 512u}) {
        Rng rng(m);
        std::vector<Cplx> data(m), orig(m);
        for (auto &c : data)
            c = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
        orig = data;
        const FftPlan &plan = FftPlan::get(m);
        plan.forward(data.data());
        plan.inverse(data.data());
        for (size_t i = 0; i < m; ++i) {
            EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-12);
            EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-12);
        }
    }
}

TEST(ComplexFft, MatchesDirectDft)
{
    const size_t m = 16;
    Rng rng(3);
    std::vector<Cplx> data(m);
    for (auto &c : data)
        c = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);

    // Direct O(M^2) DFT with the same positive-exponent convention.
    std::vector<Cplx> expected(m, Cplx(0, 0));
    for (size_t k = 0; k < m; ++k)
        for (size_t j = 0; j < m; ++j) {
            double ang = 2.0 * M_PI * j * k / m;
            expected[k] += data[j] * Cplx(std::cos(ang), std::sin(ang));
        }

    // Documented output order: X_k sits at bit_reverse[k].
    const FftPlan &plan = FftPlan::get(m);
    plan.forward(data.data());
    const std::vector<uint32_t> &rev = plan.bitReverse();
    for (size_t k = 0; k < m; ++k) {
        EXPECT_NEAR(data[rev[k]].real(), expected[k].real(), 1e-10) << k;
        EXPECT_NEAR(data[rev[k]].imag(), expected[k].imag(), 1e-10) << k;
    }
}

TEST(ComplexFft, LinearityOfTransform)
{
    const size_t m = 64;
    Rng rng(4);
    std::vector<Cplx> a(m), b(m), sum(m);
    for (size_t i = 0; i < m; ++i) {
        a[i] = Cplx(rng.uniformDouble(), rng.uniformDouble());
        b[i] = Cplx(rng.uniformDouble(), rng.uniformDouble());
        sum[i] = a[i] + b[i];
    }
    const FftPlan &plan = FftPlan::get(m);
    plan.forward(a.data());
    plan.forward(b.data());
    plan.forward(sum.data());
    for (size_t i = 0; i < m; ++i) {
        EXPECT_NEAR(sum[i].real(), a[i].real() + b[i].real(), 1e-9);
        EXPECT_NEAR(sum[i].imag(), a[i].imag() + b[i].imag(), 1e-9);
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
    EXPECT_NE(s.fftForward, nullptr);
    EXPECT_NE(s.fftInverse, nullptr);
    EXPECT_NE(s.twist, nullptr);
    EXPECT_NE(s.untwist, nullptr);
    EXPECT_NE(s.mulAccumulate, nullptr);
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
    const size_t m = GetParam();
    const FftPlan &plan = FftPlan::get(m);
    Rng rng(m);
    std::vector<Cplx> ref(m), vec(m);
    for (size_t i = 0; i < m; ++i)
        ref[i] = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
    vec = ref;
    plan.forward(ref.data(), scalarKernels());
    plan.forward(vec.data(), *avx2Kernels());
    expectUlpClose(vec.data(), ref.data(), m, 1e-12);
}

TEST_P(KernelCrossCheck, InverseFftMatchesScalar)
{
    const size_t m = GetParam();
    const FftPlan &plan = FftPlan::get(m);
    Rng rng(m + 17);
    std::vector<Cplx> ref(m), vec(m);
    for (size_t i = 0; i < m; ++i)
        ref[i] = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
    vec = ref;
    plan.inverse(ref.data(), scalarKernels());
    plan.inverse(vec.data(), *avx2Kernels());
    expectUlpClose(vec.data(), ref.data(), m, 1e-12);
}

TEST_P(KernelCrossCheck, MulAccumulateMatchesScalar)
{
    const size_t m = GetParam();
    Rng rng(m + 31);
    FreqPolynomial a(m), b(m), ref(m), vec(m);
    for (size_t i = 0; i < m; ++i) {
        a[i] = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
        b[i] = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
        ref[i] = vec[i] =
            Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
    }
    scalarKernels().mulAccumulate(ref.data(), a.data(), b.data(), m);
    avx2Kernels()->mulAccumulate(vec.data(), a.data(), b.data(), m);
    expectUlpClose(vec.data(), ref.data(), m, 1e-13);
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
