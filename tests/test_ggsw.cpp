/**
 * @file
 * GGSW and external-product tests: the external product of GGSW(m)
 * with GLWE(M) must decrypt to m*M, and the fused CMux must select
 * between a polynomial and its rotation.
 */

#include <gtest/gtest.h>

#include "support/test_util.h"
#include "tfhe/ggsw.h"

namespace strix {
namespace {

using test::randomMessagePoly;

/** Max |error| of phase vs expectation, in torus ulps. */
int64_t
maxPhaseError(const TorusPolynomial &phase, const TorusPolynomial &expect)
{
    int64_t worst = 0;
    for (size_t i = 0; i < phase.size(); ++i)
        worst = std::max(
            worst, std::abs(static_cast<int64_t>(
                       torusDistance(phase[i], expect[i]))));
    return worst;
}

struct GgswCase
{
    uint32_t k;
    uint32_t big_n;
    uint32_t base_bits;
    uint32_t levels;
};

class ExternalProductSweep : public ::testing::TestWithParam<GgswCase>
{
};

TEST_P(ExternalProductSweep, EncryptsProductOfBit)
{
    const auto c = GetParam();
    Rng rng(42);
    GlweKey key(c.k, c.big_n, rng);
    GadgetParams g{c.base_bits, c.levels};

    for (int32_t m : {0, 1}) {
        GgswCiphertext ggsw = ggswEncrypt(key, m, g, 0.0, rng);
        TorusPolynomial mu = randomMessagePoly(c.big_n, rng);
        GlweCiphertext glwe = glweEncrypt(key, mu, 0.0, rng);
        GlweCiphertext out;
        externalProduct(out, ggsw, glwe);
        TorusPolynomial phase = glwePhase(key, out);

        TorusPolynomial expect(c.big_n);
        if (m == 1)
            expect = mu;
        // Zero noise: the only error is the gadget rounding, bounded
        // by (k+1)*N*B/2 * q/(2B^l) scaled contributions; empirically
        // far below a 1/64 message step. Allow q/2^10.
        EXPECT_LE(maxPhaseError(phase, expect), int64_t{1} << 22)
            << "m=" << m;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExternalProductSweep,
    ::testing::Values(GgswCase{1, 64, 10, 2}, GgswCase{1, 64, 7, 3},
                      GgswCase{2, 32, 8, 3}, GgswCase{1, 256, 10, 2},
                      GgswCase{2, 64, 12, 2}));

TEST(Ggsw, FftExternalProductMatchesExact)
{
    Rng rng(7);
    const uint32_t n = 128, k = 1;
    GlweKey key(k, n, rng);
    GadgetParams g{10, 2};
    GgswCiphertext ggsw = ggswEncrypt(key, 1, g, 0.0, rng);
    GgswFft ggsw_fft(ggsw);

    TorusPolynomial mu = randomMessagePoly(n, rng);
    GlweCiphertext glwe = glweEncrypt(key, mu, 0.0, rng);

    GlweCiphertext exact, viaFft;
    externalProduct(exact, ggsw, glwe);
    ggsw_fft.externalProduct(viaFft, glwe);

    for (uint32_t c = 0; c <= k; ++c) {
        for (uint32_t i = 0; i < n; ++i) {
            EXPECT_LE(std::abs(torusDistance(exact.poly(c)[i],
                                             viaFft.poly(c)[i])),
                      16)
                << "c=" << c << " i=" << i;
        }
    }
}

TEST(Ggsw, BatchFusedExternalProductBitMatchesPerPoly)
{
    // The streamed path (digit rows through one reused frequency
    // buffer, accumulator columns inverse-transformed in place) must
    // equal a per-poly composition of the public transform API
    // EXACTLY -- same kernel table, same per-element float ops,
    // bit-identical output -- across gadget shapes and with real
    // noise in the inputs.
    Rng rng(21);
    const GgswCase shapes[] = {{1, 128, 10, 2},
                               {2, 64, 8, 3},
                               {1, 1024, 10, 2},
                               {2, 32, 7, 3}};
    for (const auto &c : shapes) {
        GlweKey key(c.k, c.big_n, rng);
        GadgetParams g{c.base_bits, c.levels};
        GgswCiphertext ggsw = ggswEncrypt(key, 1, g, 1e-7, rng);
        GgswFft ggsw_fft(ggsw);
        TorusPolynomial mu = randomMessagePoly(c.big_n, rng);
        GlweCiphertext glwe = glweEncrypt(key, mu, 1e-7, rng);

        GlweCiphertext fused;
        PbsScratch fused_scratch;
        ggsw_fft.externalProduct(fused, glwe, fused_scratch);

        const auto &eng = NegacyclicFft::get(c.big_n);
        std::vector<FreqPolynomial> acc(c.k + 1);
        std::vector<IntPolynomial> digits;
        FreqPolynomial fdigit;
        for (uint32_t comp = 0; comp <= c.k; ++comp) {
            gadgetDecomposePoly(digits, glwe.poly(comp), g);
            for (uint32_t level = 0; level < g.levels; ++level) {
                eng.forward(fdigit, digits[level]);
                const size_t r = size_t(comp) * g.levels + level;
                for (uint32_t col = 0; col <= c.k; ++col)
                    NegacyclicFft::mulAccumulate(acc[col], fdigit,
                                                 ggsw_fft.row(r, col));
            }
        }
        GlweCiphertext ref(c.k, c.big_n);
        for (uint32_t col = 0; col <= c.k; ++col)
            eng.inverse(ref.poly(col), acc[col]);
        ASSERT_EQ(fused.k(), ref.k());
        for (uint32_t comp = 0; comp <= c.k; ++comp)
            EXPECT_TRUE(fused.poly(comp) == ref.poly(comp))
                << "N=" << c.big_n << " k=" << c.k << " l=" << c.levels
                << " comp=" << comp;
    }
}

TEST(Ggsw, FusedExternalProductSharesScratchAcrossShapes)
{
    // One scratch serving ciphertexts of different shapes must resize
    // cleanly and stay bit-correct (the batched buffers are raw
    // vectors, so stale sizing would corrupt silently if unchecked).
    Rng rng(22);
    PbsScratch scratch;
    for (const auto &c :
         {GgswCase{1, 64, 10, 2}, GgswCase{2, 32, 8, 3},
          GgswCase{1, 256, 10, 2}, GgswCase{1, 64, 10, 2}}) {
        GlweKey key(c.k, c.big_n, rng);
        GadgetParams g{c.base_bits, c.levels};
        GgswFft ggsw_fft(ggswEncrypt(key, 1, g, 0.0, rng));
        GlweCiphertext glwe =
            glweEncrypt(key, randomMessagePoly(c.big_n, rng), 0.0, rng);
        GlweCiphertext shared, fresh;
        PbsScratch fresh_scratch;
        ggsw_fft.externalProduct(shared, glwe, scratch);
        ggsw_fft.externalProduct(fresh, glwe, fresh_scratch);
        for (uint32_t comp = 0; comp <= c.k; ++comp)
            EXPECT_TRUE(shared.poly(comp) == fresh.poly(comp))
                << "N=" << c.big_n << " comp=" << comp;
    }
}

TEST(Ggsw, CmuxSelectsRotationWhenBitSet)
{
    Rng rng(8);
    const uint32_t n = 64, k = 1;
    GlweKey key(k, n, rng);
    GadgetParams g{10, 2};
    TorusPolynomial mu = randomMessagePoly(n, rng);

    const uint32_t power = 13;
    TorusPolynomial rotated(n);
    negacyclicRotate(rotated, mu, power);

    for (int32_t bit : {0, 1}) {
        GgswCiphertext ggsw = ggswEncrypt(key, bit, g, 0.0, rng);
        GgswFft fft(ggsw);
        GlweCiphertext acc = GlweCiphertext::trivial(k, mu);
        fft.cmuxRotate(acc, power);
        TorusPolynomial phase = glwePhase(key, acc);
        const TorusPolynomial &expect = bit ? rotated : mu;
        EXPECT_LE(maxPhaseError(phase, expect), int64_t{1} << 22)
            << "bit=" << bit;
    }
}

TEST(Ggsw, CmuxChainAccumulatesRotations)
{
    // Two chained CMuxes with bits (1, 1) rotate by the sum of powers.
    Rng rng(9);
    const uint32_t n = 64, k = 1;
    GlweKey key(k, n, rng);
    GadgetParams g{10, 2};
    TorusPolynomial mu = randomMessagePoly(n, rng);

    GgswCiphertext one = ggswEncrypt(key, 1, g, 0.0, rng);
    GgswFft fft(one);
    GlweCiphertext acc = GlweCiphertext::trivial(k, mu);
    fft.cmuxRotate(acc, 5);
    fft.cmuxRotate(acc, 9);

    TorusPolynomial expect(n);
    negacyclicRotate(expect, mu, 14);
    EXPECT_LE(maxPhaseError(glwePhase(key, acc), expect),
              int64_t{1} << 22);
}

TEST(Ggsw, RowLayoutMatchesPaper)
{
    // (k+1)*lb rows of (k+1) polynomials (Sec. II-D).
    Rng rng(10);
    GlweKey key(2, 32, rng);
    GadgetParams g{8, 3};
    GgswCiphertext ggsw = ggswEncrypt(key, 1, g, 0.0, rng);
    EXPECT_EQ(ggsw.rows(), (2u + 1) * 3);
    EXPECT_EQ(ggsw.row(0).k(), 2u);
}

} // namespace
} // namespace strix
