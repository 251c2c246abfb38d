/**
 * @file
 * GGSW / external product implementation.
 */

#include "tfhe/ggsw.h"

#include "common/logging.h"
#include "poly/simd.h"

namespace strix {

GgswCiphertext::GgswCiphertext(uint32_t k, uint32_t big_n,
                               const GadgetParams &g)
    : k_(k), big_n_(big_n), g_(g)
{
    rows_.resize(size_t(k + 1) * g.levels, GlweCiphertext(k, big_n));
}

GgswCiphertext
ggswEncrypt(const GlweKey &key, int32_t m, const GadgetParams &g,
            double stddev, Rng &rng)
{
    const uint32_t k = key.k();
    const uint32_t n = key.ringDim();
    GgswCiphertext out(k, n, g);
    for (uint32_t block = 0; block <= k; ++block) {
        for (uint32_t level = 0; level < g.levels; ++level) {
            GlweCiphertext row = glweEncryptZero(key, stddev, rng);
            // Add m * q/B^(level+1) on component `block` (constant
            // coefficient). For block < k this lands on a mask
            // polynomial; for block == k on the body.
            Torus32 scale = g.levelScale(level + 1);
            row.poly(block)[0] +=
                static_cast<uint32_t>(m) * scale;
            out.row(size_t(block) * g.levels + level) = std::move(row);
        }
    }
    return out;
}

GgswCiphertext
ggswEncryptSeeded(const GlweKey &key, int32_t m, const GadgetParams &g,
                  double stddev, const Rng &mask_root,
                  uint64_t stream_base, Rng &noise_rng)
{
    const uint32_t k = key.k();
    const uint32_t n = key.ringDim();
    GgswCiphertext out(k, n, g);
    const TorusPolynomial zero(n);
    for (uint32_t block = 0; block <= k; ++block) {
        for (uint32_t level = 0; level < g.levels; ++level) {
            Rng mask_rng = mask_root.fork(
                stream_base + uint64_t(block) * g.levels + level);
            GlweCiphertext row =
                glweEncryptSeeded(key, zero, stddev, mask_rng, noise_rng);
            const Torus32 scale = g.levelScale(level + 1);
            if (block == k) {
                row.body()[0] += static_cast<uint32_t>(m) * scale;
            } else {
                // Body form (see header): body -= m*scale*z_block,
                // exact mod-2^32 arithmetic over the binary key poly.
                const IntPolynomial &z = key.poly(block);
                for (uint32_t j = 0; j < n; ++j)
                    row.body()[j] -= static_cast<uint32_t>(m) * scale *
                                     static_cast<uint32_t>(z[j]);
            }
            out.row(size_t(block) * g.levels + level) = std::move(row);
        }
    }
    return out;
}

void
externalProduct(GlweCiphertext &out, const GgswCiphertext &ggsw,
                const GlweCiphertext &glwe)
{
    const uint32_t k = ggsw.k();
    const uint32_t n = ggsw.ringDim();
    const GadgetParams &g = ggsw.gadget();
    panicIfNot(glwe.k() == k && glwe.ringDim() == n,
               "externalProduct: shape mismatch");

    out = GlweCiphertext(k, n);
    std::vector<IntPolynomial> digits;
    TorusPolynomial prod(n);
    for (uint32_t comp = 0; comp <= k; ++comp) {
        gadgetDecomposePoly(digits, glwe.poly(comp), g);
        for (uint32_t level = 0; level < g.levels; ++level) {
            const GlweCiphertext &row =
                ggsw.row(size_t(comp) * g.levels + level);
            for (uint32_t c = 0; c <= k; ++c) {
                negacyclicMulKaratsuba(prod, digits[level], row.poly(c));
                out.poly(c).addAssign(prod);
            }
        }
    }
}

GgswFft::GgswFft(const GgswCiphertext &ggsw)
    : k_(ggsw.k()), big_n_(ggsw.ringDim()), g_(ggsw.gadget())
{
    const auto &eng = NegacyclicFft::get(big_n_);
    const uint32_t nrows = ggsw.rows();
    rows_.resize(size_t(nrows) * (k_ + 1));
    for (uint32_t r = 0; r < nrows; ++r)
        for (uint32_t c = 0; c <= k_; ++c)
            eng.forward(rows_[size_t(r) * (k_ + 1) + c],
                        ggsw.row(r).poly(c));
}

GgswFft
GgswFft::fromRawRows(uint32_t k, uint32_t big_n, const GadgetParams &g,
                     std::vector<FreqPolynomial> rows)
{
    const size_t expect_rows =
        size_t(k + 1) * g.levels * (size_t(k) + 1);
    panicIfNot(rows.size() == expect_rows,
               "GgswFft::fromRawRows: row count mismatch");
    for (const FreqPolynomial &row : rows)
        panicIfNot(row.size() == size_t(big_n) / 2,
                   "GgswFft::fromRawRows: row size mismatch");
    GgswFft out;
    out.k_ = k;
    out.big_n_ = big_n;
    out.g_ = g;
    out.rows_ = std::move(rows);
    return out;
}

void
GgswFft::externalProduct(GlweCiphertext &out, const GlweCiphertext &glwe,
                         PbsScratch &scratch) const
{
    panicIfNot(glwe.k() == k_ && glwe.ringDim() == big_n_,
               "externalProduct(fft): shape mismatch");
    const auto &eng = NegacyclicFft::get(big_n_);
    const PolyKernels &kernels = activeKernels();

    // Decompose every component (Decomposer unit) into one contiguous
    // digit matrix, then stream the (k+1)*l digit rows one at a time
    // through the forward FFT (FFT unit) and straight into the
    // multiply-accumulate against the bsk rows (VMA unit): the one
    // frequency-domain digit stays L1-resident between the two.
    // Finally inverse-transform each accumulator column in place
    // (IFFT unit); the column is dead afterwards, so the inverse
    // needs no buffer of its own.
    const size_t nrows = (size_t(k_) + 1) * g_.levels;
    const size_t m = size_t(big_n_) / 2;
    std::vector<int32_t> &coeffs = scratch.digit_coeffs;
    FreqPolynomial &fdigit = scratch.fdigit;
    std::vector<FreqPolynomial> &acc = scratch.acc;
    coeffs.resize(nrows * big_n_);
    fdigit.resize(m);
    if (acc.size() != size_t(k_) + 1)
        acc.resize(size_t(k_) + 1);
    for (auto &col : acc)
        col.assign(m, Cplx(0, 0));

    for (uint32_t comp = 0; comp <= k_; ++comp)
        gadgetDecomposePolyInto(
            coeffs.data() + size_t(comp) * g_.levels * big_n_,
            glwe.poly(comp), g_);
    for (size_t r = 0; r < nrows; ++r) {
        eng.forward(fdigit.data(), coeffs.data() + r * big_n_, kernels);
        for (uint32_t c = 0; c <= k_; ++c)
            kernels.mulAccumulate(acc[c].data(), fdigit.data(),
                                  row(r, c).data(), m);
    }

    if (out.k() != k_ || out.ringDim() != big_n_)
        out = GlweCiphertext(k_, big_n_);
    for (uint32_t c = 0; c <= k_; ++c)
        eng.inverse(out.poly(c), acc[c].data(), kernels);
}

void
GgswFft::externalProductPerPoly(GlweCiphertext &out,
                                const GlweCiphertext &glwe,
                                PbsScratch &scratch) const
{
    externalProduct(out, glwe, scratch);
}

void
GgswFft::externalProduct(GlweCiphertext &out, const GlweCiphertext &glwe) const
{
    PbsScratch scratch;
    externalProduct(out, glwe, scratch);
}

void
GgswFft::cmuxRotate(GlweCiphertext &acc, uint32_t power,
                    PbsScratch &scratch) const
{
    // diff = X^power * acc - acc (Rotator unit: rotate and subtract)
    GlweCiphertext &diff = scratch.diff;
    if (diff.k() != k_ || diff.ringDim() != big_n_)
        diff = GlweCiphertext(k_, big_n_);
    for (uint32_t c = 0; c <= k_; ++c)
        negacyclicRotateMinusOne(diff.poly(c), acc.poly(c), power);
    // acc += ggsw [*] diff
    externalProduct(scratch.prod, diff, scratch);
    acc.addAssign(scratch.prod);
}

void
GgswFft::cmuxRotate(GlweCiphertext &acc, uint32_t power) const
{
    PbsScratch scratch;
    cmuxRotate(acc, power, scratch);
}

} // namespace strix
