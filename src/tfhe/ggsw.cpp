/**
 * @file
 * GGSW / external product implementation.
 */

#include "tfhe/ggsw.h"

#include <algorithm>
#include <cstdint>

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

namespace {

/**
 * L2 budget of one sub-batch's digit spectra plus product columns.
 * Half of a 1 MiB L2 (2 MiB on the reference host), so the GGSW being
 * applied (64 KiB at set I) and the accumulators fit beside it.
 */
constexpr size_t kChunkBytes = size_t{512} << 10;

/**
 * Points of padding after every spectrum in the scratch buffers. An
 * unpadded N/2-point spectrum is a power-of-two number of bytes, so
 * the same point of every digit row and product column would fall
 * into one L1 set (and 4 KiB-alias between loads and stores); two
 * cache lines of padding spread them. Measured ~25% off the VMA at
 * chunk widths 4-16 on the reference host.
 */
constexpr size_t kSpectrumPad = 8;

/**
 * Slots prepare() adds to each spectrum buffer, so that the buffer
 * still holds its full size from its first 64-byte boundary on, where
 * blockAligned() starts it. A 4-point split block (poly/simd.h) is
 * then exactly one cache line -- the padded stride is a multiple of
 * 4 points -- instead of straddling two; measured ~10% off a 512-point
 * transform on the reference host.
 */
constexpr size_t kAlignSlack = 64 / sizeof(Cplx) - 1;

/** The first 64-byte-aligned slot of @p buf. */
Cplx *
blockAligned(std::vector<Cplx> &buf)
{
    const uintptr_t p = reinterpret_cast<uintptr_t>(buf.data());
    return reinterpret_cast<Cplx *>((p + 63) & ~uintptr_t{63});
}

} // namespace

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

size_t
GgswFft::stride() const
{
    return big_n_ / 2 + kSpectrumPad;
}

size_t
GgswFft::chunkWidth() const
{
    const size_t spectra = (size_t(k_) + 1) * (g_.levels + 1);
    const size_t bytes = spectra * stride() * sizeof(Cplx);
    return std::max<size_t>(1, kChunkBytes / bytes);
}

void
GgswFft::prepare(PbsScratch &scratch, size_t slots) const
{
    // Grow only: a scratch that served a wider chunk keeps its
    // buffers, and a width-1 caller never allocates a full sub-batch.
    const auto atLeast = [](auto &buf, size_t n) {
        if (buf.size() < n)
            buf.resize(n);
    };
    const size_t cols = size_t(k_) + 1;
    atLeast(scratch.digit_coeffs, cols * g_.levels * big_n_);
    atLeast(scratch.spectra,
            slots * cols * g_.levels * stride() + kAlignSlack);
    atLeast(scratch.columns, slots * cols * stride() + kAlignSlack);
}

void
GgswFft::forwardDigits(Cplx *spectra, const GlweCiphertext &in,
                       PbsScratch &scratch) const
{
    const auto &eng = NegacyclicFft::get(big_n_);
    const PolyKernels &kernels = activeKernels();
    int32_t *coeffs = scratch.digit_coeffs.data();
    const size_t nrows = (size_t(k_) + 1) * g_.levels;
    for (uint32_t comp = 0; comp <= k_; ++comp)
        gadgetDecomposePolyInto(coeffs + size_t(comp) * g_.levels * big_n_,
                                in.poly(comp), g_);
    for (size_t r = 0; r < nrows; ++r)
        eng.forward(spectra + r * stride(), coeffs + r * big_n_, kernels);
}

void
GgswFft::vma(PbsScratch &scratch, size_t count) const
{
    std::vector<const Cplx *> &key = scratch.key_rows;
    key.resize(rows_.size());
    for (size_t e = 0; e < rows_.size(); ++e)
        key[e] = rows_[e].data();
    activeKernels().vmaBlocked(blockAligned(scratch.columns),
                               blockAligned(scratch.spectra),
                               key.data(), (size_t(k_) + 1) * g_.levels,
                               size_t(k_) + 1, count, big_n_ / 2, stride());
}

void
GgswFft::cmuxRotateBatch(GlweCiphertext *accs, const uint32_t *powers,
                         size_t count, PbsScratch &scratch) const
{
    const auto &eng = NegacyclicFft::get(big_n_);
    const PolyKernels &kernels = activeKernels();
    const size_t cols = size_t(k_) + 1;
    const size_t digit_rows = cols * g_.levels;
    const size_t ds = stride();
    const size_t width = std::min(count, chunkWidth());
    prepare(scratch, width);
    std::vector<size_t> &slots = scratch.slots;
    GlweCiphertext &diff = scratch.diff;
    if (diff.k() != k_ || diff.ringDim() != big_n_)
        diff = GlweCiphertext(k_, big_n_);

    size_t next = 0;
    while (next < count) {
        // Rotator + Decomposer + FFT: fill up to `width` slots with
        // the digit spectra of X^power * acc - acc.
        slots.clear();
        for (; next < count && slots.size() < width; ++next) {
            if (powers[next] == 0)
                continue;
            GlweCiphertext &acc = accs[next];
            panicIfNot(acc.k() == k_ && acc.ringDim() == big_n_,
                       "cmuxRotateBatch: shape mismatch");
            for (uint32_t c = 0; c <= k_; ++c)
                negacyclicRotateMinusOne(diff.poly(c), acc.poly(c),
                                         powers[next]);
            forwardDigits(blockAligned(scratch.spectra) +
                              slots.size() * digit_rows * ds,
                          diff, scratch);
            slots.push_back(next);
        }
        if (slots.empty())
            break;
        // VMA: one pass of this GGSW over the sub-batch.
        vma(scratch, slots.size());
        // IFFT + accumulate: acc += ggsw [*] diff, column by column,
        // inverse-added straight into the accumulator; each product
        // column is dead afterwards, so the inverse runs in place on
        // it.
        for (size_t j = 0; j < slots.size(); ++j) {
            GlweCiphertext &acc = accs[slots[j]];
            for (uint32_t c = 0; c <= k_; ++c)
                eng.inverseAdd(acc.poly(c).data(),
                               blockAligned(scratch.columns) +
                                   (j * cols + c) * ds,
                               kernels);
        }
    }
}

void
GgswFft::cmuxRotate(GlweCiphertext &acc, uint32_t power,
                    PbsScratch &scratch) const
{
    cmuxRotateBatch(&acc, &power, 1, scratch);
}

void
GgswFft::cmuxRotate(GlweCiphertext &acc, uint32_t power) const
{
    PbsScratch scratch;
    cmuxRotate(acc, power, scratch);
}

void
GgswFft::externalProduct(GlweCiphertext &out, const GlweCiphertext &glwe,
                         PbsScratch &scratch) const
{
    panicIfNot(glwe.k() == k_ && glwe.ringDim() == big_n_,
               "externalProduct(fft): shape mismatch");
    const auto &eng = NegacyclicFft::get(big_n_);
    const PolyKernels &kernels = activeKernels();
    prepare(scratch, 1);
    forwardDigits(blockAligned(scratch.spectra), glwe, scratch);
    vma(scratch, 1);
    if (out.k() != k_ || out.ringDim() != big_n_)
        out = GlweCiphertext(k_, big_n_);
    for (uint32_t c = 0; c <= k_; ++c)
        eng.inverse(out.poly(c), blockAligned(scratch.columns) + c * stride(),
                    kernels);
}

void
GgswFft::externalProduct(GlweCiphertext &out, const GlweCiphertext &glwe) const
{
    PbsScratch scratch;
    externalProduct(out, glwe, scratch);
}

void
GgswFft::externalProductPerPoly(GlweCiphertext &out,
                                const GlweCiphertext &glwe,
                                PbsScratch &scratch) const
{
    externalProduct(out, glwe, scratch);
}

} // namespace strix
