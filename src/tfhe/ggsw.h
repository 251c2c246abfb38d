/**
 * @file
 * GGSW ciphertexts and the external product.
 *
 * A GGSW ciphertext of integer message m under GLWE key z is the
 * (k+1)*lb x (k+1) matrix of polynomials (Sec. II-D): row (i, j) is a
 * GLWE encryption of zero plus m * q/B^{j+1} placed on component i.
 * The external product GGSW(m) [*] GLWE(M) = GLWE(m*M) decomposes each
 * GLWE component and multiply-accumulates against the matrix rows
 * (Algorithm 1, lines 7-10) -- the core of every blind-rotation
 * iteration.
 */

#ifndef STRIX_TFHE_GGSW_H
#define STRIX_TFHE_GGSW_H

#include <vector>

#include "tfhe/decompose.h"
#include "tfhe/glwe.h"

namespace strix {

/** GGSW ciphertext: (k+1)*levels GLWE rows. */
class GgswCiphertext
{
  public:
    GgswCiphertext() = default;
    GgswCiphertext(uint32_t k, uint32_t big_n, const GadgetParams &g);

    uint32_t k() const { return k_; }
    uint32_t ringDim() const { return big_n_; }
    const GadgetParams &gadget() const { return g_; }
    uint32_t rows() const { return static_cast<uint32_t>(rows_.size()); }

    /** Row r = block * levels + level; block i targets component i. */
    GlweCiphertext &row(size_t r) { return rows_[r]; }
    const GlweCiphertext &row(size_t r) const { return rows_[r]; }

  private:
    uint32_t k_ = 0;
    uint32_t big_n_ = 0;
    GadgetParams g_{0, 0};
    std::vector<GlweCiphertext> rows_;
};

/** Encrypt integer @p m (usually a key bit) as a GGSW ciphertext. */
GgswCiphertext ggswEncrypt(const GlweKey &key, int32_t m,
                           const GadgetParams &g, double stddev, Rng &rng);

/**
 * Seeded GGSW encryption: every mask polynomial is pure PRNG output
 * from a per-row fork of the stream rooted at @p mask_root (row
 * (block, level) uses stream id @p stream_base + block*levels +
 * level), so a holder of the root seed regenerates all masks and only
 * the k+1 body polynomials per GGSW need shipping (the BSK2 frame).
 *
 * The message is placed in *body form*: ggswEncrypt adds m*scale to
 * mask component `block`, which is fine when masks travel with the
 * ciphertext but leaks m outright once the mask is declared to be
 * public PRNG output (shipped-mask minus regenerated-PRNG = m*scale).
 * Here the masks stay untouched and the algebraically equivalent
 * -m*scale*z_block is folded into the body instead (for block == k the
 * message lands on the body either way). Both forms have identical
 * row phase E - m*scale*z_block, hence identical external-product
 * semantics and noise; only the ciphertext representation differs.
 */
GgswCiphertext ggswEncryptSeeded(const GlweKey &key, int32_t m,
                                 const GadgetParams &g, double stddev,
                                 const Rng &mask_root,
                                 uint64_t stream_base, Rng &noise_rng);

/**
 * External product: out = ggsw [*] glwe, computed exactly (Karatsuba).
 * Used as the reference against the FFT-domain path.
 */
void externalProduct(GlweCiphertext &out, const GgswCiphertext &ggsw,
                     const GlweCiphertext &glwe);

/**
 * Reusable working buffers for the FFT external-product path.
 *
 * One instance serves one thread: blind rotation reuses the same
 * buffers across all n CMux iterations, so the hot loop performs no
 * heap allocation, and the batched PBS path gives each pool worker
 * its own instance so no hidden shared state remains on the hot path.
 * Buffers are sized lazily on first use and resized only when the
 * parameter shape changes; results are bit-identical with or without
 * an external scratch.
 */
struct PbsScratch
{
    /**
     * One input's digit matrix: (k+1)*l rows of N coefficients,
     * decomposed component-major so row comp*l + level holds digit
     * `level` of GLWE component `comp` -- exactly the bsk row order.
     */
    std::vector<int32_t> digit_coeffs;
    /**
     * The sub-batch's digit spectra, the VMA input: slot j's (k+1)*l
     * spectra of N/2 points, each padded to a stride a little over
     * N/2 so that rows do not alias in L1. At most
     * GgswFft::chunkWidth() slots, so the buffer (with @ref columns)
     * stays in L2. Both buffers are used from their first 64-byte
     * boundary on, so every 4-point split block is one cache line.
     */
    std::vector<Cplx> spectra;
    /** The VMA output: slot j's k+1 product columns, same stride. */
    std::vector<Cplx> columns;
    std::vector<const Cplx *> key_rows; //!< VMA key: the GGSW's rows
    std::vector<size_t> slots;   //!< accumulator index of each slot
    std::vector<uint32_t> powers; //!< blind rotation: one bit's a~ per ct
    GlweCiphertext diff;         //!< CMux rotate-minus-one input
    GlweCiphertext prod;         //!< unrolled-PBS product / rotation
    GlweCiphertext sum;          //!< unrolled-PBS pair accumulator
    TorusPolynomial rot_tmp;     //!< unrolled-PBS rotation scratch
};

/**
 * GGSW with rows pre-transformed to the frequency domain; this is the
 * form in which Strix stores the bootstrapping key in the global
 * scratchpad (bsk polynomials arrive at the VMA unit already in the
 * Fourier domain).
 */
class GgswFft
{
  public:
    GgswFft() = default;

    /** Transform every polynomial of @p ggsw. */
    GgswFft(const GgswCiphertext &ggsw);

    /**
     * Rebuild from raw frequency rows (deserialization): @p rows is
     * the flat (k+1)*levels*(k+1) layout rawRows() exposes, each of
     * big_n/2 points in the FFT's internal spectral layout.
     * Shape-checked; panics on mismatch.
     */
    static GgswFft fromRawRows(uint32_t k, uint32_t big_n,
                               const GadgetParams &g,
                               std::vector<FreqPolynomial> rows);

    uint32_t k() const { return k_; }
    uint32_t ringDim() const { return big_n_; }
    const GadgetParams &gadget() const { return g_; }

    /**
     * Flat frequency-row storage, row-major over (row, column):
     * entry r*(k+1)+c is row(r, c), each in the FFT's internal
     * spectral layout (bit-reversed, split re/im blocks). Exposed for
     * serialization, which converts to natural order on the wire; the
     * doubles round-trip bit-exactly, so a shipped key evaluates
     * bit-identically to the original.
     */
    const std::vector<FreqPolynomial> &rawRows() const { return rows_; }

    /** Frequency image of row r, column c. */
    const FreqPolynomial &row(size_t r, size_t c) const
    {
        return rows_[r * (k_ + 1) + c];
    }

    /**
     * Ciphertexts per VMA call: the widest sub-batch whose digit
     * spectra and product columns ((k+1)*l + k+1 spectra of N/2
     * points each) fit a 512 KiB L2 budget. Derived from the shape
     * alone: 10 at paper set I, 1 only when a single ciphertext's
     * buffers exceed the budget.
     */
    size_t chunkWidth() const;

    /**
     * Key-stationary CMux over a chunk, the software VMA of Strix's
     * core-level batching:
     *   accs[c] <- accs[c] + ggsw [*] (X^powers[c] * accs[c] - accs[c])
     * for every c < @p count with powers[c] != 0 (a zero power rotates
     * by X^0 - 1 = 0 and leaves its accumulator untouched).
     *
     * Dataflow, per sub-batch of up to chunkWidth() active
     * accumulators: rotate-minus-one (Rotator), decompose (Decomposer)
     * and forward-transform (FFT) each one into its slot of the
     * digit-spectra buffer; then one vmaBlocked call (VMA) multiplies
     * the whole sub-batch against this GGSW, loading each key element
     * once; then inverse-transform each product column straight into
     * its accumulator (IFFT + accumulate, one kernel call per column).
     * Spectra stay in the FFT's internal layout throughout: the bsk
     * rows were produced by the same forward transform, and the
     * product is pointwise.
     *
     * Every result is bit-identical to a width-1 call on the same
     * accumulator: vmaBlocked's fixed summation order makes an output
     * independent of the chunk around it. All working storage comes
     * from @p scratch; the hot path allocates nothing once it is
     * sized. Panics when an active accumulator's shape differs from
     * the GGSW's.
     */
    void cmuxRotateBatch(GlweCiphertext *accs, const uint32_t *powers,
                         size_t count, PbsScratch &scratch) const;

    /**
     * Fused CMux used by blind rotation (Algorithm 1, lines 6-11):
     *   acc <- acc + ggsw [*] (X^power * acc - acc),
     * selecting between acc and its rotation with one external
     * product. The width-1 case of cmuxRotateBatch.
     */
    void cmuxRotate(GlweCiphertext &acc, uint32_t power,
                    PbsScratch &scratch) const;

    /** Convenience overload with a throwaway local scratch. */
    void cmuxRotate(GlweCiphertext &acc, uint32_t power) const;

    /**
     * External product out = ggsw [*] glwe with frequency-domain
     * accumulation: the width-1 pipeline of cmuxRotateBatch without
     * the rotation (decompose -> FFT -> one vmaBlocked call -> IFFT
     * straight into @p out).
     */
    void externalProduct(GlweCiphertext &out, const GlweCiphertext &glwe,
                         PbsScratch &scratch) const;

    /** Convenience overload with a throwaway local scratch. */
    void externalProduct(GlweCiphertext &out,
                         const GlweCiphertext &glwe) const;

    /**
     * Same as externalProduct (a one-line forward). Kept for the
     * strixbench layer replay, which times it under its own span name.
     */
    void externalProductPerPoly(GlweCiphertext &out,
                                const GlweCiphertext &glwe,
                                PbsScratch &scratch) const;

    /**
     * Points between consecutive spectra in PbsScratch::spectra and
     * PbsScratch::columns: N/2 plus a little padding, so that the same
     * point of consecutive spectra does not share an L1 set. The
     * stride vmaBlocked is called with.
     */
    size_t stride() const;

  private:
    /** Size @p scratch's buffers for at least @p slots slots. */
    void prepare(PbsScratch &scratch, size_t slots) const;

    /**
     * Decomposer + FFT: write the (k+1)*l digit spectra of @p in to
     * @p spectra (scratch.spectra at some slot).
     */
    void forwardDigits(Cplx *spectra, const GlweCiphertext &in,
                       PbsScratch &scratch) const;

    /** VMA: scratch.columns <- the first @p count slots [*] this GGSW. */
    void vma(PbsScratch &scratch, size_t count) const;

    uint32_t k_ = 0;
    uint32_t big_n_ = 0;
    GadgetParams g_{0, 0};
    std::vector<FreqPolynomial> rows_;
};

} // namespace strix

#endif // STRIX_TFHE_GGSW_H
