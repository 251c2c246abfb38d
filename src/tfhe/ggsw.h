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
     * Contiguous digit matrix of the external product: (k+1)*l rows
     * of N coefficients, decomposed component-major so row
     * comp*l + level holds digit `level` of GLWE component `comp` --
     * exactly the bsk row order.
     */
    std::vector<int32_t> digit_coeffs;
    FreqPolynomial fdigit;              //!< current digit row's spectrum
    std::vector<FreqPolynomial> acc;    //!< per-column freq accumulators
    GlweCiphertext diff;                //!< CMux rotate-minus-one input
    GlweCiphertext prod;                //!< external-product output
    GlweCiphertext sum;                 //!< unrolled-PBS pair accumulator
    TorusPolynomial rot_tmp;            //!< unrolled-PBS rotation scratch
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
     * big_n/2 points in the FFT's internal (bit-reversed) order.
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
     * (bit-reversed) order. Exposed for serialization, which converts
     * to natural order on the wire; the doubles round-trip
     * bit-exactly, so a shipped key evaluates bit-identically to the
     * original.
     */
    const std::vector<FreqPolynomial> &rawRows() const { return rows_; }

    /** Frequency image of row r, column c. */
    const FreqPolynomial &row(size_t r, size_t c) const
    {
        return rows_[r * (k_ + 1) + c];
    }

    /**
     * External product with frequency-domain accumulation:
     * decompose -> FFT -> multiply-accumulate -> IFFT, exactly the
     * PBS-cluster dataflow (Rotator output -> Decomposer -> FFT ->
     * VMA -> IFFT -> Accumulator). All working storage comes from
     * @p scratch (one instance per thread); the hot path allocates
     * nothing once the scratch is sized.
     *
     * Digit rows stream one at a time through the forward FFT into
     * the multiply-accumulate, and each accumulator column is inverse
     * transformed in place. Spectra stay in the FFT's internal
     * bit-reversed order throughout: the bsk rows were produced by
     * the same forward transform, and the product is pointwise.
     */
    void externalProduct(GlweCiphertext &out, const GlweCiphertext &glwe,
                         PbsScratch &scratch) const;

    /** Convenience overload with a throwaway local scratch. */
    void externalProduct(GlweCiphertext &out,
                         const GlweCiphertext &glwe) const;

    /**
     * Same as externalProduct (a one-line forward), which already
     * transforms one digit row at a time. Kept for the strixbench
     * layer replay, which times it under its own span name.
     */
    void externalProductPerPoly(GlweCiphertext &out,
                                const GlweCiphertext &glwe,
                                PbsScratch &scratch) const;

    /**
     * Fused CMux used by blind rotation:
     *   acc <- acc + ggsw [*] (X^power * acc - acc),
     * selecting between acc and its rotation with one external
     * product (Algorithm 1, lines 6-11).
     */
    void cmuxRotate(GlweCiphertext &acc, uint32_t power,
                    PbsScratch &scratch) const;

    /** Convenience overload with a throwaway local scratch. */
    void cmuxRotate(GlweCiphertext &acc, uint32_t power) const;

  private:
    uint32_t k_ = 0;
    uint32_t big_n_ = 0;
    GadgetParams g_{0, 0};
    std::vector<FreqPolynomial> rows_;
};

} // namespace strix

#endif // STRIX_TFHE_GGSW_H
