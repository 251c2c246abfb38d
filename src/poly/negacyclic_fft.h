/**
 * @file
 * Negacyclic FFT with the paper's folding scheme (Sec. V-A).
 *
 * Polynomial multiplication in Z[X]/(X^N+1) amounts to evaluating both
 * polynomials at the odd 2N-th roots of unity. Because inputs are
 * real, only N/2 evaluation points are independent. The *folding
 * scheme* packs coefficient j and j+N/2 into one complex number,
 * twists by exp(i*pi*j/N), and runs an N/2-point complex FFT -- an
 * N-point negacyclic transform on half-size hardware, exactly the
 * optimization Table VI ablates (2x throughput, 1.7x FFT area).
 *
 * Derivation: with w = exp(i*pi/N), A_k = sum_j a_j w^{(2k+1)j}; for
 * even k = 2t and u_j = a_j + i*a_{j+N/2},
 *     A_{2t} = sum_{j<N/2} (u_j w^j) exp(+2*pi*i*t*j/(N/2)),
 * while odd-indexed values follow by conjugate symmetry, so the even
 * half determines the whole transform of a real polynomial.
 *
 * Frequency order: the N/2 points of a FreqPolynomial are in the
 * complex FFT's bit-reversed output order -- A_{2t} sits at position
 * bit_reverse[t] of the N/2-point plan -- stored as split blocks of 4
 * points (4 real parts, then 4 imaginary parts; 2 and 2 at N = 4), so
 * the N/2 Cplx slots of the vector are storage, not points. The
 * layout is internal: products and sums are pointwise, the inverse
 * consumes it directly, and bootstrapping-key rows come from the
 * same forward(). FftPlan::reSlot()/imSlot() map natural point t to
 * its storage; only the wire format (tfhe/serialize.cpp) and tests
 * use them.
 */

#ifndef STRIX_POLY_NEGACYCLIC_FFT_H
#define STRIX_POLY_NEGACYCLIC_FFT_H

#include <vector>

#include "poly/complex_fft.h"
#include "poly/polynomial.h"

namespace strix {

struct PolyKernels;

/**
 * Frequency-domain image of a length-N real polynomial: N/2 points in
 * bit-reversed order, split re/im blocks (see the file comment).
 */
using FreqPolynomial = std::vector<Cplx>;

/**
 * Folded negacyclic transform engine for a fixed ring dimension N.
 */
class NegacyclicFft
{
  public:
    /** @param n ring dimension N (power of two, >= 4). */
    explicit NegacyclicFft(size_t n);

    size_t ringDim() const { return n_; }

    /** Forward transform of an integer polynomial. */
    void forward(FreqPolynomial &out, const IntPolynomial &poly) const;

    /** Forward transform of a torus polynomial (centered lift). */
    void forward(FreqPolynomial &out, const TorusPolynomial &poly) const;

    /**
     * Forward transform of one raw row: @p coeffs holds N signed
     * (centered-lift) coefficients, @p out receives N/2 points.
     * Allocates nothing; the external product streams its digit rows
     * through this.
     */
    void forward(Cplx *out, const int32_t *coeffs,
                 const PolyKernels &kernels) const;

    /**
     * Inverse transform onto the Torus32 grid (round and wrap
     * mod 2^32). Copies @p freq into a temporary first; hot loops use
     * inverseAdd() below.
     */
    void inverse(TorusPolynomial &out, const FreqPolynomial &freq) const;

    /**
     * In-place inverse over a caller-owned buffer: @p work holds N/2
     * frequency points on entry and is clobbered (it carries the
     * transform's intermediate values). Allocates nothing; the same
     * kernel as inverseAdd() onto a zeroed @p out.
     */
    void inverse(TorusPolynomial &out, Cplx *work,
                 const PolyKernels &kernels) const;

    /**
     * acc += inverse(work), onto the Torus32 grid: the IFFT, scale,
     * untwist, round and mod-2^32 add in one kernel call, with no
     * intermediate polynomial. @p acc holds N coefficients, @p work
     * N/2 frequency points and is clobbered. The CMux inverse-adds
     * every product column straight into its accumulator through
     * this.
     */
    void inverseAdd(Torus32 *acc, Cplx *work,
                    const PolyKernels &kernels) const;

    /**
     * Forward transform of @p batch contiguous length-N coefficient
     * rows: row b of @p coeffs is the N signed (centered-lift)
     * coefficients of one polynomial, row b of @p out its N/2
     * frequency points. A row loop over forward(), so bit-identical
     * to it: a fused sweep over the batch earns a second code path
     * only by beating per-row transforms by >= 10% on the external
     * product.
     */
    void forwardBatch(Cplx *out, const int32_t *coeffs, size_t batch) const;

    /**
     * out_k += a_k * b_k (frequency-domain multiply-accumulate): the
     * product is one vmaBlocked call (rows = cols = 1, so the VMA's
     * summation order), added elementwise -- which no layout can
     * change. An empty @p out is auto-sized (zero-initialized); a
     * non-empty accumulator of the wrong size panics instead of being
     * silently reinitialized, so shape bugs in callers surface
     * immediately.
     */
    static void mulAccumulate(FreqPolynomial &out, const FreqPolynomial &a,
                              const FreqPolynomial &b);

    /**
     * Kernel-explicit overloads of the transforms above, used by the
     * scalar-vs-vector cross-check tests and the A/B benchmarks. The
     * default overloads run activeKernels().
     */
    void forward(FreqPolynomial &out, const IntPolynomial &poly,
                 const PolyKernels &kernels) const;
    void forward(FreqPolynomial &out, const TorusPolynomial &poly,
                 const PolyKernels &kernels) const;
    void forwardBatch(Cplx *out, const int32_t *coeffs, size_t batch,
                      const PolyKernels &kernels) const;
    void inverse(TorusPolynomial &out, const FreqPolynomial &freq,
                 const PolyKernels &kernels) const;
    static void mulAccumulate(FreqPolynomial &out, const FreqPolynomial &a,
                              const FreqPolynomial &b,
                              const PolyKernels &kernels);

    /**
     * Obtain a cached engine for ring dimension @p n. Thread-safe:
     * first touch builds under a lock, steady-state lookups are a
     * single lock-free acquire load; references never dangle.
     */
    static const NegacyclicFft &get(size_t n);

    /**
     * Build and publish the engine for ring dimension @p n (and its
     * underlying N/2-point FftPlan) ahead of time, so later get()
     * calls on the PBS hot path never take the construction lock.
     */
    static void prewarm(size_t n);

  private:
    void forwardImpl(FreqPolynomial &out, const int32_t *coeffs,
                     size_t size, const PolyKernels &kernels) const;

    size_t n_;
    const FftPlan &plan_; //!< N/2-point complex FFT and the twist
};

/** result = a * b mod (X^N+1) via the folded FFT. */
void negacyclicMulFft(TorusPolynomial &result, const IntPolynomial &a,
                      const TorusPolynomial &b);

/** result += a * b mod (X^N+1) via the folded FFT. */
void negacyclicMulAddFft(TorusPolynomial &result, const IntPolynomial &a,
                         const TorusPolynomial &b);

} // namespace strix

#endif // STRIX_POLY_NEGACYCLIC_FFT_H
