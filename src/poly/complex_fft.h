/**
 * @file
 * Permutation-free radix-4 complex FFT with a precomputed plan.
 *
 * This mirrors the structure of the hardware pipelined FFT in the
 * paper (Fig. 5): butterfly stages with twiddle ROMs, run here as
 * log2(M)/2 radix-4 passes (plus one radix-2 pass when log2(M) is
 * odd). Like a streaming hardware FFT, it never reorders its data:
 * the forward transform is decimation in frequency and leaves the
 * spectrum in bit-reversed order, and the inverse is decimation in
 * time and consumes that order. The frequency domain is used only
 * pointwise, so the order never has to be undone on the PBS path.
 * Plans are cached per size.
 *
 * The butterfly loops themselves live behind the runtime-dispatched
 * kernel table in poly/simd.h: a plan holds only the precomputed
 * tables (pass-major twiddles, plus the bit-reversal permutation for
 * code that needs natural spectral order), and forward()/inverse()
 * run whichever backend activeKernels() selected at startup (AVX2+FMA
 * where available, scalar otherwise or under STRIX_FORCE_SCALAR=1).
 * The kernel-explicit overloads let tests and benchmarks run both
 * backends side by side in one process.
 */

#ifndef STRIX_POLY_COMPLEX_FFT_H
#define STRIX_POLY_COMPLEX_FFT_H

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace strix {

using Cplx = std::complex<double>;

struct FftTables;
struct PolyKernels;

/**
 * Largest log2 size the process-wide plan caches accept. 2^32 points
 * is far beyond any realistic ring dimension and matches the 32-bit
 * permutation indices a plan stores; the bound also sizes the fixed
 * slot arrays backing the lock-free caches.
 */
inline constexpr size_t kMaxFftLog2 = 32;

/**
 * FFT plan for a fixed power-of-two size M: per-pass twiddle factors
 * and the bit-reversal permutation describing the output order.
 */
class FftPlan
{
  public:
    /** Build a plan for size @p m (power of two, >= 2). */
    explicit FftPlan(size_t m);

    size_t size() const { return m_; }

    /**
     * In-place forward transform with positive exponent convention:
     * X_k = sum_j x_j * exp(+2*pi*i*j*k / M). Input in natural order;
     * output in bit-reversed order: X_k lands at index
     * bitReverse()[k]. Runs the dispatched (activeKernels) backend.
     */
    void forward(Cplx *data) const;

    /**
     * In-place inverse transform (negative exponent), scaled by 1/M:
     * x_j = (1/M) sum_k X_k * exp(-2*pi*i*j*k / M). Input in
     * forward()'s bit-reversed order; output in natural order, so
     * inverse(forward(x)) == x with no permutation anywhere.
     */
    void inverse(Cplx *data) const;

    /** forward() through an explicit kernel table (A/B testing). */
    void forward(Cplx *data, const PolyKernels &kernels) const;

    /** inverse() through an explicit kernel table (A/B testing). */
    void inverse(Cplx *data, const PolyKernels &kernels) const;

    /** Borrowed view of the precomputed tables for kernel calls. */
    FftTables tables() const;

    /**
     * The bit-reversal permutation of log2(M) bits (an involution):
     * forward() leaves X_k at index bitReverse()[k]. Only code that
     * needs natural spectral order (the wire format, tests) reads it.
     */
    const std::vector<uint32_t> &bitReverse() const { return bit_reverse_; }

    /**
     * Obtain a cached plan for size @p m. Thread-safe: the first call
     * for a size builds and publishes the plan under a lock; every
     * later call is a single lock-free acquire load. Returned
     * references stay valid for the process lifetime.
     */
    static const FftPlan &get(size_t m);

    /**
     * Build and publish the plan for size @p m ahead of time so that
     * subsequent get() calls -- including concurrent ones on the PBS
     * hot path -- never take the construction lock.
     */
    static void prewarm(size_t m);

  private:
    size_t m_;
    std::vector<uint32_t> bit_reverse_;
    /** Pass-major radix-4 twiddles; see FftTables::twiddles. */
    std::vector<Cplx> twiddles_;
    bool radix2_tail_ = false; //!< log2(M) odd; see FftTables
};

} // namespace strix

#endif // STRIX_POLY_COMPLEX_FFT_H
