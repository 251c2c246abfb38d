/**
 * @file
 * Precomputed plan of the permutation-free radix-4 FFT inside the
 * negacyclic transform.
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
 * A plan holds only tables: the pass-major twiddles and the
 * negacyclic twist the dispatched kernels (poly/simd.h) read, and the
 * map from natural spectral point to storage slot (reSlot/imSlot),
 * the one place outside the kernels that knows the spectral layout.
 * The butterflies run fused with the fold/twist and untwist/round
 * edges of NegacyclicFft, which is the transform's only interface.
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

/**
 * Largest log2 size the process-wide plan caches accept: far beyond
 * any realistic ring dimension, and the size of the fixed slot arrays
 * backing the lock-free caches. (An FftPlan itself stops at 2^31
 * points, where its 32-bit storage offsets end.)
 */
inline constexpr size_t kMaxFftLog2 = 32;

/**
 * FFT plan for a fixed power-of-two size M: per-pass twiddle factors,
 * the negacyclic twist, and where each spectral point is stored.
 */
class FftPlan
{
  public:
    /** Build a plan for size @p m (power of two, >= 2). */
    explicit FftPlan(size_t m);

    size_t size() const { return m_; }

    /** Borrowed view of the precomputed tables for kernel calls. */
    FftTables tables() const;

    /**
     * Storage of natural spectral point @p t (t < M) of an M-point
     * spectrum: its real part is double reSlot(t) and its imaginary
     * part double imSlot(t) of the buffer viewed as 2*M doubles.
     * Point t is X_t = sum_j x_j exp(+2*pi*i*j*t/M) of the FFT input
     * x; for a NegacyclicFft spectrum of ring dimension N = 2M it is
     * the polynomial's evaluation at exp(i*pi*(4t+1)/N). The map
     * folds the bit-reversed point order and the split re/im blocks
     * (poly/simd.h) into one lookup; only code that must see natural
     * points (the wire format, tests) calls it.
     */
    size_t reSlot(size_t t) const { return re_slot_[t]; }
    size_t imSlot(size_t t) const { return re_slot_[t] + block_; }

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
    size_t block_; //!< points per split block: min(4, M)
    /** reSlot() of every natural point t. */
    std::vector<uint32_t> re_slot_;
    /** Pass-major radix-4 twiddles; see FftTables::twiddles. */
    std::vector<double> twiddles_;
    /** exp(i*pi*j/(2M)), j < M; see FftTables::twist. */
    std::vector<double> twist_;
    bool radix2_tail_ = false; //!< log2(M) odd; see FftTables
};

} // namespace strix

#endif // STRIX_POLY_COMPLEX_FFT_H
