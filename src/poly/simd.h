/**
 * @file
 * Runtime-dispatched kernel tables for the hot transform loops.
 *
 * Every cycle of a software PBS+KS is spent in four loops: the
 * negacyclic forward transform of each digit row (fold, twist and
 * FFT in one kernel), the inverse transform of each product column
 * straight into its accumulator (IFFT, scale, untwist, round and add
 * in one kernel), the frequency-domain multiply-accumulate of the
 * external product (vmaBlocked, one call per GGSW per chunk of
 * ciphertexts), and the keyswitch's integer row update (subScaledRow,
 * one call per KSK row per chunk). This header exposes those loops as
 * a table of C function pointers so that one CPUID check at startup
 * -- not an #ifdef at build time -- decides whether the AVX2+FMA
 * implementations or the portable scalar reference runs.
 *
 * Dispatch contract:
 *  - scalarKernels() is always available and is the semantic
 *    reference (the test oracle). The vector backends must match it
 *    to floating-point rounding, except vmaBlocked, which fixes one
 *    fused-multiply-add summation order and must match exactly
 *    (tests/test_fft.cpp cross-checks every table entry over every
 *    plan size the parameter sets use).
 *  - avx2Kernels() returns nullptr unless the binary was built with
 *    STRIX_SIMD=ON *and* the running CPU reports AVX2 and FMA.
 *  - activeKernels() picks the best available table once (latched on
 *    first call); setting the environment variable STRIX_FORCE_SCALAR
 *    to anything but "0"/"" before first use forces the scalar table,
 *    which is how the benchmarks A/B the two paths in one binary.
 *
 * Spectral layout (the one frequency-domain layout in the library):
 * an m-point spectrum is m points in the FFT's bit-reversed order --
 * the forward transform leaves its output there and the inverse
 * consumes it, so no permutation pass runs on the PBS path -- stored
 * as split blocks of B = min(4, m) points: B real parts, then the B
 * imaginary parts of the same points. Point p of the internal order
 * therefore sits at double offset 2*B*(p/B) + p%B (real) and B more
 * (imaginary) of the buffer, which callers still hold as m Cplx
 * slots. Every backend uses this layout for its transforms' in-place
 * intermediates too, so a complex multiply is four FMA-unit
 * operations on whole registers and no shuffle. Only the kernels read
 * a spectrum point by point; everything else either treats it as
 * opaque doubles (copies, elementwise sums, the wire's byte staging)
 * or goes through FftPlan::reSlot()/imSlot().
 *
 * Adding a backend (NEON, AVX-512) means adding one translation unit
 * defining another PolyKernels table plus a probe in simd.cpp --
 * nothing above src/poly changes. An AVX-512 radix-4 prototype
 * measured 1.7 us against AVX2's 1.9 us per 512-point transform, too
 * small a gain to carry a third backend.
 */

#ifndef STRIX_POLY_SIMD_H
#define STRIX_POLY_SIMD_H

#include <cstddef>
#include <cstdint>

#include "poly/complex_fft.h"

namespace strix {

/**
 * Borrowed view of one FftPlan's precomputed tables, laid out for
 * vector-friendly access. Every table is a sequence of split blocks
 * of 4 points -- 4 real parts, then 4 imaginary parts -- zero-padded
 * to a whole block when it has fewer than 4 points, so entry j of a
 * table sits at double offset 8*(j/4) + j%4 (real) and 4 more
 * (imaginary).
 */
struct FftTables
{
    size_t m; //!< transform size (power of two >= 2)
    /**
     * Pass-major radix-4 twiddles. The forward transform runs its
     * radix-4 passes over block lengths L = m, m/4, ... down to 8 or
     * 4; pass L (q = L/4) owns three blocked tables of q entries:
     * w^j, then w^{2j}, then w^{3j} for j in [0, q),
     * w = exp(+2*pi*i/L), each 2*max(q, 4) doubles long. The inverse
     * walks the same passes in reverse order from the end of the
     * table. Contiguous per-pass streams are what let the vector
     * butterflies load twiddles with plain loads instead of gathers.
     */
    const double *twiddles;
    /** Doubles in @ref twiddles (0 for m = 2: no radix-4 pass). */
    size_t twiddle_doubles;
    /**
     * The negacyclic twist exp(i*pi*j/(2m)) for j in [0, m), blocked
     * like the twiddles: the fold of a length-2m real polynomial is
     * multiplied by it entering the transform, and by its conjugate
     * leaving it.
     */
    const double *twist;
    /**
     * log2(m) is odd: the forward transform ends, and the inverse
     * starts, with a radix-2 pass over adjacent pairs.
     */
    bool radix2_tail;
};

/**
 * One backend's implementations of the transform hot loops. All
 * pointers are non-null in a published table.
 */
struct PolyKernels
{
    const char *name; //!< "scalar", "avx2", ... (stable, test-visible)

    /**
     * Negacyclic forward transform of one length-2m real polynomial:
     * @p coeffs holds 2m signed (centered-lift) coefficients, @p out
     * receives m spectrum points in the split layout (file comment).
     * Folds u_j = coeffs[j] + i*coeffs[j+m], twists by
     * exp(i*pi*j/(2m)), then runs the forward FFT (positive exponent,
     * decimation in frequency: radix-4 passes plus a radix-2 tail
     * when log2(m) is odd), so X_t = sum_j u_j*twist_j*exp(2*pi*i*jt/m)
     * lands at internal position bit_reverse(t). The vector backend
     * reads the integers inside its first radix-4 pass.
     */
    void (*negacyclicForward)(const FftTables &t, Cplx *out,
                              const int32_t *coeffs);

    /**
     * Negacyclic inverse transform added onto an accumulator: runs
     * the inverse FFT of @p spectrum (decimation in time, the exact
     * mirror of the forward), scales by 1/m (an exact power-of-two
     * multiply), untwists, u_j = x_j * conj(twist_j), and adds
     * round(u_j.re) mod 2^32 to acc[j] and round(u_j.im) mod 2^32 to
     * acc[j+m]. @p spectrum is clobbered (it carries the transform's
     * intermediate values); the vector backend does the scale,
     * untwist, round and add inside its last radix-4 pass.
     *
     * Contract: |u| < 2^51 for every element. That is the validity
     * bound of the vector backends' magic-number rounding, and every
     * shipped parameter set stays below ~2^50 (inner products of N
     * decomposed coefficients: N * Bg/2 * 2^31). Backends may differ
     * on exact-.5 ties (round-half-even vs half-away), a one-ulp
     * slack the tests allow.
     */
    void (*negacyclicInverseAdd)(const FftTables &t, uint32_t *acc,
                                 Cplx *spectrum);

    /**
     * Blocked vector multiply-accumulate (the VMA unit) of one GGSW
     * against a chunk of @p count ciphertexts, in one pass over
     * frequency blocks:
     *
     *   out[(b*cols + c)*stride + i] =
     *       sum_{r < rows} digits[(b*rows + r)*stride + i] * key[r*cols + c][i]
     *
     * for every ciphertext b < count, column c < cols and point
     * i < m (a power of two >= 2), all in the split layout. @p digits
     * holds each ciphertext's rows = (k+1)*l digit spectra, @p out its
     * cols = k+1 product columns, consecutive spectra @p stride >= m
     * points apart (a multiple of min(4, m), so every spectrum starts
     * on a block; the caller pads so that they do not alias in L1
     * sets); @p key points at the GGSW's rows*cols frequency rows.
     * @p out is overwritten, not accumulated. Each key block is
     * loaded once per ciphertext from L1, and each output is written
     * once.
     *
     * Summation order (the bit-exactness contract): with a the digit
     * point and w the key point, every output element is
     *   p = sum_r fma(a, w.re)            p = (a.re*w.re, a.im*w.re)
     *   s = sum_r fma(swap(a), w.im)      s = (a.im*w.im, a.re*w.im)
     *   out = (p.re - s.re, p.im + s.im)
     * with both sums running r = 0, 1, ... from +0.0 through fused
     * multiply-adds. Every backend follows it exactly, so backends
     * agree bit for bit (no ulp slack), and an output depends only on
     * its own ciphertext's digits -- never on @p count or on its
     * place in the chunk.
     */
    void (*vmaBlocked)(Cplx *out, const Cplx *digits,
                       const Cplx *const *key, size_t rows, size_t cols,
                       size_t count, size_t m, size_t stride);

    /**
     * The keyswitch's row update over a chunk, integer mod 2^32: for
     * every b < count whose digit d = digits[b * digit_stride] is
     * nonzero, outs[b][x] -= d * row[x] for x < width. One key row
     * serves the whole chunk while it is L1-resident. Exact
     * arithmetic, so every backend agrees word for word.
     */
    void (*subScaledRow)(uint32_t *const *outs, const int32_t *digits,
                         size_t digit_stride, size_t count,
                         const uint32_t *row, size_t width);
};

/** Portable reference table; always built, never null. */
const PolyKernels &scalarKernels();

/**
 * AVX2+FMA table, or nullptr when the build disabled STRIX_SIMD, the
 * compiler cannot target AVX2, or the running CPU lacks AVX2/FMA.
 */
const PolyKernels *avx2Kernels();

/** CPUID probe: does this machine support AVX2 and FMA? */
bool cpuSupportsAvx2Fma();

/** True when STRIX_FORCE_SCALAR is set (non-empty, not "0"). */
bool simdForcedScalar();

/**
 * The table every FftPlan/NegacyclicFft call uses by default.
 * Selected once on first use: scalar if forced or nothing better
 * probes, otherwise the best vector backend. Thread-safe (magic
 * static).
 */
const PolyKernels &activeKernels();

// NOTE for backend authors: keep helpers file-local to each backend
// TU rather than sharing header inlines here. A header-inline function
// compiled into the AVX2 TU would be emitted under -mavx2, and the
// linker may keep that VEX-encoded comdat copy for *all* TUs --
// leaking AVX instructions into the scalar path on machines the
// dispatch is meant to protect.

} // namespace strix

#endif // STRIX_POLY_SIMD_H
