/**
 * @file
 * Runtime-dispatched kernel tables for the hot transform loops.
 *
 * Every cycle of a software PBS is spent in four loops: the FFT
 * butterfly stages, the fold+twist feeding the negacyclic transform,
 * the untwist+round leaving it, and the frequency-domain
 * multiply-accumulate of the external product. This header exposes
 * those loops as a table of C function pointers so that one CPUID
 * check at startup -- not an #ifdef at build time -- decides whether
 * the AVX2+FMA implementations or the portable scalar reference runs.
 *
 * Dispatch contract:
 *  - scalarKernels() is always available and is the semantic
 *    reference; the vector backends must match it to floating-point
 *    rounding (tests/test_fft.cpp cross-checks every table entry over
 *    every plan size the parameter sets use).
 *  - avx2Kernels() returns nullptr unless the binary was built with
 *    STRIX_SIMD=ON *and* the running CPU reports AVX2 and FMA.
 *  - activeKernels() picks the best available table once (latched on
 *    first call); setting the environment variable STRIX_FORCE_SCALAR
 *    to anything but "0"/"" before first use forces the scalar table,
 *    which is how the benchmarks A/B the two paths in one binary.
 *
 *
 * Frequency order: the forward transform leaves its output in
 * bit-reversed order and the inverse consumes that order, so no
 * permutation pass runs on the PBS path. Every backend must produce
 * the same order; only pointwise code (mulAccumulate) and the inverse
 * ever read a spectrum, and serialization converts to natural order
 * at the wire (tfhe/serialize.cpp).
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
 * vector-friendly access.
 */
struct FftTables
{
    size_t m; //!< transform size (power of two >= 2)
    /**
     * Pass-major radix-4 twiddles. The forward transform runs its
     * radix-4 passes over block lengths L = m, m/4, ... down to 8 or
     * 4; pass L (q = L/4) owns 3q contiguous entries: w^j, then
     * w^{2j}, then w^{3j} for j in [0, q), w = exp(+2*pi*i/L). The
     * inverse walks the same passes in reverse order from the end of
     * the table. Contiguous per-pass streams are what let the vector
     * butterflies load twiddles with plain unaligned loads instead of
     * gathers.
     */
    const Cplx *twiddles;
    /**
     * Entries in @ref twiddles: m - 1 when log2(m) is even, m - 2 when
     * it is odd (m = 2 has no radix-4 pass and no entries).
     */
    size_t twiddle_count;
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
     * In-place forward FFT (positive exponent), decimation in
     * frequency: radix-4 passes plus a radix-2 tail when log2(m) is
     * odd. Input is in natural order; output is in bit-reversed
     * order, X_k at index bit_reverse[k] (FftPlan::bitReverse()). No
     * permutation pass runs.
     */
    void (*fftForward)(const FftTables &t, Cplx *data);

    /**
     * In-place inverse FFT (negative exponent), scaled by 1/m,
     * decimation in time: the exact mirror of fftForward. Input is
     * in bit-reversed order (fftForward's output order); output is
     * in natural order.
     */
    void (*fftInverse)(const FftTables &t, Cplx *data);

    /**
     * Fold+twist entering the negacyclic transform:
     * out[j] = (lo[j] + i*hi[j]) * tw[j] for j in [0, m). lo/hi are
     * the low/high halves of the length-2m coefficient array (signed
     * centered lift for torus inputs).
     */
    void (*twist)(Cplx *out, const int32_t *lo, const int32_t *hi,
                  const Cplx *tw, size_t m);

    /**
     * Untwist+round leaving the negacyclic transform: for
     * u = freq[j] * conj(tw[j]), store round(u.re) mod 2^32 into
     * lo[j] and round(u.im) mod 2^32 into hi[j].
     *
     * Contract: |u| < 2^51 for every element. That is the validity
     * bound of the vector backends' magic-number rounding, and every
     * shipped parameter set stays below ~2^50 (inner products of N
     * decomposed coefficients: N * Bg/2 * 2^31). Backends may differ
     * on exact-.5 ties (round-half-even vs half-away), a one-ulp
     * slack the tests allow.
     */
    void (*untwist)(uint32_t *lo, uint32_t *hi, const Cplx *freq,
                    const Cplx *tw, size_t m);

    /** out[i] += a[i] * b[i] for i in [0, m). */
    void (*mulAccumulate)(Cplx *out, const Cplx *a, const Cplx *b,
                          size_t m);
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
