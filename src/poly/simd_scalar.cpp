/**
 * @file
 * Portable scalar kernel table: the semantic reference every vector
 * backend is cross-checked against.
 *
 * The forward FFT is decimation in frequency: radix-4 passes over
 * block lengths L = m, m/4, ..., then one radix-2 pass over adjacent
 * pairs when log2(m) is odd. Natural-order input, bit-reversed output.
 * The inverse is decimation in time and runs the same passes mirrored,
 * so it takes bit-reversed input back to natural order. One radix-4
 * pass equals two radix-2 stages with 3 instead of 4 twiddle
 * multiplies per 4 points and half the sweeps over the data.
 */

#include <cmath>

#include "poly/simd.h"

namespace strix {
namespace {

// Explicit complex helpers: std::complex's operator* carries a NaN
// recovery branch (Annex G) that the transform never needs.
inline Cplx
mul(Cplx a, Cplx b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

inline Cplx
mulConj(Cplx a, Cplx b)
{
    return {a.real() * b.real() + a.imag() * b.imag(),
            a.imag() * b.real() - a.real() * b.imag()};
}

/** i * a */
inline Cplx
mulI(Cplx a)
{
    return {-a.imag(), a.real()};
}

/** -i * a */
inline Cplx
mulMinusI(Cplx a)
{
    return {a.imag(), -a.real()};
}

/** Radix-2 butterfly over adjacent pairs (twiddle 1). */
void
radix2Pairs(Cplx *data, size_t m)
{
    for (size_t i = 0; i < m; i += 2) {
        const Cplx u = data[i], v = data[i + 1];
        data[i] = u + v;
        data[i + 1] = u - v;
    }
}

void
fftForwardScalar(const FftTables &t, Cplx *data)
{
    const Cplx *tw = t.twiddles;
    size_t len = t.m;
    for (; len >= 4; len >>= 2) {
        const size_t q = len >> 2;
        const Cplx *w1 = tw, *w2 = tw + q, *w3 = tw + 2 * q;
        for (size_t base = 0; base < t.m; base += len) {
            Cplx *x = data + base;
            for (size_t j = 0; j < q; ++j) {
                const Cplx a0 = x[j], a1 = x[j + q];
                const Cplx a2 = x[j + 2 * q], a3 = x[j + 3 * q];
                const Cplx t0 = a0 + a2, t1 = a0 - a2;
                const Cplx t2 = a1 + a3, t3 = mulI(a1 - a3);
                x[j] = t0 + t2;
                x[j + q] = mul(t0 - t2, w2[j]);
                x[j + 2 * q] = mul(t1 + t3, w1[j]);
                x[j + 3 * q] = mul(t1 - t3, w3[j]);
            }
        }
        tw += 3 * q;
    }
    if (len == 2)
        radix2Pairs(data, t.m);
}

void
fftInverseScalar(const FftTables &t, Cplx *data)
{
    size_t len = 4;
    if (t.radix2_tail) {
        radix2Pairs(data, t.m);
        len = 8;
    }
    // Passes run smallest block first: walk the forward transform's
    // largest-first table backwards from its end.
    const Cplx *tw = t.twiddles + t.twiddle_count;
    for (; len <= t.m; len <<= 2) {
        const size_t q = len >> 2;
        tw -= 3 * q;
        const Cplx *w1 = tw, *w2 = tw + q, *w3 = tw + 2 * q;
        for (size_t base = 0; base < t.m; base += len) {
            Cplx *x = data + base;
            for (size_t j = 0; j < q; ++j) {
                const Cplx y0 = x[j];
                const Cplx y1 = mulConj(x[j + q], w2[j]);
                const Cplx y2 = mulConj(x[j + 2 * q], w1[j]);
                const Cplx y3 = mulConj(x[j + 3 * q], w3[j]);
                const Cplx s0 = y0 + y1, d0 = y0 - y1;
                const Cplx s1 = y2 + y3, d1 = mulMinusI(y2 - y3);
                x[j] = s0 + s1;
                x[j + q] = d0 + d1;
                x[j + 2 * q] = s0 - s1;
                x[j + 3 * q] = d0 - d1;
            }
        }
    }
    const double inv = 1.0 / static_cast<double>(t.m);
    for (size_t i = 0; i < t.m; ++i)
        data[i] *= inv;
}

void
twistScalar(Cplx *out, const int32_t *lo, const int32_t *hi,
            const Cplx *tw, size_t m)
{
    for (size_t j = 0; j < m; ++j) {
        Cplx u(static_cast<double>(lo[j]), static_cast<double>(hi[j]));
        out[j] = mul(u, tw[j]);
    }
}

void
untwistScalar(uint32_t *lo, uint32_t *hi, const Cplx *freq,
              const Cplx *tw, size_t m)
{
    for (size_t j = 0; j < m; ++j) {
        Cplx u = mulConj(freq[j], tw[j]);
        // Round to the integer grid and wrap mod 2^32. The kernel
        // contract (simd.h) bounds |u| < 2^51 -- TFHE gadget
        // decomposition keeps real inputs below ~2^50 -- so llround
        // never overflows int64 and the vector backends' magic-number
        // rounding agrees with this reference.
        lo[j] = static_cast<uint32_t>(
            static_cast<int64_t>(std::llround(u.real())));
        hi[j] = static_cast<uint32_t>(
            static_cast<int64_t>(std::llround(u.imag())));
    }
}

void
mulAccumulateScalar(Cplx *out, const Cplx *a, const Cplx *b, size_t m)
{
    for (size_t i = 0; i < m; ++i)
        out[i] += mul(a[i], b[i]);
}

void
vmaBlockedScalar(Cplx *out, const Cplx *digits, const Cplx *const *key,
                 size_t rows, size_t cols, size_t count, size_t m,
                 size_t stride)
{
    // The contract's summation order (simd.h), written out with
    // std::fma so that the vector backend's FMA lanes reproduce it
    // exactly.
    for (size_t b = 0; b < count; ++b) {
        const Cplx *dig = digits + b * rows * stride;
        for (size_t c = 0; c < cols; ++c) {
            Cplx *o = out + (b * cols + c) * stride;
            for (size_t i = 0; i < m; ++i) {
                double p_re = 0.0, p_im = 0.0, s_re = 0.0, s_im = 0.0;
                for (size_t r = 0; r < rows; ++r) {
                    const Cplx a = dig[r * stride + i];
                    const Cplx w = key[r * cols + c][i];
                    p_re = std::fma(a.real(), w.real(), p_re);
                    p_im = std::fma(a.imag(), w.real(), p_im);
                    s_re = std::fma(a.imag(), w.imag(), s_re);
                    s_im = std::fma(a.real(), w.imag(), s_im);
                }
                o[i] = Cplx(p_re - s_re, p_im + s_im);
            }
        }
    }
}

void
subScaledRowScalar(uint32_t *const *outs, const int32_t *digits,
                   size_t digit_stride, size_t count, const uint32_t *row,
                   size_t width)
{
    for (size_t b = 0; b < count; ++b) {
        const int32_t d = digits[b * digit_stride];
        if (d == 0)
            continue;
        const uint32_t digit = static_cast<uint32_t>(d);
        uint32_t *o = outs[b];
        for (size_t x = 0; x < width; ++x)
            o[x] -= digit * row[x];
    }
}

const PolyKernels kScalarKernels = {
    "scalar",      fftForwardScalar, fftInverseScalar,
    twistScalar,   untwistScalar,    mulAccumulateScalar,
    vmaBlockedScalar, subScaledRowScalar,
};

} // namespace

const PolyKernels &
scalarKernels()
{
    return kScalarKernels;
}

} // namespace strix
