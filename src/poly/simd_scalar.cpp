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
 * multiplies per 4 points and half the sweeps over the data. The
 * negacyclic edges (fold+twist, scale+untwist+round+add) run as
 * separate loops here; only the vector backend fuses them into its
 * first and last passes. Every loop addresses points through the
 * split layout (simd.h).
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

/**
 * A spectrum (or transform intermediate) in the split layout, as m
 * points by position: position p is stored at 2*B*(p/B) + p%B (real)
 * and B more (imaginary), B = min(4, m) a power of two.
 */
class Split
{
  public:
    Split(double *d, size_t m) : d_(d), b_(m < 4 ? m : 4) {}

    Cplx get(size_t p) const
    {
        const size_t s = slot(p);
        return {d_[s], d_[s + b_]};
    }

    void set(size_t p, Cplx v) const
    {
        const size_t s = slot(p);
        d_[s] = v.real();
        d_[s + b_] = v.imag();
    }

  private:
    size_t slot(size_t p) const
    {
        return 2 * (p & ~(b_ - 1)) + (p & (b_ - 1));
    }

    double *d_;
    size_t b_;
};

/** Entry j of a blocked table (simd.h FftTables). */
inline Cplx
tableAt(const double *table, size_t j)
{
    const double *block = table + 8 * (j / 4);
    return {block[j % 4], block[4 + j % 4]};
}

/** Doubles one blocked twiddle stream of q entries spans. */
inline size_t
streamDoubles(size_t q)
{
    return 8 * ((q + 3) / 4);
}

/** Radix-2 butterfly over adjacent pairs (twiddle 1). */
void
radix2Pairs(const Split &x, size_t m)
{
    for (size_t i = 0; i < m; i += 2) {
        const Cplx u = x.get(i), v = x.get(i + 1);
        x.set(i, u + v);
        x.set(i + 1, u - v);
    }
}

/** The DIF radix-4 butterfly on a_0..a_3, in place. */
inline void
difButterfly(Cplx &a0, Cplx &a1, Cplx &a2, Cplx &a3, Cplx w1, Cplx w2,
             Cplx w3)
{
    const Cplx t0 = a0 + a2, t1 = a0 - a2;
    const Cplx t2 = a1 + a3, t3 = mulI(a1 - a3);
    a0 = t0 + t2;
    a1 = mul(t0 - t2, w2);
    a2 = mul(t1 + t3, w1);
    a3 = mul(t1 - t3, w3);
}

/** The DIT radix-4 butterfly on a_0..a_3 (conjugate twiddles), in place. */
inline void
ditButterfly(Cplx &a0, Cplx &a1, Cplx &a2, Cplx &a3, Cplx w1, Cplx w2,
             Cplx w3)
{
    const Cplx y0 = a0;
    const Cplx y1 = mulConj(a1, w2);
    const Cplx y2 = mulConj(a2, w1);
    const Cplx y3 = mulConj(a3, w3);
    const Cplx s0 = y0 + y1, d0 = y0 - y1;
    const Cplx s1 = y2 + y3, d1 = mulMinusI(y2 - y3);
    a0 = s0 + s1;
    a1 = d0 + d1;
    a2 = s0 - s1;
    a3 = d0 - d1;
}

/**
 * One radix-4 pass over block length 4q, twiddles at @p tw (three
 * blocked streams). With q >= 4 each stream's 4 consecutive points
 * are one split block, addressed directly, so the compiler sees
 * plain unit-stride lane loops; the passes below q = 4 go point by
 * point through @p x.
 */
template <typename Butterfly>
void
radix4Pass(const Split &x, double *d, const double *tw, size_t q, size_t m,
           Butterfly butterfly)
{
    const size_t sd = streamDoubles(q);
    const double *w1 = tw, *w2 = tw + sd, *w3 = tw + 2 * sd;
    for (size_t base = 0; base < m; base += 4 * q) {
        if (q >= 4) {
            for (size_t j = 0; j < q; j += 4) {
                double *x0 = d + 2 * (base + j);
                double *x1 = x0 + 2 * q, *x2 = x0 + 4 * q, *x3 = x0 + 6 * q;
                const double *v1 = w1 + 2 * j, *v2 = w2 + 2 * j,
                             *v3 = w3 + 2 * j;
                for (size_t l = 0; l < 4; ++l) {
                    Cplx a0(x0[l], x0[l + 4]), a1(x1[l], x1[l + 4]);
                    Cplx a2(x2[l], x2[l + 4]), a3(x3[l], x3[l + 4]);
                    butterfly(a0, a1, a2, a3, Cplx(v1[l], v1[l + 4]),
                              Cplx(v2[l], v2[l + 4]), Cplx(v3[l], v3[l + 4]));
                    x0[l] = a0.real();
                    x0[l + 4] = a0.imag();
                    x1[l] = a1.real();
                    x1[l + 4] = a1.imag();
                    x2[l] = a2.real();
                    x2[l + 4] = a2.imag();
                    x3[l] = a3.real();
                    x3[l + 4] = a3.imag();
                }
            }
            continue;
        }
        for (size_t j = 0; j < q; ++j) {
            const size_t p = base + j;
            Cplx a0 = x.get(p), a1 = x.get(p + q);
            Cplx a2 = x.get(p + 2 * q), a3 = x.get(p + 3 * q);
            butterfly(a0, a1, a2, a3, tableAt(w1, j), tableAt(w2, j),
                      tableAt(w3, j));
            x.set(p, a0);
            x.set(p + q, a1);
            x.set(p + 2 * q, a2);
            x.set(p + 3 * q, a3);
        }
    }
}

void
negacyclicForwardScalar(const FftTables &t, Cplx *out, const int32_t *coeffs)
{
    const size_t m = t.m;
    double *d = reinterpret_cast<double *>(out);
    const Split x(d, m);
    // Fold u_j = lo_j + i*hi_j, twist by exp(i*pi*j/(2m)).
    for (size_t j = 0; j < m; ++j) {
        const Cplx u(static_cast<double>(coeffs[j]),
                     static_cast<double>(coeffs[j + m]));
        x.set(j, mul(u, tableAt(t.twist, j)));
    }
    const double *tw = t.twiddles;
    size_t len = m;
    for (; len >= 4; len >>= 2) {
        radix4Pass(x, d, tw, len / 4, m, difButterfly);
        tw += 3 * streamDoubles(len / 4);
    }
    if (len == 2)
        radix2Pairs(x, m);
}

void
negacyclicInverseAddScalar(const FftTables &t, uint32_t *acc, Cplx *spectrum)
{
    const size_t m = t.m;
    double *d = reinterpret_cast<double *>(spectrum);
    const Split x(d, m);
    size_t len = 4;
    if (t.radix2_tail) {
        radix2Pairs(x, m);
        len = 8;
    }
    // Passes run smallest block first: walk the forward transform's
    // largest-first table backwards from its end.
    const double *tw = t.twiddles + t.twiddle_doubles;
    for (; len <= m; len <<= 2) {
        tw -= 3 * streamDoubles(len / 4);
        radix4Pass(x, d, tw, len / 4, m, ditButterfly);
    }
    // Scale by 1/m, untwist by conj(exp(i*pi*j/(2m))), round to the
    // integer grid and add mod 2^32. The kernel contract (simd.h)
    // bounds |u| < 2^51 -- TFHE gadget decomposition keeps real
    // inputs below ~2^50 -- so llround never overflows int64 and the
    // vector backends' magic-number rounding agrees with this
    // reference.
    const double inv = 1.0 / static_cast<double>(m);
    for (size_t j = 0; j < m; ++j) {
        const Cplx v = x.get(j);
        const Cplx u =
            mulConj(Cplx(v.real() * inv, v.imag() * inv), tableAt(t.twist, j));
        acc[j] += static_cast<uint32_t>(
            static_cast<int64_t>(std::llround(u.real())));
        acc[j + m] += static_cast<uint32_t>(
            static_cast<int64_t>(std::llround(u.imag())));
    }
}

void
vmaBlockedScalar(Cplx *out, const Cplx *digits, const Cplx *const *key,
                 size_t rows, size_t cols, size_t count, size_t m,
                 size_t stride)
{
    // The contract's summation order (simd.h), written out with
    // std::fma so that the vector backend's FMA lanes reproduce it
    // exactly.
    const double *d = reinterpret_cast<const double *>(digits);
    double *o = reinterpret_cast<double *>(out);
    const size_t ds = 2 * stride; // doubles between spectra
    const size_t blk = m < 4 ? m : 4;
    for (size_t b = 0; b < count; ++b) {
        const double *dig = d + b * rows * ds;
        for (size_t c = 0; c < cols; ++c) {
            double *oc = o + (b * cols + c) * ds;
            // Real part of point i at re, imaginary part blk further.
            for (size_t i = 0; i < m; ++i) {
                const size_t re = 2 * (i & ~(blk - 1)) + (i & (blk - 1));
                double p_re = 0.0, p_im = 0.0, s_re = 0.0, s_im = 0.0;
                for (size_t r = 0; r < rows; ++r) {
                    const double *a = dig + r * ds + re;
                    const double *w =
                        reinterpret_cast<const double *>(key[r * cols + c]) +
                        re;
                    p_re = std::fma(a[0], w[0], p_re);
                    p_im = std::fma(a[blk], w[0], p_im);
                    s_re = std::fma(a[blk], w[blk], s_re);
                    s_im = std::fma(a[0], w[blk], s_im);
                }
                oc[re] = p_re - s_re;
                oc[re + blk] = p_im + s_im;
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
    "scalar",
    negacyclicForwardScalar,
    negacyclicInverseAddScalar,
    vmaBlockedScalar,
    subScaledRowScalar,
};

} // namespace

const PolyKernels &
scalarKernels()
{
    return kScalarKernels;
}

} // namespace strix
