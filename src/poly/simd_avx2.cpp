/**
 * @file
 * AVX2+FMA kernel table. This is the only translation unit compiled
 * with -mavx2 -mfma; it must never be entered on a CPU without those
 * features, which avx2Kernels() guarantees by probing CPUID before
 * publishing the table.
 *
 * Data layout: spectra are split blocks of 4 points (simd.h), so one
 * block is two registers, 4 real parts and 4 imaginary parts, and a
 * complex multiply is two multiplies and two FMAs on whole registers
 * with no shuffle:
 *   re = ar*wr - ai*wi   (fmsub over the product ai*wi)
 *   im = ai*wr + ar*wi   (fmadd over the product ar*wi)
 * which is, lane for lane, the rounding of the movedup/permute/
 * fmaddsub multiply an interleaved [re im re im] layout needs three
 * shuffles for; multiplying by the conjugate swaps fmsub and fmadd.
 *
 * The transforms follow the scalar reference pass for pass (radix-4
 * DIF forward with a radix-2 tail, its DIT mirror inverse) with three
 * fusions: the first forward pass reads the int32 coefficients and
 * folds and twists them on the way in; the last inverse pass scales,
 * untwists, rounds and adds into the accumulator on the way out; and
 * the passes whose blocks fit in two registers (L = 4, or L = 8 with
 * the radix-2 tail) run as one in-register leaf. Below 16 points
 * (rings of N < 32, which no parameter set uses) the scalar reference
 * serves the transform calls, as it does vmaBlocked below 4 points.
 */

#include "poly/simd.h"

#if !defined(__AVX2__) || !defined(__FMA__)
#error "simd_avx2.cpp must be compiled with -mavx2 -mfma"
#endif

#include <immintrin.h>

namespace strix {
namespace {

/** Four complex points: 4 real parts, 4 imaginary parts. */
struct V
{
    __m256d re, im;
};

/** The block at @p p: 4 real parts, then 4 imaginary parts. */
inline V
load(const double *p)
{
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
}

inline void
store(double *p, V v)
{
    _mm256_storeu_pd(p, v.re);
    _mm256_storeu_pd(p + 4, v.im);
}

inline V
add(V a, V b)
{
    return {_mm256_add_pd(a.re, b.re), _mm256_add_pd(a.im, b.im)};
}

inline V
sub(V a, V b)
{
    return {_mm256_sub_pd(a.re, b.re), _mm256_sub_pd(a.im, b.im)};
}

inline __m256d
neg(__m256d x)
{
    return _mm256_xor_pd(x, _mm256_set1_pd(-0.0));
}

/** a * w, rounded as fmaddsub(a, movedup(w), swap(a) * w.im). */
inline V
mul(V a, V w)
{
    return {_mm256_fmsub_pd(a.re, w.re, _mm256_mul_pd(a.im, w.im)),
            _mm256_fmadd_pd(a.im, w.re, _mm256_mul_pd(a.re, w.im))};
}

/** a * conj(w), rounded as fmsubadd(a, movedup(w), swap(a) * w.im). */
inline V
mulConj(V a, V w)
{
    return {_mm256_fmadd_pd(a.re, w.re, _mm256_mul_pd(a.im, w.im)),
            _mm256_fmsub_pd(a.im, w.re, _mm256_mul_pd(a.re, w.im))};
}

/** i * a */
inline V
mulI(V a)
{
    return {neg(a.im), a.re};
}

/** -i * a */
inline V
mulMinusI(V a)
{
    return {a.im, neg(a.re)};
}

/** Lanes of @p b where @p Mask has a bit set, @p a elsewhere. */
template <int Mask>
inline V
blend(V a, V b)
{
    return {_mm256_blend_pd(a.re, b.re, Mask),
            _mm256_blend_pd(a.im, b.im, Mask)};
}

/** [x0 x1 | x2 x3] -> [x0 + x2, x1 + x3 | x0 - x2, x1 - x3]. */
inline V
halvesButterfly(V x)
{
    const __m256d sr = _mm256_permute2f128_pd(x.re, x.re, 0x01);
    const __m256d si = _mm256_permute2f128_pd(x.im, x.im, 0x01);
    // sw - x puts x_lo - x_hi in the upper half, where the blend
    // takes it from.
    return blend<0xC>(add(x, {sr, si}), sub({sr, si}, x));
}

/** [x0 x1 x2 x3] -> [x0 + x1, x0 - x1, x2 + x3, x2 - x3]. */
inline V
pairsButterfly(V x)
{
    const V sw = {_mm256_permute_pd(x.re, 0x5), _mm256_permute_pd(x.im, 0x5)};
    return blend<0xA>(add(x, sw), sub(sw, x));
}

/** Doubles one blocked twiddle stream of q >= 4 entries spans. */
inline size_t
streamDoubles(size_t q)
{
    return 2 * q;
}

/**
 * Four points of the fold entering the forward transform, twisted:
 * (lo[j] + i*hi[j]) * twist_j for j at @p j .. j+3.
 */
inline V
foldTwist(const int32_t *lo, const int32_t *hi, const double *twist,
          size_t j)
{
    const V u = {_mm256_cvtepi32_pd(_mm_loadu_si128(
                     reinterpret_cast<const __m128i *>(lo + j))),
                 _mm256_cvtepi32_pd(_mm_loadu_si128(
                     reinterpret_cast<const __m128i *>(hi + j)))};
    return mul(u, load(twist + 2 * j));
}

/** The DIF radix-4 butterfly of the scalar reference on 4x4 points. */
inline void
difButterfly(V a0, V a1, V a2, V a3, const double *w1, const double *w2,
             const double *w3, double *x0, double *x1, double *x2,
             double *x3)
{
    const V t0 = add(a0, a2), t1 = sub(a0, a2);
    const V t2 = add(a1, a3), t3 = mulI(sub(a1, a3));
    store(x0, add(t0, t2));
    store(x1, mul(sub(t0, t2), load(w2)));
    store(x2, mul(add(t1, t3), load(w1)));
    store(x3, mul(sub(t1, t3), load(w3)));
}

/**
 * First forward pass (L = m, q = m/4 >= 4), reading the coefficients:
 * a_s = fold+twist of point j + s*q, straight from int32.
 */
void
difFirstPass(double *d, const int32_t *coeffs, const double *twist,
             const double *tw, size_t m)
{
    const size_t q = m / 4, sd = streamDoubles(q);
    const int32_t *lo = coeffs, *hi = coeffs + m;
    for (size_t j = 0; j < q; j += 4) {
        difButterfly(foldTwist(lo, hi, twist, j),
                     foldTwist(lo, hi, twist, j + q),
                     foldTwist(lo, hi, twist, j + 2 * q),
                     foldTwist(lo, hi, twist, j + 3 * q), tw + 2 * j,
                     tw + sd + 2 * j, tw + 2 * sd + 2 * j, d + 2 * j,
                     d + 2 * (j + q), d + 2 * (j + 2 * q),
                     d + 2 * (j + 3 * q));
    }
}

/** DIF radix-4 pass with q = L/4 >= 4: one block per stream. */
void
difPass(double *d, const double *tw, size_t q, size_t m)
{
    const size_t sd = streamDoubles(q);
    for (size_t base = 0; base < m; base += 4 * q) {
        double *x0 = d + 2 * base;
        double *x1 = x0 + 2 * q, *x2 = x0 + 4 * q, *x3 = x0 + 6 * q;
        for (size_t j = 0; j < 2 * q; j += 8)
            difButterfly(load(x0 + j), load(x1 + j), load(x2 + j),
                         load(x3 + j), tw + j, tw + sd + j, tw + 2 * sd + j,
                         x0 + j, x1 + j, x2 + j, x3 + j);
    }
}

/**
 * Twiddles of the L = 8 pass (q = 2), arranged for the leaf's two
 * registers: lo = [-, -, w2_0, w2_1] (only its upper half is used),
 * hi = [w1_0, w1_1, w3_0, w3_1].
 */
struct LeafTwiddles
{
    V lo, hi;
};

/** @p tw points at the q = 2 pass: three padded 8-double streams. */
inline LeafTwiddles
leafTwiddles(const double *tw)
{
    const double *w1 = tw, *w2 = tw + 8, *w3 = tw + 16;
    return {{_mm256_setr_pd(0.0, 0.0, w2[0], w2[1]),
             _mm256_setr_pd(0.0, 0.0, w2[4], w2[5])},
            {_mm256_setr_pd(w1[0], w1[1], w3[0], w3[1]),
             _mm256_setr_pd(w1[4], w1[5], w3[4], w3[5])}};
}

/**
 * Forward leaf, log2(m) even: the L = 4 pass (all twiddles 1) on
 * every block, in register.
 */
void
difLeaf4(double *d, size_t m)
{
    for (size_t p = 0; p < 2 * m; p += 8) {
        // [t0 t2 | t1, a1 - a3] -> [t0 t2 t1 t3] -> radix-2 pairs.
        V c = halvesButterfly(load(d + p));
        c = blend<0x8>(c, mulI(c));
        store(d + p, pairsButterfly(c));
    }
}

/**
 * Forward leaf, log2(m) odd: the L = 8 pass (q = 2) and the radix-2
 * tail on every pair of blocks, in registers.
 */
void
difLeaf8(double *d, const LeafTwiddles &w, size_t m)
{
    for (size_t p = 0; p < 2 * m; p += 16) {
        const V b0 = load(d + p), b1 = load(d + p + 8);
        const V s = add(b0, b1); // [t0 | t2]
        V t = sub(b0, b1);       // [t1 | a1 - a3]
        t = blend<0xC>(t, mulI(t)); // [t1 | t3]
        V y0 = halvesButterfly(s);  // [t0 + t2 | t0 - t2]
        y0 = blend<0xC>(y0, mul(y0, w.lo));
        const V y1 = mul(halvesButterfly(t), w.hi);
        store(d + p, pairsButterfly(y0));
        store(d + p + 8, pairsButterfly(y1));
    }
}

/** Inverse leaf, log2(m) even: the L = 4 DIT pass in register. */
void
ditLeaf4(double *d, size_t m)
{
    for (size_t p = 0; p < 2 * m; p += 8) {
        // [s0 d0 s1, y2 - y3] -> [s0 d0 s1 d1] -> halves butterfly.
        V c = pairsButterfly(load(d + p));
        c = blend<0x8>(c, mulMinusI(c));
        store(d + p, halvesButterfly(c));
    }
}

/**
 * Inverse leaf, log2(m) odd: the radix-2 head and the L = 8 DIT pass
 * (q = 2) on every pair of blocks, in registers.
 */
void
ditLeaf8(double *d, const LeafTwiddles &w, size_t m)
{
    for (size_t p = 0; p < 2 * m; p += 16) {
        V r0 = pairsButterfly(load(d + p));
        r0 = blend<0xC>(r0, mulConj(r0, w.lo)); // [y0 | y1]
        const V r1 = mulConj(pairsButterfly(load(d + p + 8)), w.hi);
        const V s0 = halvesButterfly(r0);   // [s0 | d0]
        V s1 = halvesButterfly(r1);         // [s1 | y2 - y3]
        s1 = blend<0xC>(s1, mulMinusI(s1)); // [s1 | d1]
        store(d + p, add(s0, s1));
        store(d + p + 8, sub(s0, s1));
    }
}

/** The DIT radix-4 butterfly of the scalar reference on 4x4 points. */
struct Dit
{
    V o0, o1, o2, o3;
};

inline Dit
ditButterfly(V y0, V x1, V x2, V x3, const double *w1, const double *w2,
             const double *w3)
{
    const V y1 = mulConj(x1, load(w2));
    const V y2 = mulConj(x2, load(w1));
    const V y3 = mulConj(x3, load(w3));
    const V s0 = add(y0, y1), d0 = sub(y0, y1);
    const V s1 = add(y2, y3), d1 = mulMinusI(sub(y2, y3));
    return {add(s0, s1), add(d0, d1), sub(s0, s1), sub(d0, d1)};
}

/** DIT radix-4 pass with q = L/4 >= 4; conjugate twiddles. */
void
ditPass(double *d, const double *tw, size_t q, size_t m)
{
    const size_t sd = streamDoubles(q);
    for (size_t base = 0; base < m; base += 4 * q) {
        double *x0 = d + 2 * base;
        double *x1 = x0 + 2 * q, *x2 = x0 + 4 * q, *x3 = x0 + 6 * q;
        for (size_t j = 0; j < 2 * q; j += 8) {
            const Dit o = ditButterfly(load(x0 + j), load(x1 + j),
                                       load(x2 + j), load(x3 + j), tw + j,
                                       tw + sd + j, tw + 2 * sd + j);
            store(x0 + j, o.o0);
            store(x1 + j, o.o1);
            store(x2 + j, o.o2);
            store(x3 + j, o.o3);
        }
    }
}

/**
 * Scale, untwist, round and add four output points at natural index
 * @p j: acc[j..j+3] += round(re), acc[m + j..] += round(im) of
 * (x / m) * conj(twist_j).
 */
inline void
untwistAdd(uint32_t *acc, V x, __m256d inv, const double *twist, size_t j,
           size_t m)
{
    // 2^52 + 2^51: adding it forces round-to-nearest onto the integer
    // grid and leaves value mod 2^32 in the low mantissa dword; valid
    // exactly on the kernel contract's |u| < 2^51 domain (simd.h),
    // comfortably above the ~2^50 worst case of any shipped parameter
    // set. Ties round to even where the scalar reference rounds away
    // from zero -- a <=1 ulp difference the tests allow.
    const __m256d magic = _mm256_set1_pd(6755399441055744.0);
    const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    const V u = mulConj({_mm256_mul_pd(x.re, inv), _mm256_mul_pd(x.im, inv)},
                        load(twist + 2 * j));
    const __m256i re = _mm256_castpd_si256(_mm256_add_pd(u.re, magic));
    const __m256i im = _mm256_castpd_si256(_mm256_add_pd(u.im, magic));
    const __m128i re_lo =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(re, pick));
    const __m128i im_lo =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(im, pick));
    __m128i *lo = reinterpret_cast<__m128i *>(acc + j);
    __m128i *hi = reinterpret_cast<__m128i *>(acc + m + j);
    _mm_storeu_si128(lo, _mm_add_epi32(_mm_loadu_si128(lo), re_lo));
    _mm_storeu_si128(hi, _mm_add_epi32(_mm_loadu_si128(hi), im_lo));
}

/**
 * Last inverse pass (L = m, q = m/4 >= 4), writing the accumulator:
 * the outputs are the natural-order points j + s*q.
 */
void
ditLastPass(uint32_t *acc, const double *d, const double *twist,
            const double *tw, size_t m)
{
    const size_t q = m / 4, sd = streamDoubles(q);
    const __m256d inv = _mm256_set1_pd(1.0 / static_cast<double>(m));
    for (size_t j = 0; j < q; j += 4) {
        const size_t o = 2 * j;
        const Dit r = ditButterfly(load(d + o), load(d + o + 2 * q),
                                   load(d + o + 4 * q), load(d + o + 6 * q),
                                   tw + o, tw + sd + o, tw + 2 * sd + o);
        untwistAdd(acc, r.o0, inv, twist, j, m);
        untwistAdd(acc, r.o1, inv, twist, j + q, m);
        untwistAdd(acc, r.o2, inv, twist, j + 2 * q, m);
        untwistAdd(acc, r.o3, inv, twist, j + 3 * q, m);
    }
}

/** Smallest transform the vector passes run (first pass q >= 4). */
constexpr size_t kMinVectorFft = 16;

void
negacyclicForwardAvx2(const FftTables &t, Cplx *out, const int32_t *coeffs)
{
    const size_t m = t.m;
    if (m < kMinVectorFft)
        return scalarKernels().negacyclicForward(t, out, coeffs);
    double *d = reinterpret_cast<double *>(out);
    const double *tw = t.twiddles;
    difFirstPass(d, coeffs, t.twist, tw, m);
    tw += 3 * streamDoubles(m / 4);
    size_t len = m / 4;
    for (; len >= 16; len >>= 2) {
        difPass(d, tw, len / 4, m);
        tw += 3 * streamDoubles(len / 4);
    }
    if (len == 8)
        difLeaf8(d, leafTwiddles(tw), m);
    else
        difLeaf4(d, m);
}

void
negacyclicInverseAddAvx2(const FftTables &t, uint32_t *acc, Cplx *spectrum)
{
    const size_t m = t.m;
    if (m < kMinVectorFft)
        return scalarKernels().negacyclicInverseAdd(t, acc, spectrum);
    double *d = reinterpret_cast<double *>(spectrum);
    // The leaf's twiddles end the table: three padded 8-double
    // streams (q = 2 or q = 1).
    const double *tw = t.twiddles + t.twiddle_doubles - 24;
    size_t len;
    if (t.radix2_tail) {
        ditLeaf8(d, leafTwiddles(tw), m);
        len = 32;
    } else {
        ditLeaf4(d, m);
        len = 16;
    }
    for (; len < m; len <<= 2) {
        tw -= 3 * streamDoubles(len / 4);
        ditPass(d, tw, len / 4, m);
    }
    tw -= 3 * streamDoubles(m / 4);
    ditLastPass(acc, d, t.twist, tw, m);
}

/**
 * One ciphertext's C output columns (c0 .. c0+C-1) over one 4-point
 * block: 4*C accumulators (p.re, p.im, s.re, s.im per column) stay in
 * registers across all key rows. @p dig and @p out point at the block
 * inside the ciphertext's first digit row / output column, @p key at
 * the block's offset (in doubles) inside every key row; rows and
 * columns are @p ds doubles apart.
 */
template <size_t C>
inline void
vmaTile(double *out, const double *dig, const Cplx *const *key, size_t off,
        size_t rows, size_t cols, size_t c0, size_t ds)
{
    __m256d pr[C], pi[C], sr[C], si[C];
    for (size_t c = 0; c < C; ++c)
        pr[c] = pi[c] = sr[c] = si[c] = _mm256_setzero_pd();
    for (size_t r = 0; r < rows; ++r) {
        const V a = load(dig + r * ds);
        for (size_t c = 0; c < C; ++c) {
            const V w = load(
                reinterpret_cast<const double *>(key[r * cols + c0 + c]) + off);
            pr[c] = _mm256_fmadd_pd(a.re, w.re, pr[c]);
            pi[c] = _mm256_fmadd_pd(a.im, w.re, pi[c]);
            sr[c] = _mm256_fmadd_pd(a.im, w.im, sr[c]);
            si[c] = _mm256_fmadd_pd(a.re, w.im, si[c]);
        }
    }
    for (size_t c = 0; c < C; ++c)
        store(out + (c0 + c) * ds,
              {_mm256_sub_pd(pr[c], sr[c]), _mm256_add_pd(pi[c], si[c])});
}

void
vmaBlockedAvx2(Cplx *out, const Cplx *digits, const Cplx *const *key,
               size_t rows, size_t cols, size_t count, size_t m,
               size_t stride)
{
    // The m = 2 toy ring has no whole 4-point block.
    if (m < 4)
        return scalarKernels().vmaBlocked(out, digits, key, rows, cols,
                                          count, m, stride);
    double *o = reinterpret_cast<double *>(out);
    const double *d = reinterpret_cast<const double *>(digits);
    const size_t ds = 2 * stride; // doubles between spectra
    // Block-outer: one block of every key row (rows*cols cache lines)
    // stays in L1 while the whole chunk runs against it. Columns go
    // in register tiles of at most two: 8 accumulators plus the digit
    // block's 2 registers, within the 16 ymm.
    for (size_t i = 0; i < 2 * m; i += 8) {
        for (size_t b = 0; b < count; ++b) {
            const double *dig = d + b * rows * ds + i;
            double *ob = o + b * cols * ds + i;
            size_t c = 0;
            for (; c + 2 <= cols; c += 2)
                vmaTile<2>(ob, dig, key, i, rows, cols, c, ds);
            if (c < cols)
                vmaTile<1>(ob, dig, key, i, rows, cols, c, ds);
        }
    }
}

void
subScaledRowAvx2(uint32_t *const *outs, const int32_t *digits,
                 size_t digit_stride, size_t count, const uint32_t *row,
                 size_t width)
{
    for (size_t b = 0; b < count; ++b) {
        const int32_t d = digits[b * digit_stride];
        if (d == 0)
            continue;
        const __m256i dv = _mm256_set1_epi32(d);
        uint32_t *o = outs[b];
        size_t x = 0;
        for (; x + 8 <= width; x += 8) {
            __m256i *op = reinterpret_cast<__m256i *>(o + x);
            const __m256i r = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(row + x));
            _mm256_storeu_si256(op, _mm256_sub_epi32(_mm256_loadu_si256(op),
                                                     _mm256_mullo_epi32(r, dv)));
        }
        const uint32_t digit = static_cast<uint32_t>(d);
        for (; x < width; ++x)
            o[x] -= digit * row[x];
    }
}

const PolyKernels kAvx2Kernels = {
    "avx2",
    negacyclicForwardAvx2,
    negacyclicInverseAddAvx2,
    vmaBlockedAvx2,
    subScaledRowAvx2,
};

} // namespace

const PolyKernels *
avx2Kernels()
{
    // The table itself is feature-independent data; the probe keeps a
    // non-AVX2 machine from ever calling into this TU's code.
    static const PolyKernels *const published =
        cpuSupportsAvx2Fma() ? &kAvx2Kernels : nullptr;
    return published;
}

} // namespace strix
