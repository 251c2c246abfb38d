/**
 * @file
 * AVX2+FMA kernel table. This is the only translation unit compiled
 * with -mavx2 -mfma; it must never be entered on a CPU without those
 * features, which avx2Kernels() guarantees by probing CPUID before
 * publishing the table.
 *
 * Data layout: std::complex<double> is array-of-two-doubles, so one
 * __m256d holds two complex values [re0 im0 re1 im1]. A complex
 * multiply is then a movedup/permute pair plus one FMA:
 *   even lanes  re = vr*wr - vi*wi   (fmaddsub subtracts on evens)
 *   odd  lanes  im = vi*wr + vr*wi   (adds on odds)
 * and multiplying by the conjugate just swaps fmaddsub for fmsubadd.
 *
 * The pass-major twiddle table (FftTables::twiddles) makes every
 * butterfly's twiddle load a contiguous unaligned load. The transforms
 * follow the scalar reference pass for pass (radix-4 DIF forward with
 * a radix-2 tail, its DIT mirror inverse); only the L = 4 and L = 2
 * passes, whose blocks fit in one or two registers, get their own
 * in-register kernels.
 */

#include "poly/simd.h"

#if !defined(__AVX2__) || !defined(__FMA__)
#error "simd_avx2.cpp must be compiled with -mavx2 -mfma"
#endif

#include <immintrin.h>

#include <cmath>
#include <vector>

namespace strix {
namespace {

/** [a0*b0, a1*b1] for 2 packed complex doubles per register. */
inline __m256d
cplxMul(__m256d a, __m256d b)
{
    __m256d br = _mm256_movedup_pd(b);     // [br0 br0 br1 br1]
    __m256d bi = _mm256_permute_pd(b, 0xF); // [bi0 bi0 bi1 bi1]
    __m256d as = _mm256_permute_pd(a, 0x5); // [ai0 ar0 ai1 ar1]
    return _mm256_fmaddsub_pd(a, br, _mm256_mul_pd(as, bi));
}

/** [a0*conj(b0), a1*conj(b1)]. */
inline __m256d
cplxMulConj(__m256d a, __m256d b)
{
    __m256d br = _mm256_movedup_pd(b);
    __m256d bi = _mm256_permute_pd(b, 0xF);
    __m256d as = _mm256_permute_pd(a, 0x5);
    return _mm256_fmsubadd_pd(a, br, _mm256_mul_pd(as, bi));
}

/** i*x for 2 packed complex doubles: [-im re] per complex. */
inline __m256d
mulI(__m256d x)
{
    return _mm256_xor_pd(_mm256_permute_pd(x, 0x5),
                         _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0));
}

/** -i*x for 2 packed complex doubles: [im -re] per complex. */
inline __m256d
mulMinusI(__m256d x)
{
    return _mm256_xor_pd(_mm256_permute_pd(x, 0x5),
                         _mm256_setr_pd(0.0, -0.0, 0.0, -0.0));
}

/** [c0, c1] -> [c0 + c1, c0 - c1]: one radix-2 butterfly in a register. */
inline __m256d
pairButterfly(__m256d x)
{
    __m256d sw = _mm256_permute2f128_pd(x, x, 0x01);
    // sw - x puts c0 - c1 in the *upper* lane, which is where the
    // blend takes it from.
    return _mm256_blend_pd(_mm256_add_pd(x, sw), _mm256_sub_pd(sw, x), 0xC);
}

/** Radix-2 butterfly over adjacent pairs (twiddle 1), m >= 2. */
inline void
radix2Pairs(double *d, size_t m)
{
    for (size_t i = 0; i < m; i += 2)
        _mm256_storeu_pd(d + 2 * i, pairButterfly(_mm256_loadu_pd(d + 2 * i)));
}

/**
 * DIF radix-4 pass with q = L/4 >= 2: two complex values per register
 * per stream. Same arithmetic as the scalar reference.
 */
void
radix4DifPass(double *d, const Cplx *tw, size_t q, size_t m)
{
    const double *w1 = reinterpret_cast<const double *>(tw);
    const double *w2 = w1 + 2 * q, *w3 = w1 + 4 * q;
    for (size_t base = 0; base < m; base += 4 * q) {
        double *x0 = d + 2 * base;
        double *x1 = x0 + 2 * q, *x2 = x0 + 4 * q, *x3 = x0 + 6 * q;
        for (size_t j = 0; j < 2 * q; j += 4) {
            const __m256d a0 = _mm256_loadu_pd(x0 + j);
            const __m256d a1 = _mm256_loadu_pd(x1 + j);
            const __m256d a2 = _mm256_loadu_pd(x2 + j);
            const __m256d a3 = _mm256_loadu_pd(x3 + j);
            const __m256d t0 = _mm256_add_pd(a0, a2);
            const __m256d t1 = _mm256_sub_pd(a0, a2);
            const __m256d t2 = _mm256_add_pd(a1, a3);
            const __m256d t3 = mulI(_mm256_sub_pd(a1, a3));
            _mm256_storeu_pd(x0 + j, _mm256_add_pd(t0, t2));
            _mm256_storeu_pd(x1 + j, cplxMul(_mm256_sub_pd(t0, t2),
                                             _mm256_loadu_pd(w2 + j)));
            _mm256_storeu_pd(x2 + j, cplxMul(_mm256_add_pd(t1, t3),
                                             _mm256_loadu_pd(w1 + j)));
            _mm256_storeu_pd(x3 + j, cplxMul(_mm256_sub_pd(t1, t3),
                                             _mm256_loadu_pd(w3 + j)));
        }
    }
}

/**
 * DIF radix-4 pass with L = 4 (q = 1, all twiddles 1): one block is
 * two registers, [a0 a1] and [a2 a3].
 */
void
radix4DifQ1(double *d, size_t m)
{
    for (size_t i = 0; i < m; i += 4) {
        const __m256d x01 = _mm256_loadu_pd(d + 2 * i);
        const __m256d x23 = _mm256_loadu_pd(d + 2 * i + 4);
        const __m256d lo = _mm256_add_pd(x01, x23); // [t0 t2]
        __m256d hi = _mm256_sub_pd(x01, x23);       // [t1 a1-a3]
        hi = _mm256_blend_pd(hi, mulI(hi), 0xC);    // [t1 t3]
        _mm256_storeu_pd(d + 2 * i, pairButterfly(lo));
        _mm256_storeu_pd(d + 2 * i + 4, pairButterfly(hi));
    }
}

/** DIT radix-4 pass with q = L/4 >= 2; conjugate twiddles. */
void
radix4DitPass(double *d, const Cplx *tw, size_t q, size_t m)
{
    const double *w1 = reinterpret_cast<const double *>(tw);
    const double *w2 = w1 + 2 * q, *w3 = w1 + 4 * q;
    for (size_t base = 0; base < m; base += 4 * q) {
        double *x0 = d + 2 * base;
        double *x1 = x0 + 2 * q, *x2 = x0 + 4 * q, *x3 = x0 + 6 * q;
        for (size_t j = 0; j < 2 * q; j += 4) {
            const __m256d y0 = _mm256_loadu_pd(x0 + j);
            const __m256d y1 = cplxMulConj(_mm256_loadu_pd(x1 + j),
                                           _mm256_loadu_pd(w2 + j));
            const __m256d y2 = cplxMulConj(_mm256_loadu_pd(x2 + j),
                                           _mm256_loadu_pd(w1 + j));
            const __m256d y3 = cplxMulConj(_mm256_loadu_pd(x3 + j),
                                           _mm256_loadu_pd(w3 + j));
            const __m256d s0 = _mm256_add_pd(y0, y1);
            const __m256d d0 = _mm256_sub_pd(y0, y1);
            const __m256d s1 = _mm256_add_pd(y2, y3);
            const __m256d d1 = mulMinusI(_mm256_sub_pd(y2, y3));
            _mm256_storeu_pd(x0 + j, _mm256_add_pd(s0, s1));
            _mm256_storeu_pd(x1 + j, _mm256_add_pd(d0, d1));
            _mm256_storeu_pd(x2 + j, _mm256_sub_pd(s0, s1));
            _mm256_storeu_pd(x3 + j, _mm256_sub_pd(d0, d1));
        }
    }
}

/** DIT radix-4 pass with L = 4 (q = 1, all twiddles 1). */
void
radix4DitQ1(double *d, size_t m)
{
    for (size_t i = 0; i < m; i += 4) {
        const __m256d p = pairButterfly(_mm256_loadu_pd(d + 2 * i));
        __m256d r = pairButterfly(_mm256_loadu_pd(d + 2 * i + 4));
        r = _mm256_blend_pd(r, mulMinusI(r), 0xC); // [s1 d1]
        _mm256_storeu_pd(d + 2 * i, _mm256_add_pd(p, r));
        _mm256_storeu_pd(d + 2 * i + 4, _mm256_sub_pd(p, r));
    }
}

void
fftForwardAvx2(const FftTables &t, Cplx *data)
{
    double *d = reinterpret_cast<double *>(data);
    const Cplx *tw = t.twiddles;
    size_t len = t.m;
    for (; len >= 8; len >>= 2) {
        radix4DifPass(d, tw, len >> 2, t.m);
        tw += 3 * (len >> 2);
    }
    if (len == 4)
        radix4DifQ1(d, t.m);
    else if (len == 2)
        radix2Pairs(d, t.m);
}

void
fftInverseAvx2(const FftTables &t, Cplx *data)
{
    double *d = reinterpret_cast<double *>(data);
    const Cplx *tw = t.twiddles + t.twiddle_count;
    size_t len;
    if (t.radix2_tail) {
        radix2Pairs(d, t.m);
        len = 8;
    } else {
        radix4DitQ1(d, t.m);
        tw -= 3; // the q = 1 pass owns the table's last entries
        len = 16;
    }
    for (; len <= t.m; len <<= 2) {
        tw -= 3 * (len >> 2);
        radix4DitPass(d, tw, len >> 2, t.m);
    }
    const __m256d inv =
        _mm256_set1_pd(1.0 / static_cast<double>(t.m));
    for (size_t i = 0; i < 2 * t.m; i += 4)
        _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_loadu_pd(d + i), inv));
}

void
twistAvx2(Cplx *out, const int32_t *lo, const int32_t *hi, const Cplx *tw,
          size_t m)
{
    double *o = reinterpret_cast<double *>(out);
    const double *twd = reinterpret_cast<const double *>(tw);
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
        __m256d re = _mm256_cvtepi32_pd(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(lo + j)));
        __m256d im = _mm256_cvtepi32_pd(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(hi + j)));
        // Interleave [r0..r3]/[i0..i3] into packed complex pairs.
        __m256d t0 = _mm256_unpacklo_pd(re, im); // [r0 i0 r2 i2]
        __m256d t1 = _mm256_unpackhi_pd(re, im); // [r1 i1 r3 i3]
        __m256d c01 = _mm256_permute2f128_pd(t0, t1, 0x20);
        __m256d c23 = _mm256_permute2f128_pd(t0, t1, 0x31);
        _mm256_storeu_pd(o + 2 * j,
                         cplxMul(c01, _mm256_loadu_pd(twd + 2 * j)));
        _mm256_storeu_pd(o + 2 * j + 4,
                         cplxMul(c23, _mm256_loadu_pd(twd + 2 * j + 4)));
    }
    for (; j < m; ++j)
        out[j] = Cplx(static_cast<double>(lo[j]),
                      static_cast<double>(hi[j])) *
                 tw[j];
}

void
untwistAvx2(uint32_t *lo, uint32_t *hi, const Cplx *freq, const Cplx *tw,
            size_t m)
{
    const double *f = reinterpret_cast<const double *>(freq);
    const double *twd = reinterpret_cast<const double *>(tw);
    // 2^52 + 2^51: adding it forces round-to-nearest onto the integer
    // grid and leaves value mod 2^32 in the low mantissa dword; valid
    // exactly on the kernel contract's |u| < 2^51 domain (simd.h),
    // comfortably above the ~2^50 worst case of any shipped parameter
    // set. Ties round to even where the scalar reference rounds away
    // from zero -- a <=1 ulp difference the tests allow.
    const __m256d magic = _mm256_set1_pd(6755399441055744.0);
    const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
        __m256d u01 = cplxMulConj(_mm256_loadu_pd(f + 2 * j),
                                  _mm256_loadu_pd(twd + 2 * j));
        __m256d u23 = cplxMulConj(_mm256_loadu_pd(f + 2 * j + 4),
                                  _mm256_loadu_pd(twd + 2 * j + 4));
        // Deinterleave packed complex pairs into [r0..r3]/[i0..i3].
        __m256d t0 = _mm256_permute2f128_pd(u01, u23, 0x20);
        __m256d t1 = _mm256_permute2f128_pd(u01, u23, 0x31);
        __m256d re = _mm256_unpacklo_pd(t0, t1);
        __m256d im = _mm256_unpackhi_pd(t0, t1);
        __m256i rei = _mm256_castpd_si256(_mm256_add_pd(re, magic));
        __m256i imi = _mm256_castpd_si256(_mm256_add_pd(im, magic));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(lo + j),
            _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(rei, pick)));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(hi + j),
            _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(imi, pick)));
    }
    for (; j < m; ++j) {
        Cplx u = freq[j] * std::conj(tw[j]);
        lo[j] = static_cast<uint32_t>(
            static_cast<int64_t>(std::llround(u.real())));
        hi[j] = static_cast<uint32_t>(
            static_cast<int64_t>(std::llround(u.imag())));
    }
}

void
mulAccumulateAvx2(Cplx *out, const Cplx *a, const Cplx *b, size_t m)
{
    double *o = reinterpret_cast<double *>(out);
    const double *ad = reinterpret_cast<const double *>(a);
    const double *bd = reinterpret_cast<const double *>(b);
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
        __m256d s0 = _mm256_add_pd(
            _mm256_loadu_pd(o + 2 * i),
            cplxMul(_mm256_loadu_pd(ad + 2 * i),
                    _mm256_loadu_pd(bd + 2 * i)));
        __m256d s1 = _mm256_add_pd(
            _mm256_loadu_pd(o + 2 * i + 4),
            cplxMul(_mm256_loadu_pd(ad + 2 * i + 4),
                    _mm256_loadu_pd(bd + 2 * i + 4)));
        _mm256_storeu_pd(o + 2 * i, s0);
        _mm256_storeu_pd(o + 2 * i + 4, s1);
    }
    for (; i + 2 <= m; i += 2) {
        __m256d s = _mm256_add_pd(
            _mm256_loadu_pd(o + 2 * i),
            cplxMul(_mm256_loadu_pd(ad + 2 * i),
                    _mm256_loadu_pd(bd + 2 * i)));
        _mm256_storeu_pd(o + 2 * i, s);
    }
    for (; i < m; ++i)
        out[i] += a[i] * b[i];
}

/**
 * One ciphertext's C output columns (c0 .. c0+C-1) over one frequency
 * block of NB registers (2*NB complex points): 2*C*NB accumulators
 * stay in registers across all key rows. @p dig and @p out point at
 * the block inside the ciphertext's first digit row / output column;
 * rows and columns are @p stride doubles apart. @p stage holds the
 * block's pre-shuffled key: entry (2*e + 0)*NB + q is movedup (w.re
 * in both lanes) and (2*e + 1)*NB + q is the w.im duplicate of
 * register q of key row e = r*cols + c.
 */
template <size_t C, size_t NB>
inline void
vmaTile(double *out, const double *dig, const __m256d *stage, size_t rows,
        size_t cols, size_t c0, size_t stride)
{
    __m256d p[C][NB], s[C][NB];
    for (size_t c = 0; c < C; ++c)
        for (size_t q = 0; q < NB; ++q)
            p[c][q] = s[c][q] = _mm256_setzero_pd();
    for (size_t r = 0; r < rows; ++r) {
        __m256d a[NB], as[NB];
        for (size_t q = 0; q < NB; ++q) {
            a[q] = _mm256_loadu_pd(dig + r * stride + 4 * q);
            as[q] = _mm256_permute_pd(a[q], 0x5);
        }
        const __m256d *w = stage + (r * cols + c0) * 2 * NB;
        for (size_t c = 0; c < C; ++c)
            for (size_t q = 0; q < NB; ++q) {
                p[c][q] = _mm256_fmadd_pd(a[q], w[2 * c * NB + q], p[c][q]);
                s[c][q] =
                    _mm256_fmadd_pd(as[q], w[(2 * c + 1) * NB + q], s[c][q]);
            }
    }
    for (size_t c = 0; c < C; ++c)
        for (size_t q = 0; q < NB; ++q)
            _mm256_storeu_pd(out + (c0 + c) * stride + 4 * q,
                             _mm256_addsub_pd(p[c][q], s[c][q]));
}

/**
 * (k+1)^2*l up to which vmaBlocks stages a key block on the stack:
 * k <= 3 at l <= 4 and every shipped parameter set. Wider GGSWs
 * stage on the heap, through the same loop.
 */
constexpr size_t kStageRows = 64;

/** Heap storage of one staged ymm register. */
struct alignas(32) StagedReg
{
    double v[4];
};

/**
 * vmaBlocked over blocks of 2*NB complex points (m a multiple of
 * 2*NB). Per block: stage the movedup/permute of every key element
 * once, then run every ciphertext of the chunk against the staged
 * block, columns in register tiles of at most two (2 columns x NB = 2
 * is 8 accumulators plus 4 digit registers, within the 16 ymm).
 * Staging is what makes a wide chunk cheap: per ciphertext, the tile
 * spends one shuffle per digit register and none on the key.
 */
template <size_t NB>
void
vmaBlocks(Cplx *out, const Cplx *digits, const Cplx *const *key,
          size_t rows, size_t cols, size_t count, size_t m, size_t stride)
{
    double *o = reinterpret_cast<double *>(out);
    const double *d = reinterpret_cast<const double *>(digits);
    const size_t ds = 2 * stride; // doubles between spectra
    // One frequency block of every key row stays staged while the
    // chunk runs against it: on the stack for every shipped shape,
    // on the heap past kStageRows.
    __m256d small[2 * kStageRows * NB];
    std::vector<StagedReg> large;
    __m256d *stage = small;
    if (rows * cols > kStageRows) {
        large.resize(2 * rows * cols * NB);
        stage = reinterpret_cast<__m256d *>(large.data());
    }
    for (size_t i = 0; i < 2 * m; i += 4 * NB) {
        for (size_t e = 0; e < rows * cols; ++e) {
            const double *w = reinterpret_cast<const double *>(key[e]) + i;
            for (size_t q = 0; q < NB; ++q) {
                const __m256d v = _mm256_loadu_pd(w + 4 * q);
                stage[2 * e * NB + q] = _mm256_movedup_pd(v);
                stage[(2 * e + 1) * NB + q] = _mm256_permute_pd(v, 0xF);
            }
        }
        for (size_t b = 0; b < count; ++b) {
            const double *dig = d + b * rows * ds + i;
            double *ob = o + b * cols * ds + i;
            size_t c = 0;
            for (; c + 2 <= cols; c += 2)
                vmaTile<2, NB>(ob, dig, stage, rows, cols, c, ds);
            if (c < cols)
                vmaTile<1, NB>(ob, dig, stage, rows, cols, c, ds);
        }
    }
}

void
vmaBlockedAvx2(Cplx *out, const Cplx *digits, const Cplx *const *key,
               size_t rows, size_t cols, size_t count, size_t m,
               size_t stride)
{
    // m is a power of two >= 2: four-point blocks (one cache line per
    // stream) everywhere but the m = 2 toy ring.
    if (m % 4 == 0)
        vmaBlocks<2>(out, digits, key, rows, cols, count, m, stride);
    else
        vmaBlocks<1>(out, digits, key, rows, cols, count, m, stride);
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
    "avx2",    fftForwardAvx2, fftInverseAvx2,
    twistAvx2, untwistAvx2,    mulAccumulateAvx2,
    vmaBlockedAvx2, subScaledRowAvx2,
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
