/**
 * @file
 * Folded negacyclic FFT implementation. Each transform is one call
 * into the runtime-dispatched kernel table (poly/simd.h), so every
 * caller -- externalProduct, blindRotate, bootstrapBatch -- picks up
 * the vector backend transparently.
 */

#include "poly/negacyclic_fft.h"

#include <algorithm>

#include "common/logging.h"
#include "poly/plan_cache.h"
#include "poly/simd.h"

namespace strix {

NegacyclicFft::NegacyclicFft(size_t n)
    : n_(n), plan_(FftPlan::get(n / 2))
{
    panicIfNot(n >= 4 && (n & (n - 1)) == 0,
               "negacyclic FFT ring dim must be 2^k >= 4");
}

void
NegacyclicFft::forwardImpl(FreqPolynomial &out, const int32_t *coeffs,
                           size_t size, const PolyKernels &kernels) const
{
    panicIfNot(size == n_, "forward: polynomial size mismatch");
    out.resize(n_ / 2);
    forward(out.data(), coeffs, kernels);
}

void
NegacyclicFft::forward(Cplx *out, const int32_t *coeffs,
                       const PolyKernels &kernels) const
{
    kernels.negacyclicForward(plan_.tables(), out, coeffs);
}

void
NegacyclicFft::forward(FreqPolynomial &out, const IntPolynomial &poly) const
{
    forward(out, poly, activeKernels());
}

void
NegacyclicFft::forward(FreqPolynomial &out, const TorusPolynomial &poly) const
{
    forward(out, poly, activeKernels());
}

void
NegacyclicFft::forward(FreqPolynomial &out, const IntPolynomial &poly,
                       const PolyKernels &kernels) const
{
    forwardImpl(out, poly.data(), poly.size(), kernels);
}

void
NegacyclicFft::forward(FreqPolynomial &out, const TorusPolynomial &poly,
                       const PolyKernels &kernels) const
{
    // Centered lift keeps magnitudes <= 2^31 and therefore the
    // double-precision products exact enough for TFHE noise budgets.
    // Torus32 is uint32_t; the int32_t view is the centered lift (and
    // a legal aliasing, signed-of-the-same-width).
    forwardImpl(out, reinterpret_cast<const int32_t *>(poly.data()),
                poly.size(), kernels);
}

void
NegacyclicFft::forwardBatch(Cplx *out, const int32_t *coeffs,
                            size_t batch) const
{
    forwardBatch(out, coeffs, batch, activeKernels());
}

void
NegacyclicFft::forwardBatch(Cplx *out, const int32_t *coeffs, size_t batch,
                            const PolyKernels &kernels) const
{
    const size_t m = n_ / 2;
    for (size_t b = 0; b < batch; ++b)
        forward(out + b * m, coeffs + b * n_, kernels);
}

void
NegacyclicFft::inverse(TorusPolynomial &out, const FreqPolynomial &freq) const
{
    inverse(out, freq, activeKernels());
}

void
NegacyclicFft::inverse(TorusPolynomial &out, const FreqPolynomial &freq,
                       const PolyKernels &kernels) const
{
    panicIfNot(freq.size() == n_ / 2, "inverse: freq size mismatch");
    FreqPolynomial work = freq;
    inverse(out, work.data(), kernels);
}

void
NegacyclicFft::inverse(TorusPolynomial &out, Cplx *work,
                       const PolyKernels &kernels) const
{
    panicIfNot(out.size() == n_, "inverse: polynomial size mismatch");
    std::fill(out.data(), out.data() + n_, Torus32{0});
    inverseAdd(out.data(), work, kernels);
}

void
NegacyclicFft::inverseAdd(Torus32 *acc, Cplx *work,
                          const PolyKernels &kernels) const
{
    kernels.negacyclicInverseAdd(plan_.tables(), acc, work);
}

void
NegacyclicFft::mulAccumulate(FreqPolynomial &out, const FreqPolynomial &a,
                             const FreqPolynomial &b)
{
    mulAccumulate(out, a, b, activeKernels());
}

void
NegacyclicFft::mulAccumulate(FreqPolynomial &out, const FreqPolynomial &a,
                             const FreqPolynomial &b,
                             const PolyKernels &kernels)
{
    panicIfNot(a.size() == b.size(), "mulAccumulate size mismatch");
    if (out.empty())
        out.assign(a.size(), Cplx(0, 0));
    // A wrong-sized non-empty accumulator used to be silently
    // zero-reinitialized, which masked shape bugs in callers (the
    // partial sum vanished along with the mismatch).
    panicIfNot(out.size() == a.size(),
               "mulAccumulate accumulator size mismatch");
    FreqPolynomial prod(a.size());
    const Cplx *key = b.data();
    kernels.vmaBlocked(prod.data(), a.data(), &key, 1, 1, 1, a.size(),
                       a.size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] += prod[i];
}

namespace {

detail::Log2PlanCache<NegacyclicFft> g_engine_cache;

} // namespace

const NegacyclicFft &
NegacyclicFft::get(size_t n)
{
    panicIfNot(n >= 4 && (n & (n - 1)) == 0,
               "negacyclic FFT ring dim must be 2^k >= 4");
    return g_engine_cache.get(n);
}

void
NegacyclicFft::prewarm(size_t n)
{
    get(n);
}

void
negacyclicMulFft(TorusPolynomial &result, const IntPolynomial &a,
                 const TorusPolynomial &b)
{
    const auto &eng = NegacyclicFft::get(a.size());
    FreqPolynomial fa, fb, prod;
    eng.forward(fa, a);
    eng.forward(fb, b);
    NegacyclicFft::mulAccumulate(prod, fa, fb);
    eng.inverse(result, prod);
}

void
negacyclicMulAddFft(TorusPolynomial &result, const IntPolynomial &a,
                    const TorusPolynomial &b)
{
    TorusPolynomial tmp(result.size());
    negacyclicMulFft(tmp, a, b);
    result.addAssign(tmp);
}

} // namespace strix
