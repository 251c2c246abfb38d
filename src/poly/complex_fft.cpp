/**
 * @file
 * FFT plan construction (tables only -- the butterfly loops live in
 * the dispatched kernel backends, poly/simd_*.cpp).
 */

#include "poly/complex_fft.h"

#include <cmath>

#include "common/logging.h"
#include "poly/plan_cache.h"
#include "poly/simd.h"

namespace strix {

FftPlan::FftPlan(size_t m) : m_(m)
{
    panicIfNot(m >= 2 && (m & (m - 1)) == 0, "FFT size must be 2^k >= 2");
    // The permutation table stores 32-bit indices; enforce the
    // narrowing contract rather than silently wrapping for absurd
    // plan sizes.
    panicIfNot(m <= (uint64_t{1} << 32), "FFT size exceeds 2^32");

    bit_reverse_.resize(m);
    size_t log_m = 0;
    while ((size_t{1} << log_m) < m)
        ++log_m;
    for (size_t i = 0; i < m; ++i) {
        size_t r = 0;
        for (size_t b = 0; b < log_m; ++b)
            if (i & (size_t{1} << b))
                r |= size_t{1} << (log_m - 1 - b);
        bit_reverse_[i] = static_cast<uint32_t>(r);
    }
    radix2_tail_ = (log_m % 2) == 1;

    // Pass-major layout in forward (largest block first) order: pass
    // L owns w^j, w^2j, w^3j for j < L/4 as three contiguous streams,
    // so the vector butterflies read twiddles with plain loads. Each
    // power is evaluated from its own angle rather than by repeated
    // multiplication, so no rounding error accumulates along a pass.
    twiddles_.reserve(m);
    for (size_t len = m; len >= 4; len >>= 2)
        for (size_t power = 1; power <= 3; ++power)
            for (size_t j = 0; j < len / 4; ++j) {
                double ang = 2.0 * M_PI * static_cast<double>(power * j) /
                             static_cast<double>(len);
                twiddles_.emplace_back(std::cos(ang), std::sin(ang));
            }
}

FftTables
FftPlan::tables() const
{
    return FftTables{m_, twiddles_.data(), twiddles_.size(), radix2_tail_};
}

void
FftPlan::forward(Cplx *data) const
{
    activeKernels().fftForward(tables(), data);
}

void
FftPlan::inverse(Cplx *data) const
{
    activeKernels().fftInverse(tables(), data);
}

void
FftPlan::forward(Cplx *data, const PolyKernels &kernels) const
{
    kernels.fftForward(tables(), data);
}

void
FftPlan::inverse(Cplx *data, const PolyKernels &kernels) const
{
    kernels.fftInverse(tables(), data);
}

namespace {

detail::Log2PlanCache<FftPlan> g_plan_cache;

} // namespace

const FftPlan &
FftPlan::get(size_t m)
{
    panicIfNot(m >= 2 && (m & (m - 1)) == 0, "FFT size must be 2^k >= 2");
    return g_plan_cache.get(m);
}

void
FftPlan::prewarm(size_t m)
{
    get(m);
}

} // namespace strix
