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

namespace {

/**
 * Append @p count points to @p table as split blocks of 4 (4 real
 * parts, then 4 imaginary parts; a short last block zero-padded),
 * point j being exp(i*ang(j)). Each point is evaluated from its own
 * angle rather than by repeated multiplication, so no rounding error
 * accumulates along a table.
 */
template <typename Angle>
void
appendBlocked(std::vector<double> &table, size_t count, Angle ang)
{
    for (size_t j0 = 0; j0 < count; j0 += 4) {
        double re[4] = {}, im[4] = {};
        for (size_t j = j0; j < j0 + 4 && j < count; ++j) {
            re[j - j0] = std::cos(ang(j));
            im[j - j0] = std::sin(ang(j));
        }
        table.insert(table.end(), re, re + 4);
        table.insert(table.end(), im, im + 4);
    }
}

} // namespace

FftPlan::FftPlan(size_t m) : m_(m), block_(m < 4 ? m : 4)
{
    panicIfNot(m >= 2 && (m & (m - 1)) == 0, "FFT size must be 2^k >= 2");
    // Slots are stored as 32-bit offsets into 2m doubles; enforce the
    // narrowing contract rather than silently wrapping for absurd
    // plan sizes.
    panicIfNot(m <= (uint64_t{1} << 31), "FFT size exceeds 2^31");

    size_t log_m = 0;
    while ((size_t{1} << log_m) < m)
        ++log_m;
    radix2_tail_ = (log_m % 2) == 1;
    // Natural point t sits at bit-reversed position p, which the split
    // layout stores at 2*B*(p/B) + p%B (real part).
    re_slot_.resize(m);
    for (size_t t = 0; t < m; ++t) {
        size_t p = 0;
        for (size_t b = 0; b < log_m; ++b)
            if (t & (size_t{1} << b))
                p |= size_t{1} << (log_m - 1 - b);
        re_slot_[t] =
            static_cast<uint32_t>(2 * block_ * (p / block_) + p % block_);
    }

    // Pass-major layout in forward (largest block first) order: pass
    // L owns w^j, w^2j, w^3j for j < L/4 as three contiguous blocked
    // streams, so the vector butterflies read twiddles with plain
    // loads.
    for (size_t len = m; len >= 4; len >>= 2)
        for (size_t power = 1; power <= 3; ++power)
            appendBlocked(twiddles_, len / 4, [&](size_t j) {
                return 2.0 * M_PI * static_cast<double>(power * j) /
                       static_cast<double>(len);
            });
    appendBlocked(twist_, m, [&](size_t j) {
        return M_PI * static_cast<double>(j) / static_cast<double>(2 * m);
    });
}

FftTables
FftPlan::tables() const
{
    return FftTables{m_, twiddles_.data(), twiddles_.size(), twist_.data(),
                     radix2_tail_};
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
