/**
 * @file
 * Keyswitching implementation.
 */

#include "tfhe/keyswitch.h"

#include "common/logging.h"

namespace strix {

KeySwitchKey
KeySwitchKey::generate(const LweKey &from, const LweKey &to,
                       const TfheParams &params, Rng &rng)
{
    KeySwitchKey ksk;
    ksk.in_dim_ = from.dim();
    ksk.out_dim_ = to.dim();
    ksk.g_ = GadgetParams{params.ks_base_bits, params.l_ksk};
    ksk.rows_.reserve(size_t(from.dim()) * params.l_ksk);
    for (uint32_t i = 0; i < from.dim(); ++i) {
        for (uint32_t j = 1; j <= params.l_ksk; ++j) {
            Torus32 msg = static_cast<uint32_t>(from.bit(i)) *
                          ksk.g_.levelScale(j);
            ksk.rows_.push_back(
                lweEncrypt(to, msg, params.lwe_noise, rng));
        }
    }
    return ksk;
}

KeySwitchKey
KeySwitchKey::generateSeeded(const LweKey &from, const LweKey &to,
                             const TfheParams &params,
                             uint64_t mask_seed, Rng &noise_rng)
{
    KeySwitchKey ksk;
    ksk.in_dim_ = from.dim();
    ksk.out_dim_ = to.dim();
    ksk.g_ = GadgetParams{params.ks_base_bits, params.l_ksk};
    const Rng mask_root(mask_seed);
    ksk.rows_.reserve(size_t(from.dim()) * params.l_ksk);
    for (uint32_t i = 0; i < from.dim(); ++i) {
        for (uint32_t j = 1; j <= params.l_ksk; ++j) {
            Torus32 msg = static_cast<uint32_t>(from.bit(i)) *
                          ksk.g_.levelScale(j);
            Rng mask_rng = mask_root.fork(
                uint64_t(i) * params.l_ksk + (j - 1));
            ksk.rows_.push_back(lweEncryptSeeded(
                to, msg, params.lwe_noise, mask_rng, noise_rng));
        }
    }
    return ksk;
}

KeySwitchKey
KeySwitchKey::fromSeededBodies(uint32_t in_dim, uint32_t out_dim,
                               const GadgetParams &g, uint64_t mask_seed,
                               const std::vector<Torus32> &bodies)
{
    panicIfNot(bodies.size() == size_t(in_dim) * g.levels,
               "ksk fromSeededBodies: body count mismatch");
    const Rng mask_root(mask_seed);
    std::vector<LweCiphertext> rows;
    rows.reserve(bodies.size());
    for (uint64_t r = 0; r < bodies.size(); ++r) {
        LweCiphertext ct(out_dim);
        // Same fork id as generateSeeded (i*levels + level == r) and
        // the same mask draw order as lweEncryptSeeded.
        Rng mask_rng = mask_root.fork(r);
        lweFillMask(ct, mask_rng);
        ct.b() = bodies[r];
        rows.push_back(std::move(ct));
    }
    return fromRows(in_dim, out_dim, g, std::move(rows));
}

KeySwitchKey
KeySwitchKey::fromRows(uint32_t in_dim, uint32_t out_dim,
                       const GadgetParams &g,
                       std::vector<LweCiphertext> rows)
{
    panicIfNot(rows.size() == size_t(in_dim) * g.levels,
               "ksk fromRows: row count mismatch");
    KeySwitchKey ksk;
    ksk.in_dim_ = in_dim;
    ksk.out_dim_ = out_dim;
    ksk.g_ = g;
    ksk.rows_ = std::move(rows);
    return ksk;
}

LweCiphertext
keySwitch(const LweCiphertext &ct, const KeySwitchKey &ksk)
{
    panicIfNot(ct.dim() == ksk.inDim(), "keySwitch: dim mismatch");
    const GadgetParams &g = ksk.gadget();

    // o[m] = c[n] (Algorithm 2, line 2), then subtract the decomposed
    // mask against the key rows: out -= digit * row in one pass per
    // row, wrapping mod 2^32 exactly as scale-then-subtract would.
    LweCiphertext out = LweCiphertext::trivial(ksk.outDim(), ct.b());
    std::vector<int32_t> digits(g.levels);
    Torus32 *o = out.raw().data();
    const size_t width = size_t(ksk.outDim()) + 1; // mask + body
    for (uint32_t i = 0; i < ksk.inDim(); ++i) {
        gadgetDecompose(digits.data(), ct.a(i), g);
        for (uint32_t j = 0; j < g.levels; ++j) {
            if (digits[j] == 0)
                continue;
            const uint32_t digit = static_cast<uint32_t>(digits[j]);
            const Torus32 *row = ksk.row(i, j).raw().data();
            for (size_t x = 0; x < width; ++x)
                o[x] -= digit * row[x];
        }
    }
    return out;
}

} // namespace strix
