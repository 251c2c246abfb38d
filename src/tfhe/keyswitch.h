/**
 * @file
 * LWE-to-LWE keyswitching (Algorithm 2).
 *
 * After PBS the ciphertext is encrypted under the extracted key of
 * dimension k*N. Keyswitching decomposes each mask scalar and
 * subtracts the matching combination of keyswitching-key rows,
 * yielding a ciphertext of dimension n under the original key
 * (a k*N*lk x (n+1) vector-matrix multiplication, as the paper says).
 */

#ifndef STRIX_TFHE_KEYSWITCH_H
#define STRIX_TFHE_KEYSWITCH_H

#include <vector>

#include "tfhe/decompose.h"
#include "tfhe/lwe.h"
#include "tfhe/params.h"

namespace strix {

/** Keyswitching key: rows ksk[i][j] = LWE_s(z_i * q / base^{j+1}). */
class KeySwitchKey
{
  public:
    KeySwitchKey() = default;

    uint32_t inDim() const { return in_dim_; }
    uint32_t outDim() const { return out_dim_; }
    const GadgetParams &gadget() const { return g_; }

    const LweCiphertext &row(size_t i, size_t level) const
    {
        return rows_[i * g_.levels + level];
    }

    /**
     * Generate a keyswitching key from @p from (dimension k*N,
     * typically GlweKey::extractedLweKey()) to @p to (dimension n).
     */
    static KeySwitchKey generate(const LweKey &from, const LweKey &to,
                                 const TfheParams &params, Rng &rng);

    /**
     * Seeded-mask generation (lweEncryptSeeded per row): the mask of
     * row (i, level) comes from fork i*l_ksk + level of the stream
     * rooted at @p mask_seed; only noise draws from @p noise_rng. The
     * key is fully determined by (mask_seed, bodies) -- the KSK2
     * frame ships exactly that and fromSeededBodies() reconstructs it
     * bit-identically.
     */
    static KeySwitchKey generateSeeded(const LweKey &from,
                                       const LweKey &to,
                                       const TfheParams &params,
                                       uint64_t mask_seed,
                                       Rng &noise_rng);

    /**
     * Rebuild a generateSeeded() key from its mask seed plus the
     * shipped bodies: @p bodies holds in_dim*levels scalars, entry
     * i*levels + level being b of row (i, level). Masks re-expand
     * from per-row forks of @p mask_seed; needs no secret key. Panics
     * on count mismatch -- callers feeding untrusted bytes validate
     * shapes first (serialize.cpp does).
     */
    static KeySwitchKey fromSeededBodies(uint32_t in_dim,
                                         uint32_t out_dim,
                                         const GadgetParams &g,
                                         uint64_t mask_seed,
                                         const std::vector<Torus32> &bodies);

  private:
    /** Assemble from in_dim*levels rows (fromSeededBodies). */
    static KeySwitchKey fromRows(uint32_t in_dim, uint32_t out_dim,
                                 const GadgetParams &g,
                                 std::vector<LweCiphertext> rows);

    uint32_t in_dim_ = 0;
    uint32_t out_dim_ = 0;
    GadgetParams g_{0, 0};
    std::vector<LweCiphertext> rows_;
};

/** Switch @p ct (dimension ksk.inDim()) to dimension ksk.outDim(). */
LweCiphertext keySwitch(const LweCiphertext &ct, const KeySwitchKey &ksk);

} // namespace strix

#endif // STRIX_TFHE_KEYSWITCH_H
