/**
 * @file
 * EvalKeys: the public evaluation-key bundle a client ships to a
 * server.
 *
 * A TFHE deployment separates two roles (the paper's Fig. 1): the
 * *client* owns the secret keys and encrypts/decrypts; the *server*
 * evaluates PBS streams holding only public key material -- the
 * bootstrapping key (BSK) and the keyswitching key (KSK). EvalKeys is
 * exactly that server-side bundle: parameters + BSK + KSK, immutable
 * after construction, shared by `std::shared_ptr` so any number of
 * ServerContexts (and the ContextCache) reference one copy with zero
 * key duplication.
 *
 * EvalKeys contains no secret key and no RNG; code that only sees an
 * EvalKeys (or a ServerContext built on one) provably cannot decrypt.
 * Bundles serialize as seeded `EVK2` frames (serialize.h:
 * `serialize(os, keys)` / `deserializeEvalKeys(is)`), so a client can
 * export its evaluation keys to a remote server: the rebuilt bundle
 * is bit-identical to the original, making evaluation under it
 * bit-identical too.
 */

#ifndef STRIX_TFHE_EVAL_KEYS_H
#define STRIX_TFHE_EVAL_KEYS_H

#include <memory>

#include "tfhe/bootstrap.h"
#include "tfhe/keyswitch.h"

namespace strix {

/**
 * Mask-stream root seeds recorded by seeded keygen
 * (BootstrappingKey::generateSeeded / KeySwitchKey::generateSeeded).
 * The EVK2 frame ships these plus the body components only, ~1/(k+1)
 * of the resident size; the seeds are public material -- the masks
 * they expand to are public in every LWE ciphertext anyway.
 */
struct EvalKeySeeds
{
    uint64_t bsk_mask; //!< BSK mask stream root
    uint64_t ksk_mask; //!< KSK mask stream root
};

/**
 * Immutable public evaluation-key bundle: parameters, bootstrapping
 * key, keyswitching key. Thread-safe by construction (all accessors
 * are const and the state never changes after the constructor).
 */
class EvalKeys
{
  public:
    /**
     * Bundle @p bsk and @p ksk produced by the seeded keygen path for
     * @p params; @p seeds are their mask stream roots, kept so the
     * bundle serializes as an EVK2 frame (serialize.h). Panics if the
     * key shapes do not match the parameter set (a mismatched bundle
     * would silently produce garbage ciphertexts).
     */
    EvalKeys(TfheParams params, BootstrappingKey bsk, KeySwitchKey ksk,
             EvalKeySeeds seeds);

    const TfheParams &params() const { return params_; }
    const BootstrappingKey &bsk() const { return bsk_; }
    const KeySwitchKey &ksk() const { return ksk_; }

    /** Mask stream roots of the BSK and KSK. */
    const EvalKeySeeds &seeds() const { return seeds_; }

    /** Approximate in-memory bundle size (time-domain equivalent). */
    uint64_t bytes() const
    {
        return params_.bskBytes() + params_.kskBytes();
    }

    /**
     * Actual resident size of the key material as stored: the
     * frequency-domain BSK rows (16 bytes per complex point -- 4x the
     * time-domain torus estimate of bytes()) plus the KSK rows. This
     * is what one cached tenant costs a server, and the unit
     * ContextCache budgets and accounts evictions in.
     */
    uint64_t residentBytes() const;

  private:
    TfheParams params_;
    BootstrappingKey bsk_;
    KeySwitchKey ksk_;
    EvalKeySeeds seeds_;
};

} // namespace strix

#endif // STRIX_TFHE_EVAL_KEYS_H
