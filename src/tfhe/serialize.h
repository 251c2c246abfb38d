/**
 * @file
 * Binary serialization for TFHE material.
 *
 * A TFHE deployment is client/server: the client keeps the secret
 * keys and ships ciphertexts plus the (public) bootstrapping and
 * keyswitching keys to the server. This module provides a compact,
 * versioned, little-endian binary format for every transferable
 * object, built on a small FrameWriter/FrameReader layer (frame header
 * = type tag + version; version-2 frames add length-checked sections).
 *
 * Evaluation keys travel in one format, the seeded `EVK2` frame
 * (nested `BSK2`/`KSK2` frames). Mask components are pure PRNG output
 * regenerable from a shipped 64-bit seed (Rng::fork per row), so the
 * frame carries only seeds + body components: ~1/(k+1) of the
 * resident BSK and ~1/(n+1) of the resident KSK -- about a third of
 * EvalKeys::residentBytes() at paper set I. deserializeEvalKeys()
 * re-expands the masks deterministically; the rebuilt bundle is
 * bit-identical to the directly generated one (same process / same
 * FFT kernel). Any other frame tag or version is rejected like
 * malformed input.
 */

#ifndef STRIX_TFHE_SERIALIZE_H
#define STRIX_TFHE_SERIALIZE_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/frame.h"
#include "tfhe/encrypted_uint.h"
#include "tfhe/eval_keys.h"
#include "tfhe/keyswitch.h"
#include "tfhe/params.h"

namespace strix {

/** Format version of the params, key, ciphertext and polynomial frames. */
inline constexpr uint32_t kSerializeVersion = 1;

/** Format version of the seeded evaluation-key frames. */
inline constexpr uint32_t kSerializeVersionSeeded = 2;

/** Frame type tags. */
enum class SerialTag : uint32_t
{
    Params = 0x50415230,           // "PAR0"
    LweKey = 0x4C4B4559,           // "LKEY"
    LweCiphertext = 0x4C435431,    // "LCT1"
    GlweKey = 0x474B4559,          // "GKEY"
    TorusPoly = 0x54504C59,        // "TPLY"
    EncryptedUint = 0x45554931,    // "EUI1"
    SeededKeySwitchKey = 0x4B534B32, // "KSK2"
    SeededBootstrapKey = 0x42534B32, // "BSK2"
    SeededEvalKeys = 0x45564B32,     // "EVK2"
};

// FrameWriter/FrameReader (the byte layer these formats are built on)
// live in common/frame.h; the enum-tag constructor overloads accept
// SerialTag values directly, so call sites are unchanged.

/** EvalKeys wire format: `EVK2`, the only one. */
enum class EvalKeysFormat
{
    // Kept only because the frozen strixbench/ benchmark names it.
    Seeded, //!< `EVK2`: mask seeds + body components
};

// --- writers ---------------------------------------------------------
void serialize(std::ostream &os, const TfheParams &p);
void serialize(std::ostream &os, const LweKey &key);
void serialize(std::ostream &os, const LweCiphertext &ct);
void serialize(std::ostream &os, const GlweKey &key);
void serialize(std::ostream &os, const TorusPolynomial &poly);
void serialize(std::ostream &os, const EncryptedUint &x);
/**
 * One `EVK2` frame bundling params + BSK2 + KSK2: the shippable
 * server keyset, masks replaced by the bundle's seeds.
 */
void serialize(std::ostream &os, const EvalKeys &keys);

// --- readers (throw std::runtime_error on malformed input) -----------
TfheParams deserializeParams(std::istream &is);
LweKey deserializeLweKey(std::istream &is);
LweCiphertext deserializeLweCiphertext(std::istream &is);
GlweKey deserializeGlweKey(std::istream &is);
TorusPolynomial deserializeTorusPolynomial(std::istream &is);
EncryptedUint deserializeEncryptedUint(std::istream &is);
/**
 * Read an `EVK2` bundle: every mask re-expands from the shipped seeds
 * (bit-identical to the bundle the seeds came from) and the seeds are
 * kept, so the result re-serializes byte-exactly. BSK/KSK shapes are
 * cross-validated against the embedded parameter frame (mismatches
 * throw rather than yielding a bundle that silently evaluates
 * garbage). Returned behind shared_ptr, ready to hand to any number
 * of ServerContexts.
 */
std::shared_ptr<const EvalKeys> deserializeEvalKeys(std::istream &is);

} // namespace strix

#endif // STRIX_TFHE_SERIALIZE_H
