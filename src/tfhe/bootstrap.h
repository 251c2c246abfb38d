/**
 * @file
 * Programmable bootstrapping (Algorithm 1): modulus switching, blind
 * rotation, sample extraction, and LUT (test-vector) construction.
 */

#ifndef STRIX_TFHE_BOOTSTRAP_H
#define STRIX_TFHE_BOOTSTRAP_H

#include <functional>
#include <vector>

#include "tfhe/ggsw.h"
#include "tfhe/params.h"

namespace strix {

/**
 * Bootstrapping key: one GGSW encryption (under the GLWE key) of each
 * LWE key bit, stored in the frequency domain as Strix does in its
 * global scratchpad.
 */
class BootstrappingKey
{
  public:
    BootstrappingKey() = default;

    uint32_t n() const { return static_cast<uint32_t>(ggsw_fft_.size()); }
    const GgswFft &bit(size_t i) const { return ggsw_fft_[i]; }
    const TfheParams &params() const { return params_; }

    /** Generate from the input LWE key and output GLWE key. */
    static BootstrappingKey generate(const LweKey &lwe_key,
                                     const GlweKey &glwe_key,
                                     const TfheParams &params, Rng &rng);

    /**
     * Seeded-mask generation (ggswEncryptSeeded per key bit): every
     * mask polynomial comes from the deterministic stream rooted at
     * @p mask_seed -- GLWE row (bit i, block, level) forks stream id
     * i*(k+1)*l_bsk + block*l_bsk + level -- and only noise draws
     * from @p noise_rng. A key generated this way is fully determined
     * by (mask_seed, bodies), which is what the compressed BSK2 frame
     * ships; fromSeededBodies() reconstructs it bit-identically.
     */
    static BootstrappingKey generateSeeded(const LweKey &lwe_key,
                                           const GlweKey &glwe_key,
                                           const TfheParams &params,
                                           uint64_t mask_seed,
                                           Rng &noise_rng);

    /**
     * Rebuild a generateSeeded() key from its mask seed plus the
     * shipped frequency-domain body column: @p freq_bodies holds
     * n*(k+1)*l_bsk polynomials of N/2 points, entry
     * i*(k+1)*l_bsk + r being column k of GLWE row r of bit i. Masks
     * are re-expanded from per-row forks of @p mask_seed and forward-
     * transformed through the same per-polynomial FFT path the
     * GgswFft constructor uses, so the rebuilt key is bit-identical
     * to the generated one (same process / same FFT kernel; see
     * README). Needs no secret key. Panics on shape mismatch --
     * callers feeding untrusted bytes validate shapes first
     * (serialize.cpp does).
     */
    static BootstrappingKey
    fromSeededBodies(const TfheParams &params, uint64_t mask_seed,
                     std::vector<FreqPolynomial> freq_bodies);

    /**
     * Assemble from pre-transformed per-bit GGSWs (the seeded rebuild).
     * bits.size() must equal params.n and every GGSW must match the
     * parameter shape; panics on mismatch.
     */
    static BootstrappingKey fromBits(const TfheParams &params,
                                     std::vector<GgswFft> bits);

  private:
    std::vector<GgswFft> ggsw_fft_;
    TfheParams params_;
};

/**
 * Bootstrapping key with 2x unrolling (Bourse et al., as used by the
 * Matcha accelerator the paper compares against): key bits are taken
 * in pairs (s, t) and each pair stores GGSW(s), GGSW(t), GGSW(s*t),
 * letting one blind-rotation iteration absorb two mask elements:
 *
 *   X^{a*s + b*t} = 1 + s(X^a - 1) + t(X^b - 1)
 *                     + s*t (X^a - 1)(X^b - 1).
 *
 * Halves the iteration count at 1.5x key size and 3 external
 * products per iteration.
 */
class UnrolledBootstrappingKey
{
  public:
    UnrolledBootstrappingKey() = default;

    /** Number of unrolled iterations: ceil(n / 2). */
    uint32_t pairs() const
    {
        return static_cast<uint32_t>(triples_.size());
    }
    const TfheParams &params() const { return params_; }

    /** GGSW triple (s, t, s*t) for pair @p i. */
    const GgswFft &first(size_t i) const { return triples_[i].s; }
    const GgswFft &second(size_t i) const { return triples_[i].t; }
    const GgswFft &product(size_t i) const { return triples_[i].st; }

    static UnrolledBootstrappingKey generate(const LweKey &lwe_key,
                                             const GlweKey &glwe_key,
                                             const TfheParams &params,
                                             Rng &rng);

    /** Key bytes relative to the regular bsk: 1.5x. */
    uint64_t bytes() const;

  private:
    struct Triple
    {
        GgswFft s, t, st;
    };
    std::vector<Triple> triples_;
    TfheParams params_;
};

/**
 * Precomputed modulus switch to Z_{2N}: round(a * 2N / 2^32)
 * (Algorithm 1, line 3). The constructor derives the shift, rounding
 * bias, and wrap mask once -- it runs n times per blind rotation, so
 * hot callers hoist one instance out of their loops -- and panics on
 * a non-power-of-two ring dimension (the old per-call log2 loop spun
 * forever on one). The big_n = 2^31 edge, where 2N fills the whole
 * torus and the shift is zero, degenerates to the identity map
 * instead of the former shift-by-(0-1) underflow.
 */
class ModSwitch
{
  public:
    explicit ModSwitch(uint32_t big_n);

    /** Switch one torus scalar: round-half-up, wrapped mod 2N. */
    uint32_t operator()(Torus32 a) const
    {
        return static_cast<uint32_t>(
                   (static_cast<uint64_t>(a) + bias_) >> shift_) &
               mask_;
    }

  private:
    uint32_t shift_; //!< 32 - log2(2N); 0 when big_n == 2^31
    uint32_t mask_;  //!< 2N - 1
    uint64_t bias_;  //!< half a grid step (0 when shift_ == 0)
};

/**
 * Modulus switch one torus scalar to Z_{2N}. One-shot convenience
 * over ModSwitch; loops should hoist a ModSwitch instance instead.
 */
uint32_t modulusSwitch(Torus32 a, uint32_t big_n);

/**
 * Key-stationary blind rotation of a chunk of ciphertexts, the
 * software form of Strix's core-level batching: iteration i applies
 * bsk.bit(i) to every accumulator of the chunk before bit(i+1) is
 * touched, so each GGSW of the key streams in from memory once per
 * chunk rather than once per ciphertext. accs[c] is rotated by cts[c]
 * exactly as blindRotate would, bit for bit: the per-accumulator
 * sequence of operations is unchanged, only interleaved.
 *
 * @param accs    @p count accumulators; in: trivial GLWEs of the test
 *                vectors, out: rotated GLWEs
 * @param cts     @p count LWE ciphertexts (dimension n)
 * @param count   chunk width (0 is a no-op)
 * @param bsk     bootstrapping key
 * @param scratch per-thread working buffers shared by the chunk
 */
void blindRotateBatch(GlweCiphertext *accs, const LweCiphertext *cts,
                      size_t count, const BootstrappingKey &bsk,
                      PbsScratch &scratch);

/**
 * Blind rotation (Algorithm 1, lines 4-12): rotate @p acc by -b~, then
 * run n CMux iterations accumulating X^{a~_i * s_i}. The chunk-of-1
 * case of blindRotateBatch.
 *
 * @param acc     in: trivial GLWE of the test vector; out: rotated GLWE
 * @param ct      the LWE ciphertext being bootstrapped (dimension n)
 * @param bsk     bootstrapping key
 * @param scratch per-thread working buffers reused across iterations
 */
void blindRotate(GlweCiphertext &acc, const LweCiphertext &ct,
                 const BootstrappingKey &bsk, PbsScratch &scratch);

/** Convenience overload with a throwaway local scratch. */
void blindRotate(GlweCiphertext &acc, const LweCiphertext &ct,
                 const BootstrappingKey &bsk);

/**
 * Blind rotation with the 2x-unrolled key: ceil(n/2) iterations.
 * All working storage (pair difference, external-product output, pair
 * sum, rotation temporary) lives in @p scratch, so the hot loop is
 * allocation-free; one scratch per thread parallelizes cleanly.
 */
void blindRotateUnrolled(GlweCiphertext &acc, const LweCiphertext &ct,
                         const UnrolledBootstrappingKey &ubsk,
                         PbsScratch &scratch);

/** Convenience overload with a throwaway local scratch. */
void blindRotateUnrolled(GlweCiphertext &acc, const LweCiphertext &ct,
                         const UnrolledBootstrappingKey &ubsk);

/** PBS using the unrolled key (functionally identical to PBS). */
LweCiphertext programmableBootstrapUnrolled(
    const LweCiphertext &ct, const TorusPolynomial &test_vector,
    const UnrolledBootstrappingKey &ubsk, PbsScratch &scratch);

/** Convenience overload with a throwaway local scratch. */
LweCiphertext programmableBootstrapUnrolled(
    const LweCiphertext &ct, const TorusPolynomial &test_vector,
    const UnrolledBootstrappingKey &ubsk);

/**
 * Full PBS: blind-rotate the test vector, then sample-extract
 * coefficient 0. The result is an LWE ciphertext of dimension k*N
 * encrypting tv[phase~] (keyswitching converts it back to dim n).
 * Thread-safe: shares no mutable state; @p scratch carries all
 * working storage, so one scratch per thread parallelizes cleanly.
 */
LweCiphertext programmableBootstrap(const LweCiphertext &ct,
                                    const TorusPolynomial &test_vector,
                                    const BootstrappingKey &bsk,
                                    PbsScratch &scratch);

/** Convenience overload with a throwaway local scratch. */
LweCiphertext programmableBootstrap(const LweCiphertext &ct,
                                    const TorusPolynomial &test_vector,
                                    const BootstrappingKey &bsk);

/**
 * Encode integer message @p m in [0, msg_space) at the *center* of its
 * phase window: mu = (2m+1) / (4*msg_space). Centered encoding keeps
 * the phase of message 0 strictly positive under noise, avoiding the
 * negacyclic sign flip.
 */
Torus32 encodeLut(int64_t m, uint64_t msg_space);

/** Decode a centered-encoded message: floor(phase * 2*msg_space). */
int64_t decodeLut(Torus32 phase, uint64_t msg_space);

/**
 * Build the test vector for evaluating f: [0,msg_space) -> Torus32
 * during bootstrapping: coefficient j holds f(floor(j * msg_space/N)).
 */
TorusPolynomial makeTestVector(uint32_t big_n, uint64_t msg_space,
                               const std::function<Torus32(int64_t)> &f);

/**
 * Convenience: test vector of an integer-to-integer function with
 * centered output encoding in the same message space.
 */
TorusPolynomial makeIntTestVector(uint32_t big_n, uint64_t msg_space,
                                  const std::function<int64_t(int64_t)> &f);

} // namespace strix

#endif // STRIX_TFHE_BOOTSTRAP_H
