/**
 * @file
 * PBS implementation.
 */

#include "tfhe/bootstrap.h"

#include <utility>

#include "common/logging.h"

namespace strix {

BootstrappingKey
BootstrappingKey::generateSeeded(const LweKey &lwe_key,
                                 const GlweKey &glwe_key,
                                 const TfheParams &params,
                                 uint64_t mask_seed, Rng &noise_rng)
{
    panicIfNot(lwe_key.dim() == params.n, "bsk: LWE key dim mismatch");
    panicIfNot(glwe_key.k() == params.k &&
                   glwe_key.ringDim() == params.N,
               "bsk: GLWE key shape mismatch");

    BootstrappingKey bsk;
    bsk.params_ = params;
    const GadgetParams g{params.bg_bits, params.l_bsk};
    const Rng mask_root(mask_seed);
    const uint64_t rows_per_bit =
        uint64_t(params.k + 1) * params.l_bsk;
    bsk.ggsw_fft_.reserve(params.n);
    for (uint32_t i = 0; i < params.n; ++i) {
        GgswCiphertext ggsw =
            ggswEncryptSeeded(glwe_key, lwe_key.bit(i), g,
                              params.glwe_noise, mask_root,
                              uint64_t(i) * rows_per_bit, noise_rng);
        bsk.ggsw_fft_.emplace_back(ggsw);
    }
    return bsk;
}

BootstrappingKey
BootstrappingKey::fromSeededBodies(const TfheParams &params,
                                   uint64_t mask_seed,
                                   std::vector<FreqPolynomial> freq_bodies)
{
    const uint32_t k = params.k;
    const uint32_t big_n = params.N;
    const GadgetParams g{params.bg_bits, params.l_bsk};
    const size_t rows_per_bit = size_t(k + 1) * g.levels;
    panicIfNot(freq_bodies.size() == size_t(params.n) * rows_per_bit,
               "bsk fromSeededBodies: body count mismatch");

    const auto &eng = NegacyclicFft::get(big_n);
    const Rng mask_root(mask_seed);
    GlweCiphertext scratch(k, big_n);
    std::vector<GgswFft> bits;
    bits.reserve(params.n);
    for (uint32_t i = 0; i < params.n; ++i) {
        std::vector<FreqPolynomial> rows(rows_per_bit * (k + 1));
        for (size_t r = 0; r < rows_per_bit; ++r) {
            // Identical fork id and draw order as ggswEncryptSeeded
            // (stream_base + block*levels + level == flat row index),
            // identical per-polynomial forward transform as the
            // GgswFft constructor: the regenerated mask columns are
            // bit-identical to the generated key's.
            Rng mask_rng =
                mask_root.fork(uint64_t(i) * rows_per_bit + r);
            glweFillMask(scratch, mask_rng);
            for (uint32_t c = 0; c < k; ++c)
                eng.forward(rows[r * (k + 1) + c], scratch.poly(c));
            FreqPolynomial &body = freq_bodies[i * rows_per_bit + r];
            panicIfNot(body.size() == size_t(big_n) / 2,
                       "bsk fromSeededBodies: body size mismatch");
            rows[r * (k + 1) + k] = std::move(body);
        }
        bits.push_back(
            GgswFft::fromRawRows(k, big_n, g, std::move(rows)));
    }
    return fromBits(params, std::move(bits));
}

BootstrappingKey
BootstrappingKey::fromBits(const TfheParams &params,
                           std::vector<GgswFft> bits)
{
    panicIfNot(bits.size() == params.n, "bsk: bit count mismatch");
    const GadgetParams g{params.bg_bits, params.l_bsk};
    for (const GgswFft &ggsw : bits) {
        panicIfNot(ggsw.k() == params.k && ggsw.ringDim() == params.N &&
                       ggsw.gadget().base_bits == g.base_bits &&
                       ggsw.gadget().levels == g.levels,
                   "bsk: GGSW shape mismatch");
    }
    BootstrappingKey bsk;
    bsk.params_ = params;
    bsk.ggsw_fft_ = std::move(bits);
    return bsk;
}

UnrolledBootstrappingKey
UnrolledBootstrappingKey::generate(const LweKey &lwe_key,
                                   const GlweKey &glwe_key,
                                   const TfheParams &params, Rng &rng)
{
    panicIfNot(lwe_key.dim() == params.n, "ubsk: LWE key dim mismatch");
    UnrolledBootstrappingKey ubsk;
    ubsk.params_ = params;
    GadgetParams g{params.bg_bits, params.l_bsk};
    const uint32_t pairs = (params.n + 1) / 2;
    ubsk.triples_.reserve(pairs);
    for (uint32_t i = 0; i < pairs; ++i) {
        int32_t s = lwe_key.bit(2 * i);
        // Odd n: the last pair is padded with an implicit zero bit.
        int32_t t = 2 * i + 1 < params.n ? lwe_key.bit(2 * i + 1) : 0;
        Triple tr{
            GgswFft(ggswEncrypt(glwe_key, s, g, params.glwe_noise, rng)),
            GgswFft(ggswEncrypt(glwe_key, t, g, params.glwe_noise, rng)),
            GgswFft(
                ggswEncrypt(glwe_key, s * t, g, params.glwe_noise, rng))};
        ubsk.triples_.push_back(std::move(tr));
    }
    return ubsk;
}

uint64_t
UnrolledBootstrappingKey::bytes() const
{
    // 3 GGSW per pair of key bits = 1.5x the regular bsk.
    return uint64_t(pairs()) * 3 * (params_.k + 1) * params_.l_bsk *
           (params_.k + 1) * params_.N * sizeof(uint32_t);
}

void
blindRotateUnrolled(GlweCiphertext &acc, const LweCiphertext &ct,
                    const UnrolledBootstrappingKey &ubsk,
                    PbsScratch &scratch)
{
    const TfheParams &p = ubsk.params();
    panicIfNot(ct.dim() == p.n, "blindRotateUnrolled: dim mismatch");
    const uint32_t two_n = 2 * p.N;
    const ModSwitch ms(p.N);

    const uint32_t b_tilde = ms(ct.b());
    if (b_tilde != 0) {
        GlweCiphertext rotated(p.k, p.N);
        for (uint32_t c = 0; c <= p.k; ++c)
            negacyclicRotate(rotated.poly(c), acc.poly(c),
                             two_n - b_tilde);
        acc = std::move(rotated);
    }

    // All pair-iteration working storage comes from the scratch, so
    // the ceil(n/2) hot iterations allocate nothing (externalProduct
    // uses the digit/frequency buffers, never these four).
    GlweCiphertext &d = scratch.diff;
    GlweCiphertext &prod = scratch.prod;
    GlweCiphertext &sum = scratch.sum;
    TorusPolynomial &tmp = scratch.rot_tmp;
    if (d.k() != p.k || d.ringDim() != p.N)
        d = GlweCiphertext(p.k, p.N);
    if (sum.k() != p.k || sum.ringDim() != p.N)
        sum = GlweCiphertext(p.k, p.N);
    if (tmp.size() != p.N)
        tmp = TorusPolynomial(p.N);

    for (uint32_t i = 0; i < ubsk.pairs(); ++i) {
        const uint32_t a = ms(ct.a(2 * i));
        const uint32_t b = 2 * i + 1 < p.n ? ms(ct.a(2 * i + 1)) : 0;
        if (a == 0 && b == 0)
            continue;

        sum.clear();
        // s-term: GGSW(s) [*] (X^a - 1) acc
        if (a != 0) {
            for (uint32_t c = 0; c <= p.k; ++c)
                negacyclicRotateMinusOne(d.poly(c), acc.poly(c), a);
            ubsk.first(i).externalProduct(prod, d, scratch);
            sum.addAssign(prod);
        }
        // t-term: GGSW(t) [*] (X^b - 1) acc
        if (b != 0) {
            for (uint32_t c = 0; c <= p.k; ++c)
                negacyclicRotateMinusOne(d.poly(c), acc.poly(c), b);
            ubsk.second(i).externalProduct(prod, d, scratch);
            sum.addAssign(prod);
        }
        // st-term: GGSW(s*t) [*] (X^a - 1)(X^b - 1) acc
        if (a != 0 && b != 0) {
            for (uint32_t c = 0; c <= p.k; ++c) {
                // X^{a+b} acc - X^a acc - X^b acc + acc
                negacyclicRotate(d.poly(c), acc.poly(c),
                                 (a + b) % two_n);
                negacyclicRotate(tmp, acc.poly(c), a);
                d.poly(c).subAssign(tmp);
                negacyclicRotate(tmp, acc.poly(c), b);
                d.poly(c).subAssign(tmp);
                d.poly(c).addAssign(acc.poly(c));
            }
            ubsk.product(i).externalProduct(prod, d, scratch);
            sum.addAssign(prod);
        }
        acc.addAssign(sum);
    }
}

void
blindRotateUnrolled(GlweCiphertext &acc, const LweCiphertext &ct,
                    const UnrolledBootstrappingKey &ubsk)
{
    PbsScratch scratch;
    blindRotateUnrolled(acc, ct, ubsk, scratch);
}

LweCiphertext
programmableBootstrapUnrolled(const LweCiphertext &ct,
                              const TorusPolynomial &test_vector,
                              const UnrolledBootstrappingKey &ubsk,
                              PbsScratch &scratch)
{
    const TfheParams &p = ubsk.params();
    panicIfNot(test_vector.size() == p.N,
               "unrolled PBS: test vector size mismatch");
    GlweCiphertext acc = GlweCiphertext::trivial(p.k, test_vector);
    blindRotateUnrolled(acc, ct, ubsk, scratch);
    return sampleExtract(acc, 0);
}

LweCiphertext
programmableBootstrapUnrolled(const LweCiphertext &ct,
                              const TorusPolynomial &test_vector,
                              const UnrolledBootstrappingKey &ubsk)
{
    PbsScratch scratch;
    return programmableBootstrapUnrolled(ct, test_vector, ubsk, scratch);
}

ModSwitch::ModSwitch(uint32_t big_n)
{
    panicIfNot(big_n != 0 && (big_n & (big_n - 1)) == 0,
               "modulus switch: ring dim must be a power of two");
    // log2(2N) <= 32; the loop terminates because 2N is a power of
    // two (the panic above rules everything else out).
    uint32_t log_2n = 1;
    while ((static_cast<uint64_t>(big_n) << 1) >> log_2n != 1)
        ++log_2n;
    shift_ = kTorus32Bits - log_2n;
    mask_ = static_cast<uint32_t>((static_cast<uint64_t>(big_n) << 1) - 1);
    // Round-half-up bias of half a grid step. When 2N = 2^32 the grid
    // is the torus itself: no rounding, and a bias of 1 << (shift-1)
    // would have been the old code's shift-by-minus-one underflow.
    bias_ = shift_ == 0 ? 0 : uint64_t{1} << (shift_ - 1);
}

uint32_t
modulusSwitch(Torus32 a, uint32_t big_n)
{
    return ModSwitch(big_n)(a);
}

void
blindRotateBatch(GlweCiphertext *accs, const LweCiphertext *cts,
                 size_t count, const BootstrappingKey &bsk,
                 PbsScratch &scratch)
{
    const TfheParams &p = bsk.params();
    for (size_t c = 0; c < count; ++c)
        panicIfNot(cts[c].dim() == p.n,
                   "blindRotate: ciphertext dim mismatch");
    const uint32_t two_n = 2 * p.N;
    const ModSwitch ms(p.N);

    // Initial rotation by -b~ (Algorithm 1, line 4).
    for (size_t c = 0; c < count; ++c) {
        const uint32_t b_tilde = ms(cts[c].b());
        if (b_tilde == 0)
            continue;
        GlweCiphertext &rotated = scratch.prod;
        if (rotated.k() != p.k || rotated.ringDim() != p.N)
            rotated = GlweCiphertext(p.k, p.N);
        for (uint32_t j = 0; j <= p.k; ++j)
            negacyclicRotate(rotated.poly(j), accs[c].poly(j),
                             two_n - b_tilde);
        std::swap(accs[c], rotated);
    }

    // n CMux iterations (lines 5-12), key-stationary: one GGSW serves
    // the whole chunk, through one VMA pass per sub-batch, before the
    // next is loaded. A zero a~_i skips that ciphertext only.
    std::vector<uint32_t> &powers = scratch.powers;
    powers.resize(count);
    for (uint32_t i = 0; i < p.n; ++i) {
        for (size_t c = 0; c < count; ++c)
            powers[c] = ms(cts[c].a(i));
        bsk.bit(i).cmuxRotateBatch(accs, powers.data(), count, scratch);
    }
}

void
blindRotate(GlweCiphertext &acc, const LweCiphertext &ct,
            const BootstrappingKey &bsk, PbsScratch &scratch)
{
    blindRotateBatch(&acc, &ct, 1, bsk, scratch);
}

void
blindRotate(GlweCiphertext &acc, const LweCiphertext &ct,
            const BootstrappingKey &bsk)
{
    PbsScratch scratch;
    blindRotate(acc, ct, bsk, scratch);
}

LweCiphertext
programmableBootstrap(const LweCiphertext &ct,
                      const TorusPolynomial &test_vector,
                      const BootstrappingKey &bsk, PbsScratch &scratch)
{
    const TfheParams &p = bsk.params();
    panicIfNot(test_vector.size() == p.N, "PBS: test vector size mismatch");
    GlweCiphertext acc = GlweCiphertext::trivial(p.k, test_vector);
    blindRotate(acc, ct, bsk, scratch);
    return sampleExtract(acc, 0);
}

LweCiphertext
programmableBootstrap(const LweCiphertext &ct,
                      const TorusPolynomial &test_vector,
                      const BootstrappingKey &bsk)
{
    PbsScratch scratch;
    return programmableBootstrap(ct, test_vector, bsk, scratch);
}

Torus32
encodeLut(int64_t m, uint64_t msg_space)
{
    // (2m+1) / (4p)
    return encodeMessage(2 * m + 1, 4 * msg_space);
}

int64_t
decodeLut(Torus32 phase, uint64_t msg_space)
{
    // floor(phase * 2p) over the positive half-torus.
    unsigned __int128 num =
        static_cast<unsigned __int128>(phase) * (2 * msg_space);
    return static_cast<int64_t>(static_cast<uint64_t>(num >> 32) %
                                msg_space);
}

TorusPolynomial
makeTestVector(uint32_t big_n, uint64_t msg_space,
               const std::function<Torus32(int64_t)> &f)
{
    panicIfNot(msg_space <= big_n, "LUT larger than polynomial degree");
    TorusPolynomial tv(big_n);
    for (uint32_t j = 0; j < big_n; ++j) {
        auto m = static_cast<int64_t>(
            (static_cast<uint64_t>(j) * msg_space) / big_n);
        tv[j] = f(m);
    }
    return tv;
}

TorusPolynomial
makeIntTestVector(uint32_t big_n, uint64_t msg_space,
                  const std::function<int64_t(int64_t)> &f)
{
    return makeTestVector(big_n, msg_space, [&](int64_t m) {
        return encodeLut(f(m), msg_space);
    });
}

} // namespace strix
