/**
 * @file
 * Layer replay for the traced run: the calls one served request makes
 * into poly, tfhe, workloads, the server codec, the network and the
 * key path, each timed by its own span on the rig's first tenant.
 *
 * Repetition counts keep the whole replay near one second at set I.
 */

#include <stdexcept>

#include "bench.h"
#include "poly/negacyclic_fft.h"
#include "server/wire_codec.h"
#include "tfhe/bootstrap.h"
#include "tfhe/keyswitch.h"
#include "tfhe/server_context.h"
#include "trace.h"
#include "workloads/circuit_analysis.h"

using namespace strix;

namespace sb {

namespace {

/** Run @p fn @p reps times, one span named @p name per call. */
template <typename Fn>
void
timed(const char *name, uint32_t parent, int reps, Fn fn)
{
    for (int i = 0; i < reps; ++i) {
        SpanScope s(name, parent);
        fn(i);
    }
}

TorusPolynomial
randomTorus(uint32_t n, Rng &rng)
{
    TorusPolynomial p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = rng.uniformTorus32();
    return p;
}

/** Uniform signed digits of the PBS gadget base. */
int32_t
randomDigit(const TfheParams &p, Rng &rng)
{
    const uint32_t base = p.decompBase();
    return int32_t(rng.uniformBelow(base)) - int32_t(base / 2);
}

} // namespace

ReplayFacts
replayLayers(Rig &rig, uint64_t seed)
{
    const Tenant &t = rig.tenants[0];
    const std::shared_ptr<const EvalKeys> &keys = t.keys->evalKeys();
    const TfheParams &p = keys->params();
    const BootstrappingKey &bsk = keys->bsk();
    const KeySwitchKey &ksk = keys->ksk();
    Rng rng(mix(seed, 0x7e9));
    ReplayFacts facts;
    SpanScope root("replay");
    const uint32_t R = root.id();

    // -- poly: the transforms inside one external product --------------
    const NegacyclicFft &fft = NegacyclicFft::get(p.N);
    IntPolynomial digit(p.N);
    for (size_t i = 0; i < p.N; ++i)
        digit[i] = randomDigit(p, rng);
    FreqPolynomial fa, fb;
    fft.forward(fa, digit);
    fft.forward(fb, randomTorus(p.N, rng));
    timed("poly.fft_fwd", R, 300, [&](int) { fft.forward(fa, digit); });
    TorusPolynomial back(p.N);
    timed("poly.fft_inv", R, 300, [&](int) { fft.inverse(back, fa); });
    FreqPolynomial acc = fa;
    timed("poly.mac", R, 300, [&](int) {
        NegacyclicFft::mulAccumulate(acc, fa, fb);
    });
    const size_t rows = size_t(p.k + 1) * p.l_bsk;
    std::vector<int32_t> coeffs(rows * p.N);
    for (auto &c : coeffs)
        c = randomDigit(p, rng);
    std::vector<Cplx> fdigits(rows * p.N / 2);
    timed("poly.fft_fwd_batch", R, 200, [&](int) {
        fft.forwardBatch(fdigits.data(), coeffs.data(), rows);
    });

    // -- tfhe: one blind-rotation step and the PBS around it ----------
    const GadgetParams g{p.bg_bits, p.l_bsk};
    const TorusPolynomial tp = randomTorus(p.N, rng);
    std::vector<int32_t> digits(size_t(p.l_bsk) * p.N);
    timed("tfhe.decompose", R, 300, [&](int) {
        gadgetDecomposePolyInto(digits.data(), tp, g);
    });
    GlweCiphertext glwe(p.k, p.N), prod(p.k, p.N);
    for (uint32_t c = 0; c <= p.k; ++c)
        glwe.poly(c) = randomTorus(p.N, rng);
    PbsScratch scratch;
    timed("tfhe.external_product", R, 200, [&](int i) {
        bsk.bit(size_t(i) % bsk.n()).externalProduct(prod, glwe, scratch);
    });
    timed("tfhe.external_product_per_poly", R, 200, [&](int i) {
        bsk.bit(size_t(i) % bsk.n())
            .externalProductPerPoly(prod, glwe, scratch);
    });
    // The parts of one PBS+KS and the whole are timed in interleaved
    // rounds, so a drift in host speed during the replay moves both
    // sides of tfhe.pbs_sum_gap_pct alike.
    const int64_t m = int64_t(rng.uniformBelow(kPbsSpace));
    const LweCiphertext ct = t.keys->encryptInt(m, kPbsSpace, rng);
    ServerContext ctx(keys);
    GlweCiphertext rot = glwe, br;
    LweCiphertext big, small;
    for (int round = 0; round < 5; ++round) {
        timed("tfhe.cmux_rotate", R, 60, [&](int i) {
            const uint32_t power =
                1 + uint32_t(rng.uniformBelow(2 * p.N - 1));
            bsk.bit(size_t(i) % bsk.n()).cmuxRotate(rot, power, scratch);
        });
        timed("tfhe.blind_rotate", R, 1, [&](int) {
            br = GlweCiphertext::trivial(p.k, t.pbs_tv);
            blindRotate(br, ct, bsk, scratch);
        });
        timed("tfhe.sample_extract", R, 60,
              [&](int) { big = sampleExtract(br, 0); });
        timed("tfhe.keyswitch", R, 2,
              [&](int) { small = keySwitch(big, ksk); });
        // Single-thread PBS+KS through the evaluation engine.
        timed("tfhe.pbs_ks", R, 1,
              [&](int) { small = ctx.bootstrap(ct, t.pbs_tv); });
    }
    if (t.keys->decryptInt(small, kPbsSpace) != t.pbs_table[size_t(m)])
        throw std::runtime_error("replayed PBS decoded wrongly");

    // One default-width sweep at the pool size the executor's shards
    // use.
    const std::vector<LweCiphertext> batch(16, ct);
    timed("tfhe.sweep16", R, 3,
          [&](int) { (void)ctx.bootstrapBatch(batch, t.pbs_tv); });
    facts.sweep_threads = ctx.batchThreads();
    for (size_t i = 0; i < bsk.n(); ++i)
        for (const FreqPolynomial &row : bsk.bit(i).rawRows())
            facts.bsk_fft_bytes += row.size() * sizeof(Cplx);
    facts.ksk_bytes = uint64_t(ksk.inDim()) * ksk.gadget().levels *
                      (uint64_t(ksk.outDim()) + 1) * sizeof(Torus32);

    // -- key path ------------------------------------------------------
    timed("keys.evk2_decode", R, 3,
          [&](int) { (void)decodeEvalKeysPayload(t.evk2); });

    // -- workloads: the plan and the plan-driven in-process eval -------
    const Circuit adder = buildAdder(kAdderBits);
    CircuitPlan plan = analyzeCircuit(adder, p);
    timed("circuit.plan", R, 20,
          [&](int) { plan = analyzeCircuit(adder, p); });
    facts.circuit_pbs = plan.pbsCount();
    facts.circuit_depth = plan.depth();
    std::vector<bool> bits(adder.numInputs());
    std::vector<LweCiphertext> inputs;
    for (size_t i = 0; i < bits.size(); ++i) {
        bits[i] = rng.uniformBelow(2) != 0;
        inputs.push_back(t.keys->encryptBit(bits[i], rng));
    }
    std::vector<LweCiphertext> outs;
    timed("circuit.eval_sync", R, 2, [&](int) {
        outs = adder.evalEncrypted(ctx, inputs, plan);
    });
    const std::vector<bool> want = adder.evalPlain(bits);
    for (size_t i = 0; i < want.size(); ++i)
        if (i >= outs.size() || t.keys->decryptBit(outs[i]) != want[i])
            throw std::runtime_error("replayed circuit decoded wrongly");

    // -- server codec: a Bootstrap request and its reply ---------------
    const std::vector<uint8_t> req = encodeBootstrapPayload(ct, t.pbs_tv);
    const std::vector<LweCiphertext> reply{small};
    timed("codec.req_decode", R, 200,
          [&](int) { (void)decodeBootstrapPayload(req); });
    std::vector<uint8_t> reply_bytes;
    timed("codec.reply_encode", R, 200,
          [&](int) { reply_bytes = encodeCiphertexts(reply); });
    facts.req_frame_bytes = kMsg1HeaderBytes + req.size();
    facts.reply_frame_bytes = kMsg1HeaderBytes + reply_bytes.size();

    // -- network: an empty round trip to the idle server --------------
    timed("net.ping", R, 200, [&](int) {
        if (!rig.admin.ping())
            throw std::runtime_error("ping failed");
    });
    return facts;
}

} // namespace sb
