/**
 * @file
 * Golden digests of served outputs, one per kernel backend.
 *
 * The frequency-domain kernels may be rearranged (data layout, fused
 * passes) only if every backend keeps performing the same IEEE
 * operations in the same order. These digests pin that: a batch of
 * ServerContext::bootstrapBatch outputs, and the EVK2 bytes the
 * keygen's forward transforms produce, hashed word for word at two
 * shapes. A digest moves when any output word moves, so a kernel
 * change that is not a pure re-layout fails here even when the
 * results still decrypt correctly.
 *
 * Each backend has its own digests: the scalar reference rounds
 * differently from the AVX2+FMA kernels (fused multiply-adds, tie
 * rounding), so the two tables legitimately disagree in low bits.
 * The served outputs agree across backends at these shapes (every
 * external product rounds far from a tie); the EVK2 bytes pin the
 * forward transform's doubles and the tie probe the inverse's
 * rounding, which is where the backends differ.
 * The test checks whichever table activeKernels() latched; running
 * the suite with STRIX_FORCE_SCALAR=1 checks the scalar digests. The
 * digests also pin the plans' twiddle and twist tables, which come
 * from std::cos/std::sin: a libm rounding those differently in the
 * last bit would move them too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "common/random.h"
#include "poly/negacyclic_fft.h"
#include "poly/simd.h"
#include "tfhe/bootstrap.h"
#include "tfhe/client_keyset.h"
#include "tfhe/serialize.h"
#include "tfhe/server_context.h"

namespace strix {
namespace {

/** FNV-1a, 64 bit. */
struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void bytes(const void *p, size_t n)
    {
        const unsigned char *c = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 0x100000001b3ULL;
        }
    }
};

struct Digests
{
    uint64_t outputs; //!< every word of the 16 bootstrapped outputs
    uint64_t evk2;    //!< the serialized EVK2 bundle
    uint64_t ties;    //!< the half-spectrum inverse probe below
};

/**
 * Inverse transforms whose exact results sit on rounding ties: the
 * spectrum of a polynomial with odd coefficients, halved (an exact
 * scaling), inverts to c/2 plus the transform's rounding error, so
 * each output word records the sign of that error. Served outputs
 * round far from any tie and would not see a kernel that rounds
 * differently; these words do.
 */
uint64_t
tieProbe(uint32_t big_n)
{
    const NegacyclicFft &eng = NegacyclicFft::get(big_n);
    Rng rng(0x71E5ULL + big_n);
    Fnv1a h;
    for (int rep = 0; rep < 8; ++rep) {
        TorusPolynomial p(big_n);
        for (uint32_t j = 0; j < big_n; ++j)
            p[j] = (rng.uniformTorus32() >> 12) | 1u;
        FreqPolynomial f;
        eng.forward(f, p);
        for (Cplx &x : f)
            x *= 0.5;
        TorusPolynomial back(big_n);
        eng.inverse(back, f);
        h.bytes(back.data(), big_n * sizeof(Torus32));
    }
    return h.h;
}

/** Keygen, serialize and bootstrap 16 ciphertexts from fixed seeds. */
Digests
run(const TfheParams &p)
{
    const ClientKeyset client(p, 0x601DE11ULL);
    const uint64_t space = 4;
    Rng rng(0xD16E57ULL);
    std::vector<LweCiphertext> cts;
    for (int64_t m = 0; m < 16; ++m)
        cts.push_back(client.encryptInt(m % 4, space, rng));
    const TorusPolynomial tv = makeIntTestVector(
        p.N, space, [](int64_t v) { return (3 * v + 1) % 4; });
    const ServerContext server(client.evalKeys());
    const std::vector<LweCiphertext> out = server.bootstrapBatch(cts, tv);

    Digests d{};
    Fnv1a outputs;
    for (const LweCiphertext &ct : out) {
        EXPECT_EQ(client.decryptInt(ct, space),
                  (3 * int64_t(&ct - out.data()) + 1) % 4);
        outputs.bytes(ct.raw().data(), ct.raw().size() * sizeof(Torus32));
    }
    d.outputs = outputs.h;
    std::stringstream wire;
    serialize(wire, *client.evalKeys());
    const std::string bytes = wire.str();
    Fnv1a evk2;
    evk2.bytes(bytes.data(), bytes.size());
    d.evk2 = evk2.h;
    d.ties = tieProbe(p.N);
    return d;
}

struct Golden
{
    const char *backend;
    uint32_t big_n;
    Digests expect;
};

// Recorded with the interleaved-layout kernels that preceded the split
// re/im spectra; the split layout must reproduce them bit for bit.
const Golden kGolden[] = {
    {"avx2", 1024,
     {0x482e1edc39e9f0a0ULL, 0x2f02c9714b55cb4eULL, 0x5abb074065a9a19fULL}},
    {"scalar", 1024,
     {0x482e1edc39e9f0a0ULL, 0xf316a7d6633a8c98ULL, 0xcdcef7519ee9ab76ULL}},
    {"avx2", 128,
     {0x7a9f03f4e0d5161bULL, 0x8ed14a08b91eb43dULL, 0x9a6fe62e76ba1947ULL}},
    {"scalar", 128,
     {0x7a9f03f4e0d5161bULL, 0xfd0ad9ce1a6891d1ULL, 0xcba46606961093cdULL}},
};

void
checkShape(uint32_t big_n, uint32_t bg_bits)
{
    const char *backend = activeKernels().name;
    const Digests got = run(testParams(16, big_n, 1, 2, bg_bits, 0.0));
    for (const Golden &g : kGolden) {
        if (g.big_n != big_n || std::strcmp(g.backend, backend) != 0)
            continue;
        const std::string where =
            std::string("backend ") + backend + " N=" + std::to_string(big_n);
        EXPECT_EQ(got.outputs, g.expect.outputs)
            << where << ": output digest 0x" << std::hex << got.outputs;
        EXPECT_EQ(got.evk2, g.expect.evk2)
            << where << ": EVK2 digest 0x" << std::hex << got.evk2;
        EXPECT_EQ(got.ties, g.expect.ties)
            << where << ": tie-probe digest 0x" << std::hex << got.ties;
        return;
    }
    GTEST_SKIP() << "no golden digests for backend " << backend;
}

TEST(PbsGolden, BootstrapBatchDigestAtRingDim1024)
{
    checkShape(1024, 10);
}

TEST(PbsGolden, BootstrapBatchDigestAtRadixTwoFixtureShape)
{
    checkShape(128, 8);
}

} // namespace
} // namespace strix
