/**
 * @file
 * Serialization round-trip and malformed-input tests, including the
 * randomized structure-level fuzz sweeps: random-shape round-trips,
 * exhaustive truncation (every strict prefix must throw), header
 * bit-flips (must throw), and random payload byte-flips (must either
 * throw std::runtime_error or parse -- never crash or hang).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "poly/complex_fft.h"
#include "tfhe/integer.h"
#include "tfhe/serialize.h"
#include "support/test_util.h"

namespace strix {
namespace {

TEST(Serialize, ParamsRoundTrip)
{
    std::stringstream ss;
    serialize(ss, paramsSetII());
    TfheParams p = deserializeParams(ss);
    EXPECT_EQ(p.name, "II");
    EXPECT_EQ(p.n, paramsSetII().n);
    EXPECT_EQ(p.N, paramsSetII().N);
    EXPECT_EQ(p.l_bsk, paramsSetII().l_bsk);
    EXPECT_DOUBLE_EQ(p.lwe_noise, paramsSetII().lwe_noise);
    EXPECT_EQ(p.lambda, 128);
}

TEST(Serialize, LweKeyRoundTrip)
{
    Rng rng(1);
    LweKey key(500, rng);
    std::stringstream ss;
    serialize(ss, key);
    LweKey back = deserializeLweKey(ss);
    ASSERT_EQ(back.dim(), key.dim());
    for (uint32_t i = 0; i < key.dim(); ++i)
        EXPECT_EQ(back.bit(i), key.bit(i));
}

TEST(Serialize, CiphertextRoundTripDecrypts)
{
    Rng rng(2);
    LweKey key(128, rng);
    auto ct = lweEncrypt(key, encodeMessage(5, 16), 0.0, rng);
    std::stringstream ss;
    serialize(ss, ct);
    LweCiphertext back = deserializeLweCiphertext(ss);
    EXPECT_EQ(lweDecrypt(key, back, 16), 5);
}

TEST(Serialize, GlweKeyRoundTrip)
{
    Rng rng(3);
    GlweKey key(2, 64, rng);
    std::stringstream ss;
    serialize(ss, key);
    GlweKey back = deserializeGlweKey(ss);
    ASSERT_EQ(back.k(), 2u);
    ASSERT_EQ(back.ringDim(), 64u);
    for (uint32_t i = 0; i < 2; ++i)
        EXPECT_EQ(back.poly(i), key.poly(i));
}

TEST(Serialize, TorusPolynomialRoundTrip)
{
    Rng rng(4);
    TorusPolynomial p = test::randomTorusPoly(256, rng);
    std::stringstream ss;
    serialize(ss, p);
    EXPECT_EQ(deserializeTorusPolynomial(ss), p);
}

TEST(Serialize, EncryptedUintRoundTrip)
{
    test::TestKeys keys(testParams(32, 256, 1, 3, 8, 0.0), 99);
    IntegerOps ops(keys.server);
    EncryptedUint x = ops.encrypt(keys.client, 201, 4);
    std::stringstream ss;
    serialize(ss, x);
    EncryptedUint back = deserializeEncryptedUint(ss);
    EXPECT_EQ(ops.decrypt(keys.client, back), 201u);
    EXPECT_EQ(back.digit_bits, x.digit_bits);
}

TEST(Serialize, MultipleFramesInOneStream)
{
    Rng rng(6);
    LweKey key(64, rng);
    auto c1 = lweEncrypt(key, encodeMessage(1, 8), 0.0, rng);
    auto c2 = lweEncrypt(key, encodeMessage(2, 8), 0.0, rng);
    std::stringstream ss;
    serialize(ss, paramsSetI());
    serialize(ss, c1);
    serialize(ss, c2);
    TfheParams p = deserializeParams(ss);
    EXPECT_EQ(p.name, "I");
    EXPECT_EQ(lweDecrypt(key, deserializeLweCiphertext(ss), 8), 1);
    EXPECT_EQ(lweDecrypt(key, deserializeLweCiphertext(ss), 8), 2);
}

TEST(Serialize, WrongTagThrows)
{
    Rng rng(7);
    LweKey key(16, rng);
    std::stringstream ss;
    serialize(ss, key);
    EXPECT_THROW(deserializeLweCiphertext(ss), std::runtime_error);
}

TEST(Serialize, TruncatedStreamThrows)
{
    Rng rng(8);
    LweKey key(64, rng);
    auto ct = lweEncrypt(key, 0, 0.0, rng);
    std::stringstream full;
    serialize(full, ct);
    std::string bytes = full.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(deserializeLweCiphertext(truncated),
                 std::runtime_error);
}

TEST(Serialize, GarbageThrows)
{
    std::stringstream ss("this is not a TFHE frame at all....");
    EXPECT_THROW(deserializeParams(ss), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Randomized structure-level fuzz sweeps.

/** Serialize one frame and return its raw bytes. */
template <typename T>
std::string
frameBytes(const T &value)
{
    std::stringstream ss;
    serialize(ss, value);
    return ss.str();
}

TEST(SerializeFuzz, RandomParamsRoundTripSweep)
{
    Rng rng(101);
    for (int iter = 0; iter < 50; ++iter) {
        TfheParams p;
        // Arbitrary field soup, including empty and longish names and
        // non-finite-free but extreme doubles.
        size_t name_len = rng.uniformBelow(64);
        for (size_t i = 0; i < name_len; ++i)
            p.name.push_back(
                static_cast<char>('a' + rng.uniformBelow(26)));
        p.n = static_cast<uint32_t>(rng.uniformTorus32());
        p.N = static_cast<uint32_t>(rng.uniformTorus32());
        p.k = static_cast<uint32_t>(rng.uniformBelow(17));
        p.l_bsk = static_cast<uint32_t>(rng.uniformBelow(65));
        p.bg_bits = static_cast<uint32_t>(rng.uniformBelow(33));
        p.l_ksk = static_cast<uint32_t>(rng.uniformBelow(65));
        p.ks_base_bits = static_cast<uint32_t>(rng.uniformBelow(33));
        p.lwe_noise = rng.uniformDouble() * 1e-3;
        p.glwe_noise = rng.uniformDouble() * 1e-12;
        p.lambda = static_cast<int>(rng.uniformBelow(257));

        std::stringstream ss;
        serialize(ss, p);
        TfheParams back = deserializeParams(ss);
        EXPECT_EQ(back.name, p.name);
        EXPECT_EQ(back.n, p.n);
        EXPECT_EQ(back.N, p.N);
        EXPECT_EQ(back.k, p.k);
        EXPECT_EQ(back.l_bsk, p.l_bsk);
        EXPECT_EQ(back.bg_bits, p.bg_bits);
        EXPECT_EQ(back.l_ksk, p.l_ksk);
        EXPECT_EQ(back.ks_base_bits, p.ks_base_bits);
        EXPECT_DOUBLE_EQ(back.lwe_noise, p.lwe_noise);
        EXPECT_DOUBLE_EQ(back.glwe_noise, p.glwe_noise);
        EXPECT_EQ(back.lambda, p.lambda);
    }
}

TEST(SerializeFuzz, RandomShapeMultiFrameRoundTripSweep)
{
    // Streams of randomly shaped, randomly ordered frames must
    // round-trip structure by structure.
    Rng rng(202);
    for (int iter = 0; iter < 25; ++iter) {
        std::stringstream ss;

        size_t lwe_dim = 1 + rng.uniformBelow(300);
        LweKey lkey(static_cast<uint32_t>(lwe_dim), rng);
        serialize(ss, lkey);

        size_t poly_n = size_t{1} << (1 + rng.uniformBelow(9));
        TorusPolynomial poly =
            test::randomTorusPoly(poly_n, rng);
        serialize(ss, poly);

        uint32_t k = 1 + static_cast<uint32_t>(rng.uniformBelow(3));
        uint32_t ring = 1u << (2 + rng.uniformBelow(7));
        GlweKey gkey(k, ring, rng);
        serialize(ss, gkey);

        auto ct = lweEncrypt(lkey, encodeMessage(1, 8), 0.0, rng);
        serialize(ss, ct);

        LweKey lback = deserializeLweKey(ss);
        ASSERT_EQ(lback.dim(), lkey.dim());
        for (uint32_t i = 0; i < lkey.dim(); ++i)
            ASSERT_EQ(lback.bit(i), lkey.bit(i));

        EXPECT_EQ(deserializeTorusPolynomial(ss), poly);

        GlweKey gback = deserializeGlweKey(ss);
        ASSERT_EQ(gback.k(), k);
        ASSERT_EQ(gback.ringDim(), ring);
        for (uint32_t i = 0; i < k; ++i)
            ASSERT_EQ(gback.poly(i), gkey.poly(i));

        EXPECT_EQ(lweDecrypt(lkey, deserializeLweCiphertext(ss), 8), 1);
    }
}

TEST(SerializeFuzz, EveryStrictPrefixThrows)
{
    // A frame cut anywhere before its last byte must be rejected --
    // no partial parse may leak out as a valid structure.
    Rng rng(303);
    LweKey key(48, rng);
    TfheParams params = paramsSetII();
    TorusPolynomial poly = test::randomTorusPoly(64, rng);
    auto ct = lweEncrypt(key, encodeMessage(3, 8), 0.0, rng);

    const std::string frames[] = {
        frameBytes(params),
        frameBytes(key),
        frameBytes(poly),
        frameBytes(ct),
    };
    int idx = 0;
    for (const std::string &bytes : frames) {
        SCOPED_TRACE("frame " + std::to_string(idx++));
        for (size_t cut = 0; cut < bytes.size(); ++cut) {
            std::stringstream ss(bytes.substr(0, cut));
            switch (idx - 1) {
              case 0:
                EXPECT_THROW(deserializeParams(ss), std::runtime_error)
                    << "cut=" << cut;
                break;
              case 1:
                EXPECT_THROW(deserializeLweKey(ss), std::runtime_error)
                    << "cut=" << cut;
                break;
              case 2:
                EXPECT_THROW(deserializeTorusPolynomial(ss),
                             std::runtime_error)
                    << "cut=" << cut;
                break;
              default:
                EXPECT_THROW(deserializeLweCiphertext(ss),
                             std::runtime_error)
                    << "cut=" << cut;
            }
        }
    }
}

TEST(SerializeFuzz, EveryHeaderBitFlipThrows)
{
    // The 8-byte header is tag + version; any single-bit corruption
    // of it must be rejected outright.
    Rng rng(404);
    TorusPolynomial poly = test::randomTorusPoly(32, rng);
    const std::string bytes = frameBytes(poly);
    ASSERT_GE(bytes.size(), 8u);
    for (size_t bit = 0; bit < 64; ++bit) {
        std::string corrupted = bytes;
        corrupted[bit / 8] =
            static_cast<char>(corrupted[bit / 8] ^ (1 << (bit % 8)));
        std::stringstream ss(corrupted);
        EXPECT_THROW(deserializeTorusPolynomial(ss), std::runtime_error)
            << "bit " << bit;
    }
}

TEST(SerializeFuzz, ImplausibleVectorLengthRejectedWithoutAllocating)
{
    // A hostile length field (2^32 entries = 16 GiB) must be rejected
    // by the plausibility cap, not by attempting the allocation.
    std::stringstream ss;
    serialize(ss, LweCiphertext(4));
    std::string bytes = ss.str();
    // Frame layout: tag(4) version(4) then u64 vector length.
    uint64_t huge = uint64_t{1} << 32;
    std::memcpy(&bytes[8], &huge, sizeof(huge));
    std::stringstream corrupted(bytes);
    EXPECT_THROW(deserializeLweCiphertext(corrupted), std::runtime_error);

    // A length just inside the cap on a short frame must throw
    // "truncated" after consuming the bytes that exist -- the reader
    // grows with the stream, it never eagerly allocates the claimed
    // 128 MiB (readU32Vector's incremental loop).
    uint64_t capped = (uint64_t{1} << 25) - 1;
    std::memcpy(&bytes[8], &capped, sizeof(capped));
    std::stringstream truncated(bytes);
    EXPECT_THROW(deserializeLweCiphertext(truncated), std::runtime_error);
}

// ---------------------------------------------------------------------------
// EvalKeys bundles travel as seeded EVK2 frames. Compressed bundles must
// round-trip to bit-identical keys, re-serialize byte-exactly, stay well
// under the resident key size, and get the same hostile-input hardening
// as ciphertexts: truncation, header bit-flips, payload byte-flips.

/** Tiny bundle the fuzz sweeps can afford to re-serialize often. */
const EvalKeys &
tinyEvalKeys()
{
    static test::TestKeys keys(testParams(16, 64, 1, 2, 8, 0.0),
                               test::kSeedSerialize);
    return *keys.client.evalKeys();
}

/**
 * Bit-for-bit key-material equality: every frequency-domain BSK row
 * double and every KSK row word of @p a equals its counterpart in
 * @p b.
 */
void
expectSameKeyMaterial(const EvalKeys &a, const EvalKeys &b)
{
    ASSERT_EQ(a.bsk().n(), b.bsk().n());
    size_t bad_bsk_rows = 0;
    for (size_t i = 0; i < a.bsk().n(); ++i) {
        const std::vector<FreqPolynomial> &ra = a.bsk().bit(i).rawRows();
        const std::vector<FreqPolynomial> &rb = b.bsk().bit(i).rawRows();
        ASSERT_EQ(ra.size(), rb.size()) << "bit " << i;
        for (size_t r = 0; r < ra.size(); ++r)
            if (ra[r].size() != rb[r].size() ||
                std::memcmp(ra[r].data(), rb[r].data(),
                            ra[r].size() * sizeof(Cplx)) != 0)
                ++bad_bsk_rows;
    }
    EXPECT_EQ(bad_bsk_rows, 0u) << "BSK rows differ";

    const KeySwitchKey &ka = a.ksk();
    const KeySwitchKey &kb = b.ksk();
    ASSERT_EQ(ka.inDim(), kb.inDim());
    ASSERT_EQ(ka.gadget().levels, kb.gadget().levels);
    size_t bad_ksk_rows = 0;
    for (uint32_t i = 0; i < ka.inDim(); ++i)
        for (uint32_t j = 0; j < ka.gadget().levels; ++j)
            if (ka.row(i, j).raw() != kb.row(i, j).raw())
                ++bad_ksk_rows;
    EXPECT_EQ(bad_ksk_rows, 0u) << "KSK rows differ";
}

/** Byte length of the KSK2 frame that closes the EVK2 frame of @p keys. */
size_t
ksk2FrameBytes(const EvalKeys &keys)
{
    const KeySwitchKey &ksk = keys.ksk();
    // header + [id|len|shape: dims, gadget, seed] + [id|len|bodies]
    return 8 + (12 + 24) +
           (12 + 4 * size_t(ksk.inDim()) * ksk.gadget().levels);
}

/** Byte offset of the BSK2 frame inside the EVK2 frame of @p keys. */
size_t
bsk2FrameOffset(const EvalKeys &keys)
{
    // EVK2 header + nested params frame.
    return 8 + frameBytes(keys.params()).size();
}

TEST(SerializeEvk2, FunctionalRoundTrip)
{
    // A server standing on a bundle re-expanded from seeds must
    // produce ciphertexts bit-identical to the original keyset's, with
    // one and with two GLWE mask polynomials (k) per row.
    for (uint32_t k : {1u, 2u}) {
        SCOPED_TRACE(testing::Message() << "k=" << k);
        test::TestKeys keys(testParams(32, 256, k, 3, 8, 0.0),
                            test::kSeedSerialize);
        std::stringstream wire;
        serialize(wire, *keys.client.evalKeys());

        std::shared_ptr<const EvalKeys> shipped =
            deserializeEvalKeys(wire);
        ASSERT_NE(shipped, nullptr);
        EXPECT_EQ(shipped->params().N, 256u);
        EXPECT_EQ(shipped->params().k, k);
        ServerContext remote(shipped);

        const uint64_t space = 8;
        auto square = [](int64_t v) { return (v * v) % 8; };
        for (int64_t m = 0; m < 4; ++m) {
            auto ct = keys.client.encryptInt(m, space);
            LweCiphertext here = keys.server.applyLut(ct, space, square);
            LweCiphertext there = remote.applyLut(ct, space, square);
            EXPECT_EQ(here.raw(), there.raw()) << "m=" << m;
            EXPECT_EQ(keys.client.decryptInt(there, space), (m * m) % 8);
        }
    }
}

TEST(SerializeEvk2, RebuiltBundleIsBitIdenticalToOriginal)
{
    // Re-expanded masks plus shipped bodies must reproduce every
    // FFT-domain BSK row and every KSK entry of the original bit for
    // bit, not merely decrypt the same.
    const EvalKeys &orig = tinyEvalKeys();
    std::stringstream wire(frameBytes(orig));
    std::shared_ptr<const EvalKeys> rebuilt = deserializeEvalKeys(wire);
    ASSERT_NE(rebuilt, nullptr);
    expectSameKeyMaterial(*rebuilt, orig);
}

TEST(SerializeEvk2, ReserializeIsByteExact)
{
    // v2 -> bundle -> v2 must reproduce the frame byte-for-byte (the
    // rebuilt bundle keeps its mask seeds).
    const std::string bytes = frameBytes(tinyEvalKeys());
    std::stringstream ss(bytes);
    std::shared_ptr<const EvalKeys> back = deserializeEvalKeys(ss);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->seeds().bsk_mask, tinyEvalKeys().seeds().bsk_mask);
    EXPECT_EQ(back->seeds().ksk_mask, tinyEvalKeys().seeds().ksk_mask);
    EXPECT_EQ(frameBytes(*back), bytes);
}

TEST(SerializeEvk2, RandomShapeRoundTripSweep)
{
    // Byte-exact re-serialization and bit-identical key material
    // across random small key shapes.
    Rng rng(909);
    for (int iter = 0; iter < 4; ++iter) {
        uint32_t n = 4 + uint32_t(rng.uniformBelow(12));
        uint32_t big_n = 16u << rng.uniformBelow(3);
        uint32_t k = 1 + uint32_t(rng.uniformBelow(2));
        uint32_t l = 1 + uint32_t(rng.uniformBelow(3));
        SCOPED_TRACE(testing::Message() << "n=" << n << " N=" << big_n
                                        << " k=" << k << " l=" << l);
        ClientKeyset client(testParams(n, big_n, k, l, 8, 0.0),
                            2000 + uint64_t(iter));

        const std::string bytes = frameBytes(*client.evalKeys());
        std::stringstream ss(bytes);
        std::shared_ptr<const EvalKeys> back = deserializeEvalKeys(ss);
        ASSERT_NE(back, nullptr);
        EXPECT_EQ(frameBytes(*back), bytes);
        expectSameKeyMaterial(*back, *client.evalKeys());
    }
}

TEST(SerializeEvk2, WideGadgetShapeLoadsAndBootstraps)
{
    // k=3, l=5: (k+1)^2*l = 80 rows per GGSW, more than the VMA kernel
    // stages on the stack. Every wire check accepts the shape, so the
    // bundle must load, re-serialize byte-exactly and bootstrap
    // bit-identically to the original -- never abort the reader.
    ClientKeyset client(testParams(8, 64, 3, 5, 6, 0.0), 0xC0FFEE);
    const std::string bytes = frameBytes(*client.evalKeys());
    std::stringstream ss(bytes);
    std::shared_ptr<const EvalKeys> back = deserializeEvalKeys(ss);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(frameBytes(*back), bytes);
    expectSameKeyMaterial(*back, *client.evalKeys());

    ServerContext here(client.evalKeys());
    ServerContext there(back);
    const uint64_t space = 4;
    auto lut = [](int64_t v) { return (v + 3) % 4; };
    std::vector<LweCiphertext> cts;
    for (int64_t m = 0; m < 4; ++m)
        cts.push_back(client.encryptInt(m, space));
    std::vector<LweCiphertext> swept = there.applyLutBatch(cts, space, lut);
    for (size_t i = 0; i < cts.size(); ++i) {
        EXPECT_EQ(here.applyLut(cts[i], space, lut).raw(), swept[i].raw())
            << "m=" << i;
        EXPECT_EQ(client.decryptInt(swept[i], space), lut(int64_t(i)))
            << "m=" << i;
    }
}

TEST(SerializeEvk2, CompressesWellUnderTheExpandedFrame)
{
    // The bar is <= 55% of the resident (expanded) key bytes; the
    // seeded frame drops all mask material (~1/(k+1) of the BSK,
    // ~1/(n+1) of the KSK), which lands well under that even at tiny
    // shapes.
    const EvalKeys &keys = tinyEvalKeys();
    const uint64_t resident = keys.residentBytes();
    const size_t wire = frameBytes(keys).size();
    EXPECT_LE(double(wire), 0.55 * double(resident))
        << "resident=" << resident << " evk2=" << wire;
}

TEST(SerializeEvk2, StrictPrefixSampleThrows)
{
    // The frame is ~100 KiB, so (unlike the small-frame sweep above)
    // cutting at *every* byte is quadratic; sample instead: the whole
    // header/shape region densely, then two strides and random
    // interior cuts, and the last bytes.
    const std::string bytes = frameBytes(tinyEvalKeys());
    ASSERT_GT(bytes.size(), 512u);

    std::vector<size_t> cuts;
    for (size_t c = 0; c < 256; ++c)
        cuts.push_back(c);
    for (size_t stride : {size_t{499}, size_t{997}})
        for (size_t c = 256; c < bytes.size(); c += stride)
            cuts.push_back(c);
    for (uint64_t seed : {uint64_t{707}, uint64_t{1010}}) {
        Rng rng(seed);
        for (int i = 0; i < 64; ++i)
            cuts.push_back(rng.uniformBelow(bytes.size()));
    }
    for (size_t back = 1; back <= 16; ++back)
        cuts.push_back(bytes.size() - back);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    for (size_t cut : cuts) {
        std::stringstream ss(bytes.substr(0, cut));
        EXPECT_THROW(deserializeEvalKeys(ss), std::runtime_error)
            << "cut=" << cut;
    }
}

TEST(SerializeEvk2, EveryHeaderBitFlipThrows)
{
    // The outer EVK2 header, the nested params header, and the nested
    // BSK2 and KSK2 frame headers: any single-bit corruption of any of
    // them must be rejected outright.
    const EvalKeys &keys = tinyEvalKeys();
    const std::string bytes = frameBytes(keys);
    const size_t headers[] = {0, 8, bsk2FrameOffset(keys),
                              bytes.size() - ksk2FrameBytes(keys)};
    for (size_t off : headers) {
        ASSERT_LE(off + 8, bytes.size());
        for (size_t bit = 0; bit < 64; ++bit) {
            std::string corrupted = bytes;
            corrupted[off + bit / 8] = static_cast<char>(
                corrupted[off + bit / 8] ^ (1 << (bit % 8)));
            std::stringstream ss(corrupted);
            EXPECT_THROW(deserializeEvalKeys(ss), std::runtime_error)
                << "header at " << off << ", bit " << bit;
        }
    }
}

TEST(SerializeEvk2, TamperedSectionLengthThrows)
{
    // The BSK2 SHAPE section sits right after the nested params frame:
    // [id u32][length u64][payload]. Corrupting the declared length --
    // short, long, or hostile-huge -- must be rejected by the section
    // bounds checks, never trusted for allocation.
    const EvalKeys &keys = tinyEvalKeys();
    const std::string bytes = frameBytes(keys);
    // BSK2 header (8) + section id (4).
    const size_t len_off = bsk2FrameOffset(keys) + 8 + 4;
    ASSERT_LE(len_off + 8, bytes.size());

    for (uint64_t bad : {uint64_t{0}, uint64_t{27}, uint64_t{29},
                         uint64_t{1} << 40, ~uint64_t{0}}) {
        std::string corrupted = bytes;
        std::memcpy(&corrupted[len_off], &bad, sizeof(bad));
        std::stringstream ss(corrupted);
        EXPECT_THROW(deserializeEvalKeys(ss), std::runtime_error)
            << "len=" << bad;
    }
}

TEST(SerializeEvk2, RandomByteFlipsNeverCrash)
{
    // Each corruption may parse or throw std::runtime_error; a crash,
    // hang, abort, or unbounded allocation is a bug. Aimed flips hit
    // the structure: the headers, params and BSK2 shape section at the
    // front, and the whole KSK2 frame (shape section and Torus32
    // bodies) at the back, so shape-field corruption must be caught by
    // the plausibility caps and the params cross-checks. Uniform flips
    // land mostly in bodies (freq-domain doubles / raw Torus32), which
    // change values, not structure.
    const EvalKeys &keys = tinyEvalKeys();
    const std::string base = frameBytes(keys);
    // BSK2 header (8) + shape section (12 + 28).
    const size_t head = bsk2FrameOffset(keys) + 8 + 40;
    const size_t tail = ksk2FrameBytes(keys);
    ASSERT_LT(head + tail, base.size());
    auto flipAndParse = [&](Rng &rng, auto &&pickPos) {
        std::string corrupted = base;
        size_t flips = 1 + rng.uniformBelow(4);
        for (size_t f = 0; f < flips; ++f) {
            size_t pos = pickPos();
            corrupted[pos] = static_cast<char>(
                corrupted[pos] ^
                static_cast<char>(1 + rng.uniformBelow(255)));
        }
        std::stringstream ss(corrupted);
        try {
            std::shared_ptr<const EvalKeys> back =
                deserializeEvalKeys(ss);
            // Parsed: the cross-checks must still have held.
            ASSERT_NE(back, nullptr);
            EXPECT_EQ(back->bsk().n(), back->params().n);
        } catch (const std::runtime_error &) {
            // Rejected: fine.
        }
    };
    Rng aimed(808);
    for (int iter = 0; iter < 300; ++iter)
        flipAndParse(aimed, [&] {
            size_t pos = aimed.uniformBelow(head + tail);
            return pos < head ? pos : pos + base.size() - head - tail;
        });
    Rng uniform(1111);
    for (int iter = 0; iter < 60; ++iter)
        flipAndParse(uniform,
                     [&] { return uniform.uniformBelow(base.size()); });
}

TEST(SerializeEvk2, MismatchedKskIsRejected)
{
    // Splice the KSK2 frame of a *different* keyset shape into an
    // otherwise valid EVK2 frame: the params cross-check must refuse
    // to assemble a bundle that would silently evaluate garbage.
    test::TestKeys keys(testParams(16, 64, 1, 2, 8, 0.0), 11);
    test::TestKeys other(testParams(24, 128, 1, 2, 8, 0.0), 12);
    const EvalKeys &mine = *keys.client.evalKeys();
    const EvalKeys &theirs = *other.client.evalKeys();

    // Outer header + params + BSK2 come from `keys`, KSK2 from `other`.
    std::string bytes = frameBytes(mine);
    const std::string donor = frameBytes(theirs);
    ASSERT_GT(bytes.size(), ksk2FrameBytes(mine));
    ASSERT_GT(donor.size(), ksk2FrameBytes(theirs));
    bytes.resize(bytes.size() - ksk2FrameBytes(mine));
    const std::string bad_ksk =
        donor.substr(donor.size() - ksk2FrameBytes(theirs));
    ASSERT_EQ(bad_ksk.substr(0, 4), "2KSK") << "KSK2 tag, little-endian";
    bytes += bad_ksk;

    std::stringstream ss(bytes);
    EXPECT_THROW(deserializeEvalKeys(ss), std::runtime_error);
}

TEST(SerializeEvk2, RetiredExpandedFrameIsRejected)
{
    // The expanded v1 generation (tag "EVK1", version 1, then params
    // and full BSK/KSK rows) is no longer a wire format: its header
    // alone must be refused like any unknown frame.
    std::stringstream ss;
    {
        FrameWriter fw(ss, 0x45564B31u /* "EVK1" */, 1);
    }
    serialize(ss, tinyEvalKeys().params());
    ss << std::string(64, '\0');
    EXPECT_THROW(deserializeEvalKeys(ss), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Wire order: the FFT keeps spectra in bit-reversed order internally,
// but frequency rows travel in natural order.

/** Little-endian double at @p in. */
double
readF64Le(const unsigned char *in)
{
    uint64_t bits = 0;
    for (int b = 0; b < 8; ++b)
        bits |= uint64_t(in[b]) << (8 * b);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

TEST(SerializeWireOrder, StagedRowsAreNaturalOrderSpectra)
{
    // Pin the byte order against first principles: wire point t of a
    // staged BSK2 body row is A_{2t} of the folded, twisted body
    // polynomial,
    //   sum_{j<N/2} (a_j + i*a_{j+N/2}) e^{i*pi*j/N} e^{2*pi*i*j*t/(N/2)},
    // evaluated directly in O(N^2) from the GGSW's torus polynomials
    // (centered lift), with no FFT in the reference.
    const uint32_t big_n = 64;
    TfheParams p = testParams(1, big_n, 1, 2, 8, 1e-4);
    Rng rng(17);
    LweKey lwe_key(p.n, rng);
    GlweKey key(p.k, big_n, rng);
    const GadgetParams g{p.bg_bits, p.l_bsk};
    const EvalKeySeeds seeds{rng.next64(), rng.next64()};
    // Bit 0 of a seeded BSK: its rows fork stream ids from 0.
    const GgswCiphertext ggsw = ggswEncryptSeeded(
        key, lwe_key.bit(0), g, p.glwe_noise, Rng(seeds.bsk_mask), 0, rng);
    std::vector<GgswFft> bits;
    bits.emplace_back(ggsw);
    const EvalKeys keys(
        p, BootstrappingKey::fromBits(p, std::move(bits)),
        KeySwitchKey::generateSeeded(key.extractedLweKey(), lwe_key, p,
                                     seeds.ksk_mask, rng),
        seeds);

    const std::string frame = frameBytes(keys);
    const size_t half_n = big_n / 2;
    // BSK2 header (8), shape section (12 + 28), body section id + len.
    const size_t body_len_off = bsk2FrameOffset(keys) + 8 + 40 + 4;
    ASSERT_LE(body_len_off + 8 + ggsw.rows() * half_n * 16, frame.size());
    uint64_t body_len;
    std::memcpy(&body_len, frame.data() + body_len_off, sizeof(body_len));
    ASSERT_EQ(body_len, ggsw.rows() * half_n * 16);
    // One body polynomial (column k) per GLWE row, row-major.
    const auto *rows = reinterpret_cast<const unsigned char *>(
        frame.data() + body_len_off + 8);

    for (size_t r = 0; r < ggsw.rows(); ++r) {
        const TorusPolynomial &poly = ggsw.row(r).poly(p.k);
        const unsigned char *row = rows + r * half_n * 16;
        for (size_t t = 0; t < half_n; ++t) {
            Cplx want(0, 0);
            for (size_t j = 0; j < half_n; ++j) {
                const Cplx u(static_cast<int32_t>(poly[j]),
                             static_cast<int32_t>(poly[j + half_n]));
                const double ang =
                    M_PI * double(j) / double(big_n) +
                    2.0 * M_PI * double(j * t) / double(half_n);
                want += u * Cplx(std::cos(ang), std::sin(ang));
            }
            const double tol = 1e-9 * 0x1p31 * double(half_n);
            EXPECT_NEAR(readF64Le(row + t * 16), want.real(), tol)
                << "row " << r << " point " << t;
            EXPECT_NEAR(readF64Le(row + t * 16 + 8), want.imag(), tol)
                << "row " << r << " point " << t;
        }
    }
}

/**
 * tests/data/evk2_radix2_n16_N128.bin: the EVK2 frame of
 * ClientKeyset(testParams(16, 128, 1, 2, 8, 0.0), 0x5EED0C7A), written
 * by the build whose FFT was radix-2 with an explicit bit-reversal
 * pass and natural-order output (commit 1830015). Secret keys come
 * from pure RNG draws, so regenerating the keyset here yields the
 * same secret keys the fixture's bundle was made under.
 */
TEST(SerializeWireOrder, RadixTwoBuildEvk2FixtureLoadsAndBootstraps)
{
    std::ifstream in(STRIX_TEST_DATA_DIR "/evk2_radix2_n16_N128.bin",
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << "fixture missing";
    const std::string fixture((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    std::stringstream wire(fixture);
    std::shared_ptr<const EvalKeys> loaded = deserializeEvalKeys(wire);
    ASSERT_NE(loaded, nullptr);

    const TfheParams p = testParams(16, 128, 1, 2, 8, 0.0);
    ASSERT_EQ(loaded->params().N, p.N);
    ASSERT_EQ(loaded->params().n, p.n);
    const ClientKeyset client(p, 0x5EED0C7A);

    // Staging is a pure permutation: the loaded bodies re-serialize to
    // the very bytes the older build wrote.
    std::stringstream again;
    serialize(again, *loaded);
    EXPECT_EQ(again.str(), fixture);

    // The fixture's natural-order bodies land in this build's
    // internal order: every row matches a fresh keygen of the same
    // seed up to FFT rounding. A misplaced order would differ by the
    // full magnitude of the spectrum.
    const BootstrappingKey &mine = client.evalKeys()->bsk();
    const BootstrappingKey &theirs = loaded->bsk();
    ASSERT_EQ(theirs.n(), mine.n());
    double worst = 0.0;
    for (size_t i = 0; i < mine.n(); ++i) {
        const auto &a = mine.bit(i).rawRows();
        const auto &b = theirs.bit(i).rawRows();
        ASSERT_EQ(a.size(), b.size());
        for (size_t r = 0; r < a.size(); ++r)
            for (size_t j = 0; j < a[r].size(); ++j)
                worst = std::max(worst, std::abs(a[r][j] - b[r][j]));
    }
    EXPECT_LT(worst, 1e-3) << "spectra differ beyond FFT rounding";

    // And the bundle decode-checks under this build's kernels.
    ServerContext server(loaded);
    const uint64_t space = 4;
    auto lut = [](int64_t v) { return (3 * v + 1) % 4; };
    std::vector<LweCiphertext> cts;
    for (int64_t m = 0; m < 8; ++m)
        cts.push_back(client.encryptInt(m % 4, space));
    for (size_t i = 0; i < cts.size(); ++i)
        EXPECT_EQ(client.decryptInt(server.applyLut(cts[i], space, lut),
                                    space),
                  lut(int64_t(i % 4)))
            << "ciphertext " << i;
    std::vector<LweCiphertext> swept = server.applyLutBatch(cts, space, lut);
    for (size_t i = 0; i < swept.size(); ++i)
        EXPECT_EQ(client.decryptInt(swept[i], space), lut(int64_t(i % 4)))
            << "swept ciphertext " << i;
}

} // namespace
} // namespace strix
