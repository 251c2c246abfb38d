/**
 * @file
 * Binary serialization implementation.
 *
 * Everything is built on FrameWriter/FrameReader (serialize.h): the
 * small v1 frames use the raw (sectionless) primitives, while the
 * seeded evaluation-key frames use length-checked sections. The BSK
 * body column is staged row-by-row into a byte buffer and moved in
 * bulk instead of per-word stream calls.
 */

#include "tfhe/serialize.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "poly/complex_fft.h"

namespace strix {

// FrameWriter/FrameReader implementations moved to common/frame.cpp.

namespace {

/** Section ids used by the v2 frames. */
constexpr uint32_t kSectionShape = 1;
constexpr uint32_t kSectionBodies = 2;

void
writeU32Vector(FrameWriter &fw, const std::vector<uint32_t> &v)
{
    fw.u64(v.size());
    for (uint32_t x : v)
        fw.u32(x);
}

std::vector<uint32_t>
readU32Vector(FrameReader &fr)
{
    uint64_t n = fr.u64();
    // No serialized structure holds a vector anywhere near 2^25
    // entries (LWE dims cap at 2^24); a bigger count is a corrupt or
    // hostile length field (found by the fuzz sweep in
    // tests/test_serialize.cpp).
    if (n > (1ull << 25))
        throw std::runtime_error("serialize: implausible vector size");
    // Grow with the bytes actually present rather than trusting the
    // length field with one eager allocation: a flipped length byte
    // on a short frame then throws "truncated" after consuming what
    // exists instead of first resizing to 128 MiB.
    std::vector<uint32_t> v;
    v.reserve(static_cast<size_t>(std::min<uint64_t>(n, 4096)));
    for (uint64_t i = 0; i < n; ++i)
        v.push_back(fr.u32());
    return v;
}

/** Little-endian encode @p bits at @p out (8 bytes). */
void
putU64Le(unsigned char *out, uint64_t bits)
{
    for (int b = 0; b < 8; ++b)
        out[b] = static_cast<unsigned char>(bits >> (8 * b));
}

/** Little-endian decode 8 bytes at @p in. */
uint64_t
getU64Le(const unsigned char *in)
{
    uint64_t bits = 0;
    for (int b = 0; b < 8; ++b)
        bits |= uint64_t(in[b]) << (8 * b);
    return bits;
}

/**
 * Stage @p row into @p buf, 16 bytes per complex point, in natural
 * spectral order: wire point t is A_{2t}, which the FFT keeps at
 * internal index bit_reverse[t] (poly/negacyclic_fft.h). Writing the
 * natural order keeps the byte format independent of how the
 * transform orders its output, so frames from older builds, whose
 * FFT produced natural order directly, still load.
 */
void
stageFreqPoly(std::vector<unsigned char> &buf, const FreqPolynomial &row)
{
    const std::vector<uint32_t> &rev = FftPlan::get(row.size()).bitReverse();
    buf.resize(row.size() * 16);
    for (size_t t = 0; t < row.size(); ++t) {
        uint64_t re_bits, im_bits;
        const Cplx point = row[rev[t]];
        const double re = point.real(), im = point.imag();
        std::memcpy(&re_bits, &re, sizeof(re_bits));
        std::memcpy(&im_bits, &im, sizeof(im_bits));
        putU64Le(buf.data() + t * 16, re_bits);
        putU64Le(buf.data() + t * 16 + 8, im_bits);
    }
}

/**
 * Decode a staged freq row (half_n points, natural order) back into
 * @p row in the FFT's internal bit-reversed order; the inverse of
 * stageFreqPoly.
 */
void
unstageFreqPoly(FreqPolynomial &row, const std::vector<unsigned char> &buf,
                size_t half_n)
{
    const std::vector<uint32_t> &rev = FftPlan::get(half_n).bitReverse();
    row.resize(half_n);
    for (size_t t = 0; t < half_n; ++t) {
        uint64_t re_bits = getU64Le(buf.data() + t * 16);
        uint64_t im_bits = getU64Le(buf.data() + t * 16 + 8);
        double re, im;
        std::memcpy(&re, &re_bits, sizeof(re));
        std::memcpy(&im, &im_bits, sizeof(im));
        row[rev[t]] = Cplx(re, im);
    }
}

/**
 * Plausibility caps for a BSK shape off the wire -- same caps as the
 * LWE/GLWE key readers, plus power-of-two N >= 4: the FFT engine (and
 * the spectral-order tables the row staging uses) panics (aborts) on
 * other sizes, and hostile input must throw, never abort.
 */
void
checkBskShape(uint32_t n, uint32_t k, uint32_t big_n,
              const GadgetParams &g)
{
    if (n == 0 || n > (1u << 24) || k == 0 || k > 16 || big_n < 4 ||
        big_n > (1u << 20) || (big_n & (big_n - 1)) != 0 ||
        g.levels == 0 || g.levels > 64 || g.base_bits == 0 ||
        g.base_bits > 32)
        throw std::runtime_error("serialize: implausible bsk shape");
}

} // namespace

void
serialize(std::ostream &os, const TfheParams &p)
{
    FrameWriter fw(os, SerialTag::Params, kSerializeVersion);
    fw.u64(p.name.size());
    fw.bytes(p.name.data(), p.name.size());
    fw.u32(p.n);
    fw.u32(p.N);
    fw.u32(p.k);
    fw.u32(p.l_bsk);
    fw.u32(p.bg_bits);
    fw.u32(p.l_ksk);
    fw.u32(p.ks_base_bits);
    fw.f64(p.lwe_noise);
    fw.f64(p.glwe_noise);
    fw.u32(static_cast<uint32_t>(p.lambda));
}

TfheParams
deserializeParams(std::istream &is)
{
    FrameReader fr(is, SerialTag::Params, kSerializeVersion, "params");
    TfheParams p;
    uint64_t len = fr.u64();
    if (len > 4096)
        throw std::runtime_error("serialize: implausible name length");
    p.name.resize(len);
    fr.bytes(p.name.data(), len);
    p.n = fr.u32();
    p.N = fr.u32();
    p.k = fr.u32();
    p.l_bsk = fr.u32();
    p.bg_bits = fr.u32();
    p.l_ksk = fr.u32();
    p.ks_base_bits = fr.u32();
    p.lwe_noise = fr.f64();
    p.glwe_noise = fr.f64();
    p.lambda = static_cast<int>(fr.u32());
    return p;
}

void
serialize(std::ostream &os, const LweKey &key)
{
    FrameWriter fw(os, SerialTag::LweKey, kSerializeVersion);
    fw.u64(key.dim());
    for (uint32_t i = 0; i < key.dim(); ++i)
        fw.u32(static_cast<uint32_t>(key.bit(i)));
}

LweKey
deserializeLweKey(std::istream &is)
{
    FrameReader fr(is, SerialTag::LweKey, kSerializeVersion, "LWE key");
    uint64_t n = fr.u64();
    if (n > (1u << 24))
        throw std::runtime_error("serialize: implausible key size");
    std::vector<int32_t> bits(n);
    for (auto &b : bits)
        b = static_cast<int32_t>(fr.u32());
    return LweKey(std::move(bits));
}

void
serialize(std::ostream &os, const LweCiphertext &ct)
{
    FrameWriter fw(os, SerialTag::LweCiphertext, kSerializeVersion);
    writeU32Vector(fw, ct.raw());
}

LweCiphertext
deserializeLweCiphertext(std::istream &is)
{
    FrameReader fr(is, SerialTag::LweCiphertext, kSerializeVersion,
                   "LWE ciphertext");
    std::vector<uint32_t> raw = readU32Vector(fr);
    if (raw.empty())
        throw std::runtime_error("serialize: empty ciphertext");
    LweCiphertext ct(static_cast<uint32_t>(raw.size() - 1));
    ct.raw() = std::move(raw);
    return ct;
}

void
serialize(std::ostream &os, const GlweKey &key)
{
    FrameWriter fw(os, SerialTag::GlweKey, kSerializeVersion);
    fw.u32(key.k());
    fw.u32(key.ringDim());
    for (uint32_t i = 0; i < key.k(); ++i)
        for (uint32_t j = 0; j < key.ringDim(); ++j)
            fw.u32(static_cast<uint32_t>(key.poly(i)[j]));
}

GlweKey
deserializeGlweKey(std::istream &is)
{
    FrameReader fr(is, SerialTag::GlweKey, kSerializeVersion,
                   "GLWE key");
    uint32_t k = fr.u32();
    uint32_t big_n = fr.u32();
    if (k > 16 || big_n > (1u << 20))
        throw std::runtime_error("serialize: implausible GLWE key");
    std::vector<IntPolynomial> polys(k, IntPolynomial(big_n));
    for (uint32_t i = 0; i < k; ++i)
        for (uint32_t j = 0; j < big_n; ++j)
            polys[i][j] = static_cast<int32_t>(fr.u32());
    return GlweKey(std::move(polys));
}

void
serialize(std::ostream &os, const TorusPolynomial &poly)
{
    FrameWriter fw(os, SerialTag::TorusPoly, kSerializeVersion);
    fw.u64(poly.size());
    for (size_t i = 0; i < poly.size(); ++i)
        fw.u32(poly[i]);
}

TorusPolynomial
deserializeTorusPolynomial(std::istream &is)
{
    FrameReader fr(is, SerialTag::TorusPoly, kSerializeVersion,
                   "torus polynomial");
    uint64_t n = fr.u64();
    if (n > (1u << 24))
        throw std::runtime_error("serialize: implausible poly size");
    TorusPolynomial poly(n);
    for (size_t i = 0; i < n; ++i)
        poly[i] = fr.u32();
    return poly;
}

void
serialize(std::ostream &os, const EncryptedUint &x)
{
    FrameWriter fw(os, SerialTag::EncryptedUint, kSerializeVersion);
    fw.u32(x.digit_bits);
    fw.u64(x.digits.size());
    for (const auto &d : x.digits)
        writeU32Vector(fw, d.raw());
}

EncryptedUint
deserializeEncryptedUint(std::istream &is)
{
    FrameReader fr(is, SerialTag::EncryptedUint, kSerializeVersion,
                   "encrypted uint");
    EncryptedUint x;
    x.digit_bits = fr.u32();
    uint64_t n = fr.u64();
    if (n > (1u << 16))
        throw std::runtime_error("serialize: implausible digit count");
    for (uint64_t i = 0; i < n; ++i) {
        std::vector<uint32_t> raw = readU32Vector(fr);
        if (raw.empty())
            throw std::runtime_error("serialize: empty digit");
        LweCiphertext ct(static_cast<uint32_t>(raw.size() - 1));
        ct.raw() = std::move(raw);
        x.digits.push_back(std::move(ct));
    }
    return x;
}

// --- evaluation-key frames (seeded, v2) --------------------------------

namespace {

/**
 * BSK2: shape + mask seed in one checked section, then the
 * frequency-domain *body column* of every GLWE row (column k of
 * GgswFft::rawRows) in another. The k mask columns per row are not
 * written -- the reader re-expands them from per-row forks of the
 * seed (BootstrappingKey::fromSeededBodies), cutting the frame to
 * ~1/(k+1) of the resident BSK.
 */
void
writeSeededBsk(std::ostream &os, const BootstrappingKey &bsk,
               uint64_t mask_seed)
{
    FrameWriter fw(os, SerialTag::SeededBootstrapKey,
                   kSerializeVersionSeeded);
    const TfheParams &p = bsk.params();
    fw.beginSection(kSectionShape);
    fw.u32(bsk.n());
    fw.u32(p.k);
    fw.u32(p.N);
    fw.u32(p.bg_bits);
    fw.u32(p.l_bsk);
    fw.u64(mask_seed);
    fw.endSection();

    const size_t rows_per_bit = size_t(p.k + 1) * p.l_bsk;
    fw.beginSection(kSectionBodies);
    std::vector<unsigned char> buf;
    for (uint32_t i = 0; i < bsk.n(); ++i) {
        for (size_t r = 0; r < rows_per_bit; ++r) {
            stageFreqPoly(buf, bsk.bit(i).row(r, p.k));
            fw.bytes(buf.data(), buf.size());
        }
    }
    fw.endSection();
}

BootstrappingKey
readSeededBsk(std::istream &is, const TfheParams &expect,
              uint64_t &mask_seed_out)
{
    FrameReader fr(is, SerialTag::SeededBootstrapKey,
                   kSerializeVersionSeeded, "seeded bootstrapping key");
    fr.enterSection(kSectionShape, 28);
    uint32_t n = fr.u32();
    uint32_t k = fr.u32();
    uint32_t big_n = fr.u32();
    GadgetParams g{fr.u32(), fr.u32()};
    mask_seed_out = fr.u64();
    fr.leaveSection();
    if (n != expect.n || k != expect.k || big_n != expect.N ||
        g.base_bits != expect.bg_bits || g.levels != expect.l_bsk)
        throw std::runtime_error(
            "serialize: eval-keys bsk/params mismatch");
    checkBskShape(n, k, big_n, g);

    const uint64_t rows = uint64_t(n) * (k + 1) * g.levels;
    const size_t half_n = size_t(big_n) / 2;
    const uint64_t poly_bytes = uint64_t(half_n) * 16;
    fr.enterSection(kSectionBodies, rows * poly_bytes);
    if (fr.sectionRemaining() != rows * poly_bytes)
        throw std::runtime_error(
            "serialize: seeded bsk body length mismatch");
    std::vector<FreqPolynomial> bodies;
    // Incremental growth against hostile lengths, as everywhere: a
    // huge claimed n on a short stream throws "truncated" after
    // consuming what exists, before any multi-GiB allocation.
    bodies.reserve(std::min<uint64_t>(rows, 4096));
    std::vector<unsigned char> buf(poly_bytes);
    for (uint64_t r = 0; r < rows; ++r) {
        fr.bytes(buf.data(), buf.size());
        FreqPolynomial body;
        unstageFreqPoly(body, buf, half_n);
        bodies.push_back(std::move(body));
    }
    fr.leaveSection();
    // Shapes fully validated above: the panics inside the rebuild are
    // unreachable from wire input.
    return BootstrappingKey::fromSeededBodies(expect, mask_seed_out,
                                              std::move(bodies));
}

/**
 * KSK2: shape + mask seed in one checked section, then only the body
 * scalar of every LWE row -- 1/(n+1) of the resident KSK. Masks
 * re-expand from per-row forks of the seed
 * (KeySwitchKey::fromSeededBodies).
 */
void
writeSeededKsk(std::ostream &os, const KeySwitchKey &ksk,
               uint64_t mask_seed)
{
    FrameWriter fw(os, SerialTag::SeededKeySwitchKey,
                   kSerializeVersionSeeded);
    fw.beginSection(kSectionShape);
    fw.u32(ksk.inDim());
    fw.u32(ksk.outDim());
    fw.u32(ksk.gadget().base_bits);
    fw.u32(ksk.gadget().levels);
    fw.u64(mask_seed);
    fw.endSection();

    fw.beginSection(kSectionBodies);
    for (uint32_t i = 0; i < ksk.inDim(); ++i)
        for (uint32_t j = 0; j < ksk.gadget().levels; ++j)
            fw.u32(ksk.row(i, j).b());
    fw.endSection();
}

KeySwitchKey
readSeededKsk(std::istream &is, const TfheParams &expect,
              uint64_t &mask_seed_out)
{
    FrameReader fr(is, SerialTag::SeededKeySwitchKey,
                   kSerializeVersionSeeded, "seeded keyswitch key");
    fr.enterSection(kSectionShape, 24);
    uint32_t in_dim = fr.u32();
    uint32_t out_dim = fr.u32();
    GadgetParams g{fr.u32(), fr.u32()};
    mask_seed_out = fr.u64();
    fr.leaveSection();
    if (uint64_t(in_dim) != uint64_t(expect.k) * expect.N ||
        out_dim != expect.n || g.levels != expect.l_ksk ||
        g.base_bits != expect.ks_base_bits)
        throw std::runtime_error(
            "serialize: eval-keys ksk/params mismatch");
    if (in_dim == 0 || in_dim > (1u << 24) || out_dim == 0 ||
        out_dim > (1u << 24) || g.levels == 0 || g.levels > 64 ||
        g.base_bits == 0 || g.base_bits > 32)
        throw std::runtime_error("serialize: implausible ksk");

    const uint64_t rows = uint64_t(in_dim) * g.levels;
    fr.enterSection(kSectionBodies, rows * 4);
    if (fr.sectionRemaining() != rows * 4)
        throw std::runtime_error(
            "serialize: seeded ksk body length mismatch");
    std::vector<Torus32> bodies;
    bodies.reserve(std::min<uint64_t>(rows, 4096));
    for (uint64_t r = 0; r < rows; ++r)
        bodies.push_back(fr.u32());
    fr.leaveSection();
    return KeySwitchKey::fromSeededBodies(in_dim, out_dim, g,
                                          mask_seed_out, bodies);
}

} // namespace

void
serialize(std::ostream &os, const EvalKeys &keys)
{
    FrameWriter fw(os, SerialTag::SeededEvalKeys,
                   kSerializeVersionSeeded);
    serialize(os, keys.params());
    writeSeededBsk(os, keys.bsk(), keys.seeds().bsk_mask);
    writeSeededKsk(os, keys.ksk(), keys.seeds().ksk_mask);
}

std::shared_ptr<const EvalKeys>
deserializeEvalKeys(std::istream &is)
{
    FrameReader fr(is, SerialTag::SeededEvalKeys, kSerializeVersionSeeded,
                   "eval keys");
    TfheParams p = deserializeParams(is);
    EvalKeySeeds seeds{0, 0};
    BootstrappingKey bsk = readSeededBsk(is, p, seeds.bsk_mask);
    KeySwitchKey ksk = readSeededKsk(is, p, seeds.ksk_mask);
    // Keep the seeds: the rebuilt bundle re-serializes byte-identically
    // to the original's frame.
    return std::make_shared<const EvalKeys>(p, std::move(bsk),
                                            std::move(ksk), seeds);
}

} // namespace strix
