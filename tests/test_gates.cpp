/**
 * @file
 * Bootstrapped gate tests: full truth tables for every gate with
 * exact (zero-noise) parameters, a noisy run at paper set I, and a
 * small homomorphic adder circuit as an integration test.
 */

#include <gtest/gtest.h>

#include "support/test_util.h"
#include "tfhe/gates.h"

namespace strix {
namespace {

/** Fast zero-noise split keyset shared by the truth-table tests. */
test::TestKeys &
exactKeys()
{
    static test::TestKeys keys(test::fastParams(), test::kSeedGates);
    return keys;
}

using GateFn = LweCiphertext (*)(const ServerContext &,
                                 const LweCiphertext &,
                                 const LweCiphertext &);

struct GateCase
{
    const char *name;
    GateFn fn;
    bool truth[4]; // f(00), f(01), f(10), f(11)
};

// Without a printer gtest shows the raw bytes of the case, pointers
// included, so the discovered ctest names would change between builds.
void
PrintTo(const GateCase &gc, std::ostream *os)
{
    *os << gc.name;
}

class GateTruthTable : public ::testing::TestWithParam<GateCase>
{
};

TEST_P(GateTruthTable, MatchesTruthTable)
{
    const ClientKeyset &client = exactKeys().client;
    const ServerContext &server = exactKeys().server;
    const GateCase &gc = GetParam();
    for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
            auto ca = client.encryptBit(a);
            auto cb = client.encryptBit(b);
            auto out = gc.fn(server, ca, cb);
            EXPECT_EQ(client.decryptBit(out), gc.truth[a * 2 + b])
                << gc.name << "(" << a << "," << b << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, GateTruthTable,
    ::testing::Values(
        GateCase{"NAND", gateNand, {true, true, true, false}},
        GateCase{"AND", gateAnd, {false, false, false, true}},
        GateCase{"OR", gateOr, {false, true, true, true}},
        GateCase{"NOR", gateNor, {true, false, false, false}},
        GateCase{"XOR", gateXor, {false, true, true, false}},
        GateCase{"XNOR", gateXnor, {true, false, false, true}},
        GateCase{"ANDNY", gateAndNY, {false, true, false, false}},
        GateCase{"ANDYN", gateAndYN, {false, false, true, false}},
        GateCase{"ORNY", gateOrNY, {true, true, false, true}},
        GateCase{"ORYN", gateOrYN, {true, false, true, true}}),
    [](const ::testing::TestParamInfo<GateCase> &info) {
        return info.param.name;
    });

TEST(Gates, NotIsFreeAndCorrect)
{
    // No server here on purpose: NOT is linear, no bootstrap at all.
    const ClientKeyset &client = exactKeys().client;
    for (int a = 0; a < 2; ++a) {
        auto ca = client.encryptBit(a);
        EXPECT_EQ(client.decryptBit(gateNot(ca)), !a);
    }
}

TEST(Gates, MuxSelects)
{
    const ClientKeyset &client = exactKeys().client;
    const ServerContext &server = exactKeys().server;
    for (int a = 0; a < 2; ++a)
        for (int b = 0; b < 2; ++b)
            for (int c = 0; c < 2; ++c) {
                auto out = gateMux(server, client.encryptBit(a),
                                   client.encryptBit(b), client.encryptBit(c));
                EXPECT_EQ(client.decryptBit(out), a ? b : c)
                    << a << b << c;
            }
}

TEST(Gates, DoubleNandIsAnd)
{
    const ClientKeyset &client = exactKeys().client;
    const ServerContext &server = exactKeys().server;
    for (int a = 0; a < 2; ++a)
        for (int b = 0; b < 2; ++b) {
            auto nand = gateNand(server, client.encryptBit(a),
                                 client.encryptBit(b));
            auto and2 = gateNand(server, nand, nand);
            EXPECT_EQ(client.decryptBit(and2), a && b);
        }
}

/** 2-bit ripple-carry adder built from bootstrapped gates. */
TEST(Gates, TwoBitRippleAdder)
{
    const ClientKeyset &client = exactKeys().client;
    const ServerContext &server = exactKeys().server;
    auto add2 = [&](int x, int y) {
        LweCiphertext x0 = client.encryptBit(x & 1);
        LweCiphertext x1 = client.encryptBit((x >> 1) & 1);
        LweCiphertext y0 = client.encryptBit(y & 1);
        LweCiphertext y1 = client.encryptBit((y >> 1) & 1);

        // bit 0
        auto s0 = gateXor(server, x0, y0);
        auto c0 = gateAnd(server, x0, y0);
        // bit 1
        auto t = gateXor(server, x1, y1);
        auto s1 = gateXor(server, t, c0);
        auto carry1 = gateAnd(server, x1, y1);
        auto carry2 = gateAnd(server, t, c0);
        auto c1 = gateOr(server, carry1, carry2);

        int result = client.decryptBit(s0) | (client.decryptBit(s1) << 1) |
                     (client.decryptBit(c1) << 2);
        return result;
    };

    for (int x = 0; x < 4; ++x)
        for (int y = 0; y < 4; ++y)
            EXPECT_EQ(add2(x, y), x + y) << x << "+" << y;
}

TEST(Gates, NoisyNandAtParameterSetI)
{
    // End-to-end with the paper's 110-bit parameters and real noise,
    // on the split client/server API.
    ClientKeyset client(paramsSetI(), 321);
    ServerContext server(client.evalKeys());
    for (int a = 0; a < 2; ++a)
        for (int b = 0; b < 2; ++b) {
            auto out = gateNand(server, client.encryptBit(a),
                                client.encryptBit(b));
            EXPECT_EQ(client.decryptBit(out), !(a && b)) << a << b;
        }
}

} // namespace
} // namespace strix
