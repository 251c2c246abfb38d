/**
 * @file
 * MSG1 payload codec implementation.
 *
 * Every decoder reads from an istringstream over the payload bytes
 * through the validating FrameReader layer and the hardened
 * serialize.h readers, and finishes by checking the payload was
 * consumed exactly (no trailing garbage rides along). All failures
 * throw std::runtime_error.
 */

#include "server/wire_codec.h"

#include <sstream>
#include <stdexcept>

namespace strix {

namespace {

/** Sub-frame tags for the typed request headers. */
constexpr uint32_t kTagLutRequest = 0x3151554C;     // "LUQ1"
constexpr uint32_t kTagCircuitRequest = 0x31514943; // "CIQ1"
constexpr uint32_t kTagCiphertexts = 0x31535443;    // "CTS1"

std::vector<uint8_t>
streamBytes(const std::ostringstream &os)
{
    const std::string s = os.str();
    return std::vector<uint8_t>(s.begin(), s.end());
}

std::string
payloadString(const std::vector<uint8_t> &payload)
{
    return std::string(payload.begin(), payload.end());
}

void
expectFullyConsumed(std::istream &is)
{
    if (is.peek() != std::char_traits<char>::eof())
        throw std::runtime_error(
            "serialize: trailing bytes after payload");
}

} // namespace

// --- Bootstrap -------------------------------------------------------

std::vector<uint8_t>
encodeBootstrapPayload(const LweCiphertext &ct,
                       const TorusPolynomial &tv)
{
    std::ostringstream os;
    serialize(os, ct);
    serialize(os, tv);
    return streamBytes(os);
}

BootstrapRequest
decodeBootstrapPayload(const std::vector<uint8_t> &payload)
{
    std::istringstream is(payloadString(payload));
    BootstrapRequest req{deserializeLweCiphertext(is),
                         deserializeTorusPolynomial(is)};
    expectFullyConsumed(is);
    return req;
}

// --- ApplyLut --------------------------------------------------------

std::vector<uint8_t>
encodeApplyLutPayload(const LweCiphertext &ct, uint64_t msg_space,
                      const std::vector<int64_t> &table)
{
    std::ostringstream os;
    FrameWriter w(os, kTagLutRequest, 1);
    w.u64(msg_space);
    w.u64(table.size());
    for (int64_t v : table)
        w.u64(static_cast<uint64_t>(v)); // two's-complement round trip
    serialize(os, ct);
    return streamBytes(os);
}

ApplyLutRequest
decodeApplyLutPayload(const std::vector<uint8_t> &payload)
{
    std::istringstream is(payloadString(payload));
    FrameReader r(is, kTagLutRequest, 1, "LUT request");
    ApplyLutRequest req;
    req.msg_space = r.u64();
    if (req.msg_space < 2 || req.msg_space > kMaxLutMsgSpace)
        throw std::runtime_error("serialize: implausible msg_space");
    const uint64_t count = r.u64();
    if (count != req.msg_space)
        throw std::runtime_error(
            "serialize: LUT table size != msg_space");
    req.table.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        req.table.push_back(static_cast<int64_t>(r.u64()));
    req.ct = deserializeLweCiphertext(is);
    expectFullyConsumed(is);
    return req;
}

// --- EvalCircuit -----------------------------------------------------

std::vector<uint8_t>
encodeCircuitPayload(const Circuit &circuit,
                     const std::vector<LweCiphertext> &inputs)
{
    std::ostringstream os;
    FrameWriter w(os, kTagCircuitRequest, 1);
    w.u64(circuit.numNodes());
    for (Wire i = 0; i < circuit.numNodes(); ++i) {
        const Circuit::Node &n = circuit.node(i);
        w.u32(static_cast<uint32_t>(n.op));
        w.u32(n.a);
        w.u32(n.b);
        w.u32(n.c);
        w.u32(n.const_value ? 1 : 0);
    }
    w.u64(circuit.numOutputs());
    for (Wire o : circuit.outputs())
        w.u32(o);
    w.u64(inputs.size());
    for (const LweCiphertext &ct : inputs)
        serialize(os, ct);
    return streamBytes(os);
}

CircuitRequest
decodeCircuitPayload(const std::vector<uint8_t> &payload)
{
    std::istringstream is(payloadString(payload));
    FrameReader r(is, kTagCircuitRequest, 1, "circuit request");
    const uint64_t num_nodes = r.u64();
    if (num_nodes > kMaxCircuitNodes)
        throw std::runtime_error(
            "serialize: implausible circuit size");
    CircuitRequest req;
    // Rebuild through the public netlist API so its topological-order
    // panics become our validation: operands are range-checked here
    // first, so hostile indices throw instead of panicking the daemon.
    for (uint64_t i = 0; i < num_nodes; ++i) {
        const uint32_t op_raw = r.u32();
        const Wire a = r.u32();
        const Wire b = r.u32();
        const Wire c = r.u32();
        const bool const_value = r.u32() != 0;
        if (op_raw > static_cast<uint32_t>(GateOp::Const))
            throw std::runtime_error("serialize: unknown gate op");
        const auto op = static_cast<GateOp>(op_raw);
        auto checkOperand = [i](Wire w) {
            if (w >= i)
                throw std::runtime_error(
                    "serialize: circuit operand out of order");
        };
        switch (op) {
        case GateOp::Input:
            req.circuit.input();
            break;
        case GateOp::Const:
            req.circuit.constant(const_value);
            break;
        case GateOp::Not:
            checkOperand(a);
            req.circuit.notGate(a);
            break;
        case GateOp::Mux:
            checkOperand(a);
            checkOperand(b);
            checkOperand(c);
            req.circuit.mux(a, b, c);
            break;
        default:
            checkOperand(a);
            checkOperand(b);
            req.circuit.gate(op, a, b);
            break;
        }
    }
    const uint64_t num_outputs = r.u64();
    if (num_outputs > num_nodes)
        throw std::runtime_error(
            "serialize: more outputs than nodes");
    for (uint64_t i = 0; i < num_outputs; ++i) {
        const Wire o = r.u32();
        if (o >= num_nodes)
            throw std::runtime_error(
                "serialize: output wire out of range");
        req.circuit.output(o);
    }
    const uint64_t num_inputs = r.u64();
    if (num_inputs != req.circuit.numInputs())
        throw std::runtime_error(
            "serialize: input ciphertext count mismatch");
    req.inputs.reserve(num_inputs);
    for (uint64_t i = 0; i < num_inputs; ++i)
        req.inputs.push_back(deserializeLweCiphertext(is));
    expectFullyConsumed(is);
    return req;
}

// --- ciphertext vectors ----------------------------------------------

std::vector<uint8_t>
encodeCiphertexts(const std::vector<LweCiphertext> &cts)
{
    std::ostringstream os;
    FrameWriter w(os, kTagCiphertexts, 1);
    w.u64(cts.size());
    for (const LweCiphertext &ct : cts)
        serialize(os, ct);
    return streamBytes(os);
}

std::vector<LweCiphertext>
decodeCiphertexts(const std::vector<uint8_t> &payload)
{
    std::istringstream is(payloadString(payload));
    FrameReader r(is, kTagCiphertexts, 1, "ciphertext vector");
    const uint64_t count = r.u64();
    if (count > kMaxWireCiphertexts)
        throw std::runtime_error(
            "serialize: implausible ciphertext count");
    std::vector<LweCiphertext> cts;
    cts.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        cts.push_back(deserializeLweCiphertext(is));
    expectFullyConsumed(is);
    return cts;
}

// --- RegisterTenant --------------------------------------------------

std::vector<uint8_t>
encodeEvalKeysPayload(const EvalKeys &keys, EvalKeysFormat)
{
    std::ostringstream os;
    serialize(os, keys);
    return streamBytes(os);
}

std::shared_ptr<const EvalKeys>
decodeEvalKeysPayload(const std::vector<uint8_t> &payload)
{
    std::istringstream is(payloadString(payload));
    std::shared_ptr<const EvalKeys> keys = deserializeEvalKeys(is);
    expectFullyConsumed(is);
    return keys;
}

} // namespace strix
