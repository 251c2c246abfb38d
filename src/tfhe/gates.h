/**
 * @file
 * Bootstrapped boolean gates (the TFHE gate-bootstrapping API).
 *
 * Booleans are encoded as mu = +-1/8. Each binary gate computes a
 * linear combination whose phase sign encodes the result, then runs a
 * *sign bootstrap* (constant test vector 1/8) followed by keyswitching
 * -- the PBS + KS pipeline the paper's Fig. 1 breaks down.
 *
 * Gates evaluate against a ServerContext (public evaluation keys
 * only): the type system guarantees gate evaluation never touches a
 * secret key.
 */

#ifndef STRIX_TFHE_GATES_H
#define STRIX_TFHE_GATES_H

#include "tfhe/server_context.h"

namespace strix {

/** Bootstrapped NAND. */
LweCiphertext gateNand(const ServerContext &ctx, const LweCiphertext &a,
                       const LweCiphertext &b);
/** Bootstrapped AND. */
LweCiphertext gateAnd(const ServerContext &ctx, const LweCiphertext &a,
                      const LweCiphertext &b);
/** Bootstrapped OR. */
LweCiphertext gateOr(const ServerContext &ctx, const LweCiphertext &a,
                     const LweCiphertext &b);
/** Bootstrapped NOR. */
LweCiphertext gateNor(const ServerContext &ctx, const LweCiphertext &a,
                      const LweCiphertext &b);
/** Bootstrapped XOR. */
LweCiphertext gateXor(const ServerContext &ctx, const LweCiphertext &a,
                      const LweCiphertext &b);
/** Bootstrapped XNOR. */
LweCiphertext gateXnor(const ServerContext &ctx, const LweCiphertext &a,
                       const LweCiphertext &b);
/** Bootstrapped ANDNY: (not a) and b. */
LweCiphertext gateAndNY(const ServerContext &ctx, const LweCiphertext &a,
                        const LweCiphertext &b);
/** Bootstrapped ANDYN: a and (not b). */
LweCiphertext gateAndYN(const ServerContext &ctx, const LweCiphertext &a,
                        const LweCiphertext &b);
/** Bootstrapped ORNY: (not a) or b. */
LweCiphertext gateOrNY(const ServerContext &ctx, const LweCiphertext &a,
                       const LweCiphertext &b);
/** Bootstrapped ORYN: a or (not b). */
LweCiphertext gateOrYN(const ServerContext &ctx, const LweCiphertext &a,
                       const LweCiphertext &b);
/** NOT: free (negation), no bootstrap. */
LweCiphertext gateNot(const LweCiphertext &a);
/** MUX(a, b, c) = a ? b : c. Two bootstraps plus one keyswitch. */
LweCiphertext gateMux(const ServerContext &ctx, const LweCiphertext &a,
                      const LweCiphertext &b, const LweCiphertext &c);

} // namespace strix

#endif // STRIX_TFHE_GATES_H
