/**
 * @file
 * Radix-based encrypted integers on top of programmable
 * bootstrapping.
 *
 * An EncryptedUint is a little-endian vector of LWE digits, each
 * holding `digit_bits` bits in the centered LUT encoding with message
 * space 2^(digit_bits+1) (one headroom bit so a digit sum plus carry
 * stays in-window before the PBS splits it). Arithmetic is carry/
 * borrow propagation where every digit/carry extraction is one PBS --
 * exactly the n-bit-operation workloads the paper's XHEC baseline
 * accelerates.
 */

#ifndef STRIX_TFHE_INTEGER_H
#define STRIX_TFHE_INTEGER_H

#include <vector>

#include "tfhe/client_keyset.h"
#include "tfhe/encrypted_uint.h"
#include "tfhe/server_context.h"

namespace strix {

/**
 * Integer arithmetic engine bound to a ServerContext (public
 * evaluation keys only -- arithmetic provably cannot decrypt its
 * operands). Encryption and decryption are client-side operations and
 * take the ClientKeyset explicitly. digit_bits = 2 (base-4 digits) is
 * a good fit for 32-bit-torus parameter sets.
 */
class IntegerOps
{
  public:
    explicit IntegerOps(const ServerContext &server,
                        uint32_t digit_bits = 2)
        : server_(server), digit_bits_(digit_bits)
    {
    }

    /**
     * The engine stores a reference: @p server must outlive it.
     * Binding a temporary ServerContext is rejected at compile time
     * (it would dangle after the full expression).
     */
    explicit IntegerOps(const ServerContext &&, uint32_t = 2) = delete;

    uint32_t base() const { return 1u << digit_bits_; }
    /** Message space per digit PBS (one headroom bit). */
    uint64_t space() const { return uint64_t(base()) * 2; }

    /**
     * Encrypt @p value as @p num_digits base-2^digit_bits digits
     * under @p client's secret key (which must match the server's
     * evaluation keys).
     */
    EncryptedUint encrypt(const ClientKeyset &client, uint64_t value,
                          uint32_t num_digits) const;

    /** Decrypt to a uint64 (mod base^num_digits). */
    uint64_t decrypt(const ClientKeyset &client,
                     const EncryptedUint &x) const;

    /**
     * Homomorphic addition modulo base^n: ripple carry, two PBS per
     * digit (digit extraction + carry extraction).
     */
    EncryptedUint add(const EncryptedUint &a, const EncryptedUint &b) const;

    /** Homomorphic subtraction modulo base^n (borrow chain). */
    EncryptedUint sub(const EncryptedUint &a, const EncryptedUint &b) const;

    /** Add a small plaintext constant (same carry structure). */
    EncryptedUint addScalar(const EncryptedUint &a, uint64_t value) const;

    /** Encrypted equality test: returns an encrypted bit (0/1 digit). */
    LweCiphertext equal(const EncryptedUint &a,
                        const EncryptedUint &b) const;

    /** Encrypted unsigned less-than: a < b, as an encrypted bit. */
    LweCiphertext lessThan(const EncryptedUint &a,
                           const EncryptedUint &b) const;

    /** Decrypt an encrypted bit produced by equal()/lessThan(). */
    bool decryptBit(const ClientKeyset &client,
                    const LweCiphertext &ct) const
    {
        return client.decryptInt(ct, space()) != 0;
    }

    /** Encrypted NOT of a 0/1 digit (linear, no PBS). */
    LweCiphertext notBit(const LweCiphertext &b) const;

    /**
     * Oblivious digit select: sel ? hi : lo, where sel is a 0/1 digit
     * and hi/lo are digits in [0, base). Two PBS: the selector packs
     * into the headroom bit (v = sel*base + x), and each PBS keeps
     * its half of the packed domain.
     */
    LweCiphertext selectDigit(const LweCiphertext &sel,
                              const LweCiphertext &hi,
                              const LweCiphertext &lo) const;

    /** Trivial (noiseless) digit encryption, e.g. for constants. */
    LweCiphertext trivialDigit(uint64_t value) const;

    /**
     * PBS/KS cost of one n-digit addition (for scheduling on the
     * accelerator model): 2 PBS per digit.
     */
    static uint64_t addPbsCount(uint32_t num_digits)
    {
        return 2ull * num_digits;
    }

  private:
    /**
     * Recenter the sum of @p terms centered encodings: each carries a
     * +1/(4p) half-offset, so the sum of k has k-1 extra.
     */
    LweCiphertext recenter(LweCiphertext sum, uint32_t terms) const;

    const ServerContext &server_;
    uint32_t digit_bits_;
};

} // namespace strix

#endif // STRIX_TFHE_INTEGER_H
