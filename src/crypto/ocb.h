/**
 * @file
 * OCB authenticated encryption (RFC 7253) over AES-128 with 128-bit
 * tags — the AEAD_AES_128_OCB_TAGLEN128 ciphersuite the paper uses
 * for all inter-enclave and DMA data protection (Section 5.2).
 *
 * The encryptInto/decryptInto paths are allocation-free: the L-table
 * is fully precomputed at construction, and the bulk loops take eight
 * blocks at a time. On AES-NI each batch is one fused pass
 * (Aes128::ocbEncryptBatches / ocbDecryptBatches) with the round
 * keys, offsets and checksum in registers, at close to the cipher's
 * ECB speed. The T-table and reference engines run each batch through
 * one Aes128::encryptBlocks / decryptBlocks call, doing the offset
 * chain, checksum and whitening on native 64-bit words around it.
 * Sealing a message costs |M|/16 + O(1) AES calls and zero heap
 * allocations, on every engine.
 */

#ifndef HIX_CRYPTO_OCB_H_
#define HIX_CRYPTO_OCB_H_

#include <array>
#include <cstdint>

#include "common/status.h"
#include "common/types.h"
#include "crypto/aes128.h"

namespace hix::crypto
{

/** OCB tag length in bytes (TAGLEN128). */
inline constexpr std::size_t OcbTagSize = 16;

/** Nonce length in bytes; RFC 7253 allows up to 15, we use 12. */
inline constexpr std::size_t OcbNonceSize = 12;

/** A 96-bit OCB nonce. */
using OcbNonce = std::array<std::uint8_t, OcbNonceSize>;

/** Build a nonce from a 32-bit stream id and 64-bit counter. */
OcbNonce makeNonce(std::uint32_t stream, std::uint64_t counter);

/**
 * OCB-AES-128 encryptor/decryptor bound to one key. The L-table is
 * precomputed at construction; each message costs |M|/16 + O(1) AES
 * calls.
 */
class Ocb
{
  public:
    explicit Ocb(const AesKey &key, AesEngine engine = AesEngine::Fast);

    /** Engine the underlying block cipher runs on. */
    AesEngine engine() const { return cipher_.engine(); }

    /**
     * Encrypt @p plaintext with associated data @p ad.
     * @return ciphertext || 16-byte tag.
     */
    Bytes encrypt(const OcbNonce &nonce, const Bytes &ad,
                  const Bytes &plaintext) const;

    /**
     * Raw-pointer variant: writes pt_len ciphertext bytes to @p out
     * and the tag to @p tag_out. Performs no heap allocation.
     */
    void encryptInto(const OcbNonce &nonce, const std::uint8_t *ad,
                     std::size_t ad_len, const std::uint8_t *pt,
                     std::size_t pt_len, std::uint8_t *out,
                     std::uint8_t *tag_out) const;

    /**
     * Decrypt and verify ciphertext || tag produced by encrypt().
     * @return the plaintext, or IntegrityFailure on tag mismatch.
     */
    Result<Bytes> decrypt(const OcbNonce &nonce, const Bytes &ad,
                          const Bytes &ciphertext_and_tag) const;

    /**
     * Raw-pointer variant: decrypts ct_len bytes into @p out and
     * verifies @p tag (constant-time compare). Performs no heap
     * allocation.
     */
    Status decryptInto(const OcbNonce &nonce, const std::uint8_t *ad,
                       std::size_t ad_len, const std::uint8_t *ct,
                       std::size_t ct_len, const std::uint8_t *tag,
                       std::uint8_t *out) const;

  private:
    /** L_0 .. L_63: enough for messages up to 2^64 blocks. */
    static constexpr std::size_t NumLValues = 64;

    AesBlock hashAd(const std::uint8_t *ad, std::size_t ad_len) const;
    AesBlock initialOffset(const OcbNonce &nonce) const;
    const AesBlock &
    lValue(std::size_t i) const
    {
        return l_[i];
    }

    Aes128 cipher_;
    AesBlock l_star_;
    AesBlock l_dollar_;
    /** Fully precomputed at construction — no per-message growth. */
    std::array<AesBlock, NumLValues> l_;
};

}  // namespace hix::crypto

#endif  // HIX_CRYPTO_OCB_H_
