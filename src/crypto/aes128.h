/**
 * @file
 * AES-128 block cipher (FIPS 197), implemented from scratch.
 *
 * This is the primitive under the OCB authenticated encryption used
 * on every HIX data path (Section 5.2 of the paper uses
 * OCB-AES-128). Three engines share one interface:
 *
 *  - AesEngine::Fast (default): the best path the host supports.
 *    Uses AES-NI (runtime-detected, per-function target attributes,
 *    so no global -maes build flag) when available, else the T-table
 *    path. This is the production host path. On AES-NI it also runs
 *    OCB's bulk loop as one fused pass (ocbEncryptBatches /
 *    ocbDecryptBatches), so OCB's mode work rides in the registers
 *    beside the AES rounds. Where the CPU also has VAES with AVX2
 *    (and the OS saves ymm state), the bulk loops — ECB
 *    encryptBlocks / decryptBlocks and the fused OCB pass — run
 *    sixteen blocks at a time on 256-bit registers, two blocks per
 *    instruction; a tail shorter than that takes the eight-block
 *    AES-NI loop.
 *  - AesEngine::AesNi: the eight-block AES-NI loops even where VAES
 *    exists (the T-table path without AES-NI), so tests can compare
 *    the two hardware tiers on one host.
 *  - AesEngine::TTable: precomputed 4x256 u32 T-tables for both
 *    directions, built once at static initialization from the
 *    derived S-box, plus a multi-block API that processes four
 *    blocks per inner loop. Portable fast path; forced here so
 *    tests can exercise it even on AES-NI hosts.
 *  - AesEngine::Reference: the original byte-wise scalar cipher
 *    (per-byte SubBytes, xtime MixColumns), kept as the correctness
 *    oracle the fast paths are byte-compared against in tests.
 *
 * Every engine and tier produces identical bytes (AES is
 * deterministic), so the choice is invisible to peers and recorded
 * traces.
 *
 * Host speed only: simulated-time crypto costs come from the
 * platform timing model, not from host wall-clock.
 */

#ifndef HIX_CRYPTO_AES128_H_
#define HIX_CRYPTO_AES128_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace hix::crypto
{

/** AES block size in bytes. */
inline constexpr std::size_t AesBlockSize = 16;

/** AES-128 key size in bytes. */
inline constexpr std::size_t AesKeySize = 16;

/** A single 16-byte AES block. */
using AesBlock = std::array<std::uint8_t, AesBlockSize>;

/** A 16-byte AES-128 key. */
using AesKey = std::array<std::uint8_t, AesKeySize>;

/** Which block-cipher implementation backs an Aes128 instance. */
enum class AesEngine
{
    /**
     * Best available: VAES on 256-bit registers for the bulk loops
     * when the CPU has it, else AES-NI, else T-tables.
     */
    Fast,
    /** AES-NI without the VAES tier, else T-tables. */
    AesNi,
    /** T-table implementation with the wide-block fast path. */
    TTable,
    /** Byte-wise scalar implementation (correctness oracle). */
    Reference,
};

/**
 * AES-128 with precomputed round keys for both directions.
 */
class Aes128
{
  public:
    /** Expand @p key into encryption and decryption key schedules. */
    explicit Aes128(const AesKey &key,
                    AesEngine engine = AesEngine::Fast);

    /** Engine selected at construction. */
    AesEngine engine() const { return engine_; }

    /** True when this host's CPU offers AES instructions. */
    static bool hwSupported();

    /** True when this instance actually runs on AES hardware. */
    bool usesHw() const { return use_hw_; }

    /**
     * True when this host's CPU offers VAES and AVX2 and the OS saves
     * the ymm registers, on top of AES-NI.
     */
    static bool vaesSupported();

    /** True when this instance runs its bulk loops on VAES. */
    bool usesVaes() const { return use_vaes_; }

    /** Encrypt one 16-byte block: @p out may alias @p in. */
    void encryptBlock(const std::uint8_t *in, std::uint8_t *out) const;

    /** Decrypt one 16-byte block: @p out may alias @p in. */
    void decryptBlock(const std::uint8_t *in, std::uint8_t *out) const;

    /**
     * Encrypt @p n contiguous 16-byte blocks. The fast engines batch
     * blocks per inner loop (sixteen with VAES, eight with AES-NI,
     * four with T-tables) so independent blocks pipeline; @p out may
     * alias @p in.
     */
    void encryptBlocks(const std::uint8_t *in, std::uint8_t *out,
                       std::size_t n) const;

    /** Decrypt @p n contiguous 16-byte blocks; @p out may alias @p in. */
    void decryptBlocks(const std::uint8_t *in, std::uint8_t *out,
                       std::size_t n) const;

    /**
     * OCB's bulk encryption (RFC 7253 Section 4.2) on AES
     * instructions, for Ocb; only when usesHw(). Encrypts blocks
     * 1 .. 8·@p batches of a message in one fused pass: the round
     * keys, offsets and checksum stay in registers, and each block is
     * loaded once and stored once. With VAES two batches share one
     * pass on 256-bit registers. @p l_table is L_0, L_1, ...;
     * @p offset enters as Offset_0 and leaves as Offset_{8·batches},
     * and the plaintext is XORed into @p checksum. @p out may alias
     * @p in.
     */
    void ocbEncryptBatches(const AesBlock *l_table, const std::uint8_t *in,
                           std::uint8_t *out, std::size_t batches,
                           AesBlock &offset, AesBlock &checksum) const;

    /**
     * The decryption counterpart of ocbEncryptBatches(): the recovered
     * plaintext is what goes into @p checksum.
     */
    void ocbDecryptBatches(const AesBlock *l_table, const std::uint8_t *in,
                           std::uint8_t *out, std::size_t batches,
                           AesBlock &offset, AesBlock &checksum) const;

    /** Convenience: encrypt an AesBlock value. */
    AesBlock
    encrypt(const AesBlock &in) const
    {
        AesBlock out;
        encryptBlock(in.data(), out.data());
        return out;
    }

    /** Convenience: decrypt an AesBlock value. */
    AesBlock
    decrypt(const AesBlock &in) const
    {
        AesBlock out;
        decryptBlock(in.data(), out.data());
        return out;
    }

  private:
    static constexpr int NumRounds = 10;

    void encryptBlockFast(const std::uint8_t *in,
                          std::uint8_t *out) const;
    void decryptBlockFast(const std::uint8_t *in,
                          std::uint8_t *out) const;
    void encryptBlocks4(const std::uint8_t *in, std::uint8_t *out) const;
    void decryptBlocks4(const std::uint8_t *in, std::uint8_t *out) const;
    void encryptBlockRef(const std::uint8_t *in,
                         std::uint8_t *out) const;
    void decryptBlockRef(const std::uint8_t *in,
                         std::uint8_t *out) const;

    /** Round keys as 4 words per round, 11 rounds. */
    std::array<std::uint32_t, 4 * (NumRounds + 1)> enc_keys_;
    /**
     * Equivalent-inverse-cipher round keys (InvMixColumns applied to
     * the middle rounds, order reversed) — used by the T-table and
     * AES-NI decryptors.
     */
    std::array<std::uint32_t, 4 * (NumRounds + 1)> dec_keys_;
    /**
     * The same schedules serialized big-endian per word, i.e. the
     * natural in-memory byte order AES instructions consume — kept
     * as plain bytes so this header needs no SIMD includes.
     */
    alignas(16) std::array<std::uint8_t, 16 * (NumRounds + 1)>
        enc_rk_bytes_;
    alignas(16) std::array<std::uint8_t, 16 * (NumRounds + 1)>
        dec_rk_bytes_;
    AesEngine engine_;
    bool use_hw_ = false;
    bool use_vaes_ = false;
};

}  // namespace hix::crypto

#endif  // HIX_CRYPTO_AES128_H_
