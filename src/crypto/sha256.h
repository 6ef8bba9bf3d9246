/**
 * @file
 * SHA-256 (FIPS 180-4), used for enclave measurement (MRENCLAVE-style
 * digests), GPU BIOS attestation, and HMAC-based key derivation.
 *
 * Two compression functions share one interface:
 *
 *  - Sha256Engine::Fast (default): the SHA extensions (SHA-NI) when
 *    the CPU has them, detected once at first use and compiled with a
 *    per-function target attribute, so there is no global build flag.
 *    The state stays in two xmm registers across every block of an
 *    update(). Without SHA-NI it is the scalar loop.
 *  - Sha256Engine::Scalar: the portable FIPS 180-4 loop, the path on
 *    hosts without SHA-NI and the reference tests compare the fast
 *    engine against.
 *
 * Both produce identical digests, so the engine choice is invisible
 * to measurements, peers and recorded traces. Host speed only:
 * simulated-time measurement costs come from the platform timing
 * model, not from host wall-clock.
 */

#ifndef HIX_CRYPTO_SHA256_H_
#define HIX_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace hix::crypto
{

/** Digest size in bytes. */
inline constexpr std::size_t Sha256DigestSize = 32;

/** A SHA-256 digest. */
using Sha256Digest = std::array<std::uint8_t, Sha256DigestSize>;

/** Which compression function backs a Sha256 instance. */
enum class Sha256Engine
{
    /** Best available: SHA-NI when the CPU has it, else Scalar. */
    Fast,
    /** The portable scalar loop (cross-engine reference). */
    Scalar,
};

/** Streaming SHA-256. */
class Sha256
{
  public:
    explicit Sha256(Sha256Engine engine = Sha256Engine::Fast);

    /** True when this host's CPU offers the SHA extensions. */
    static bool hwSupported();

    /** True when this instance actually runs on SHA-NI. */
    bool usesHw() const { return use_hw_; }

    /** Restart the hash. */
    void reset();

    /** Absorb @p len bytes. */
    void update(const std::uint8_t *data, std::size_t len);

    void
    update(const Bytes &data)
    {
        update(data.data(), data.size());
    }

    void
    update(const std::string &s)
    {
        update(reinterpret_cast<const std::uint8_t *>(s.data()),
               s.size());
    }

    /** Finish and return the digest; the object needs reset() after. */
    Sha256Digest finalize();

    /** One-shot helper. */
    static Sha256Digest digest(const std::uint8_t *data, std::size_t len);
    static Sha256Digest digest(const Bytes &data);
    static Sha256Digest digest(const std::string &s);

  private:
    /** Compress @p n contiguous 64-byte blocks into the state. */
    void processBlocks(const std::uint8_t *data, std::size_t n);

    std::uint32_t h_[8];
    std::uint8_t buf_[64];
    std::size_t buf_len_;
    std::uint64_t total_len_;
    bool use_hw_;
};

}  // namespace hix::crypto

#endif  // HIX_CRYPTO_SHA256_H_
