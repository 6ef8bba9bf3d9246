#include "crypto/ocb.h"

#include <bit>
#include <cstring>

#include "common/byte_utils.h"
#include "common/logging.h"

namespace hix::crypto
{

namespace
{

/** How many blocks the wide seal/open loops process per iteration.
 * Eight matches the AES-NI engine's pipelined batch width; the
 * T-table engine consumes the same batch four blocks at a time. */
constexpr std::size_t WideBlocks = 8;
constexpr std::size_t WideBytes = WideBlocks * AesBlockSize;

/**
 * One AES block as two native 64-bit words, for the wide loops' mode
 * arithmetic. XOR is bytewise, so neither the word split nor the
 * host's byte order can change a byte of the result.
 */
struct Words
{
    std::uint64_t lo;
    std::uint64_t hi;
};

Words
loadWords(const std::uint8_t *p)
{
    Words w;
    std::memcpy(&w, p, AesBlockSize);
    return w;
}

void
storeWords(std::uint8_t *p, Words w)
{
    std::memcpy(p, &w, AesBlockSize);
}

Words
operator^(Words a, Words b)
{
    return {a.lo ^ b.lo, a.hi ^ b.hi};
}

/** GF(2^128) doubling per RFC 7253 Section 2. */
AesBlock
gfDouble(const AesBlock &s)
{
    AesBlock out;
    std::uint8_t carry = s[0] >> 7;
    for (int i = 0; i < 15; ++i)
        out[i] = static_cast<std::uint8_t>((s[i] << 1) | (s[i + 1] >> 7));
    out[15] = static_cast<std::uint8_t>(s[15] << 1);
    if (carry)
        out[15] ^= 0x87;
    return out;
}

void
xorBlock(AesBlock &dst, const std::uint8_t *src)
{
    for (std::size_t i = 0; i < AesBlockSize; ++i)
        dst[i] ^= src[i];
}

}  // namespace

OcbNonce
makeNonce(std::uint32_t stream, std::uint64_t counter)
{
    OcbNonce n{};
    storeBE32(n.data(), stream);
    storeBE64(n.data() + 4, counter);
    return n;
}

Ocb::Ocb(const AesKey &key, AesEngine engine) : cipher_(key, engine)
{
    AesBlock zero{};
    l_star_ = cipher_.encrypt(zero);
    l_dollar_ = gfDouble(l_star_);
    l_[0] = gfDouble(l_dollar_);
    for (std::size_t i = 1; i < NumLValues; ++i)
        l_[i] = gfDouble(l_[i - 1]);
}

AesBlock
Ocb::hashAd(const std::uint8_t *ad, std::size_t ad_len) const
{
    AesBlock sum{};
    AesBlock offset{};
    std::uint64_t i = 1;
    while (ad_len >= AesBlockSize) {
        xorBlock(offset, lValue(std::countr_zero(i)).data());
        AesBlock tmp = offset;
        xorBlock(tmp, ad);
        tmp = cipher_.encrypt(tmp);
        xorBlock(sum, tmp.data());
        ad += AesBlockSize;
        ad_len -= AesBlockSize;
        ++i;
    }
    if (ad_len > 0) {
        xorBlock(offset, l_star_.data());
        AesBlock padded{};
        std::memcpy(padded.data(), ad, ad_len);
        padded[ad_len] = 0x80;
        xorBlock(padded, offset.data());
        padded = cipher_.encrypt(padded);
        xorBlock(sum, padded.data());
    }
    return sum;
}

AesBlock
Ocb::initialOffset(const OcbNonce &nonce) const
{
    // Nonce = num2str(TAGLEN mod 128, 7) || zeros || 1 || N.
    // TAGLEN = 128, so the leading 7 bits are zero.
    AesBlock full{};
    full[15 - OcbNonceSize] |= 0x01;
    std::memcpy(full.data() + 16 - OcbNonceSize, nonce.data(),
                OcbNonceSize);

    const int bottom = full[15] & 0x3f;
    AesBlock ktop_in = full;
    ktop_in[15] = static_cast<std::uint8_t>(ktop_in[15] & 0xc0);
    AesBlock ktop = cipher_.encrypt(ktop_in);

    // Stretch = Ktop || (Ktop[1..64] xor Ktop[9..72]) (bits).
    std::uint8_t stretch[24];
    std::memcpy(stretch, ktop.data(), 16);
    for (int i = 0; i < 8; ++i)
        stretch[16 + i] = static_cast<std::uint8_t>(ktop[i] ^ ktop[i + 1]);

    // Offset_0 = Stretch[1+bottom .. 128+bottom] (bit indices).
    AesBlock offset;
    const int byte_shift = bottom / 8;
    const int bit_shift = bottom % 8;
    for (int i = 0; i < 16; ++i) {
        if (bit_shift == 0) {
            offset[i] = stretch[i + byte_shift];
        } else {
            offset[i] = static_cast<std::uint8_t>(
                (stretch[i + byte_shift] << bit_shift) |
                (stretch[i + byte_shift + 1] >> (8 - bit_shift)));
        }
    }
    return offset;
}

void
Ocb::encryptInto(const OcbNonce &nonce, const std::uint8_t *ad,
                 std::size_t ad_len, const std::uint8_t *pt,
                 std::size_t pt_len, std::uint8_t *out,
                 std::uint8_t *tag_out) const
{
    AesBlock offset = initialOffset(nonce);
    AesBlock checksum{};
    std::uint64_t i = 1;

    std::size_t remaining = pt_len;

    // Wide path, AES-NI: every whole eight-block batch in one fused
    // pass (Aes128::ocbEncryptBatches).
    if (cipher_.usesHw()) {
        const std::size_t batches = remaining / WideBytes;
        cipher_.ocbEncryptBatches(l_.data(), pt, out, batches, offset,
                                  checksum);
        pt += batches * WideBytes;
        out += batches * WideBytes;
        remaining -= batches * WideBytes;
        i += batches * WideBlocks;
    }

    // Wide path, T-table and reference engines: eight blocks per
    // iteration around one batched AES call. The offset chain, the
    // checksum and the pre- and post-whitening run on native 64-bit
    // words, so the mode arithmetic costs a few XORs a block next to
    // the AES rounds.
    Words off = loadWords(offset.data());
    Words sum = loadWords(checksum.data());
    while (remaining >= WideBytes) {
        Words offs[WideBlocks];
        std::uint8_t buf[WideBytes];
        for (std::size_t j = 0; j < WideBlocks; ++j) {
            off = off ^ loadWords(lValue(std::countr_zero(i + j)).data());
            offs[j] = off;
            const Words p = loadWords(pt + j * AesBlockSize);
            sum = sum ^ p;
            storeWords(buf + j * AesBlockSize, p ^ off);
        }
        cipher_.encryptBlocks(buf, buf, WideBlocks);
        for (std::size_t j = 0; j < WideBlocks; ++j)
            storeWords(out + j * AesBlockSize,
                       loadWords(buf + j * AesBlockSize) ^ offs[j]);
        pt += WideBytes;
        out += WideBytes;
        remaining -= WideBytes;
        i += WideBlocks;
    }
    storeWords(offset.data(), off);
    storeWords(checksum.data(), sum);

    while (remaining >= AesBlockSize) {
        xorBlock(offset, lValue(std::countr_zero(i)).data());
        AesBlock tmp = offset;
        xorBlock(tmp, pt);
        tmp = cipher_.encrypt(tmp);
        xorBlock(tmp, offset.data());
        std::memcpy(out, tmp.data(), AesBlockSize);
        xorBlock(checksum, pt);
        pt += AesBlockSize;
        out += AesBlockSize;
        remaining -= AesBlockSize;
        ++i;
    }
    if (remaining > 0) {
        xorBlock(offset, l_star_.data());
        AesBlock pad = cipher_.encrypt(offset);
        for (std::size_t j = 0; j < remaining; ++j)
            out[j] = static_cast<std::uint8_t>(pt[j] ^ pad[j]);
        AesBlock padded{};
        std::memcpy(padded.data(), pt, remaining);
        padded[remaining] = 0x80;
        xorBlock(checksum, padded.data());
    }

    AesBlock tag = checksum;
    xorBlock(tag, offset.data());
    xorBlock(tag, l_dollar_.data());
    tag = cipher_.encrypt(tag);
    AesBlock ad_hash = hashAd(ad, ad_len);
    xorBlock(tag, ad_hash.data());
    std::memcpy(tag_out, tag.data(), OcbTagSize);
}

Bytes
Ocb::encrypt(const OcbNonce &nonce, const Bytes &ad,
             const Bytes &plaintext) const
{
    Bytes out(plaintext.size() + OcbTagSize);
    encryptInto(nonce, ad.data(), ad.size(), plaintext.data(),
                plaintext.size(), out.data(),
                out.data() + plaintext.size());
    return out;
}

Status
Ocb::decryptInto(const OcbNonce &nonce, const std::uint8_t *ad,
                 std::size_t ad_len, const std::uint8_t *ct,
                 std::size_t ct_len, const std::uint8_t *tag,
                 std::uint8_t *out) const
{
    AesBlock offset = initialOffset(nonce);
    AesBlock checksum{};
    std::uint64_t i = 1;

    std::size_t remaining = ct_len;
    std::uint8_t *out_cursor = out;

    // Wide path: the seal loop's two forms, with the checksum taken
    // over the recovered plaintext.
    if (cipher_.usesHw()) {
        const std::size_t batches = remaining / WideBytes;
        cipher_.ocbDecryptBatches(l_.data(), ct, out_cursor, batches,
                                  offset, checksum);
        ct += batches * WideBytes;
        out_cursor += batches * WideBytes;
        remaining -= batches * WideBytes;
        i += batches * WideBlocks;
    }
    Words off = loadWords(offset.data());
    Words sum = loadWords(checksum.data());
    while (remaining >= WideBytes) {
        Words offs[WideBlocks];
        std::uint8_t buf[WideBytes];
        for (std::size_t j = 0; j < WideBlocks; ++j) {
            off = off ^ loadWords(lValue(std::countr_zero(i + j)).data());
            offs[j] = off;
            storeWords(buf + j * AesBlockSize,
                       loadWords(ct + j * AesBlockSize) ^ off);
        }
        cipher_.decryptBlocks(buf, buf, WideBlocks);
        for (std::size_t j = 0; j < WideBlocks; ++j) {
            const Words p = loadWords(buf + j * AesBlockSize) ^ offs[j];
            sum = sum ^ p;
            storeWords(out_cursor + j * AesBlockSize, p);
        }
        ct += WideBytes;
        out_cursor += WideBytes;
        remaining -= WideBytes;
        i += WideBlocks;
    }
    storeWords(offset.data(), off);
    storeWords(checksum.data(), sum);

    while (remaining >= AesBlockSize) {
        xorBlock(offset, lValue(std::countr_zero(i)).data());
        AesBlock tmp = offset;
        xorBlock(tmp, ct);
        tmp = cipher_.decrypt(tmp);
        xorBlock(tmp, offset.data());
        std::memcpy(out_cursor, tmp.data(), AesBlockSize);
        xorBlock(checksum, out_cursor);
        ct += AesBlockSize;
        out_cursor += AesBlockSize;
        remaining -= AesBlockSize;
        ++i;
    }
    if (remaining > 0) {
        xorBlock(offset, l_star_.data());
        AesBlock pad = cipher_.encrypt(offset);
        for (std::size_t j = 0; j < remaining; ++j)
            out_cursor[j] = static_cast<std::uint8_t>(ct[j] ^ pad[j]);
        AesBlock padded{};
        std::memcpy(padded.data(), out_cursor, remaining);
        padded[remaining] = 0x80;
        xorBlock(checksum, padded.data());
    }

    AesBlock expected = checksum;
    xorBlock(expected, offset.data());
    xorBlock(expected, l_dollar_.data());
    expected = cipher_.encrypt(expected);
    AesBlock ad_hash = hashAd(ad, ad_len);
    xorBlock(expected, ad_hash.data());

    if (!constantTimeEqual(expected.data(), tag, OcbTagSize)) {
        // Leave no plaintext behind on failure. Guard the empty case:
        // memset on a null out pointer is UB even with length 0.
        if (ct_len > 0)
            std::memset(out, 0, ct_len);
        return errIntegrityFailure("OCB tag mismatch");
    }
    return Status::ok();
}

Result<Bytes>
Ocb::decrypt(const OcbNonce &nonce, const Bytes &ad,
             const Bytes &ciphertext_and_tag) const
{
    if (ciphertext_and_tag.size() < OcbTagSize)
        return errInvalidArgument("ciphertext shorter than tag");
    const std::size_t ct_len = ciphertext_and_tag.size() - OcbTagSize;
    Bytes out(ct_len);
    Status st = decryptInto(nonce, ad.data(), ad.size(),
                            ciphertext_and_tag.data(), ct_len,
                            ciphertext_and_tag.data() + ct_len,
                            out.data());
    if (!st.isOk())
        return st;
    return out;
}

}  // namespace hix::crypto
