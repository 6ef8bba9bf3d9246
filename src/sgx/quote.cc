#include "sgx/quote.h"

#include <algorithm>

#include "common/byte_utils.h"
#include "common/units.h"
#include "crypto/hmac.h"

namespace hix::sgx
{

namespace
{

/** The signed bytes: source id (LE64) || mrenclave || report data. */
Bytes
quoteBody(const Quote &quote)
{
    Bytes body(8 + quote.mrenclave.size() + quote.data.size());
    storeLE64(body.data(), quote.source);
    auto *out = std::copy(quote.mrenclave.begin(), quote.mrenclave.end(),
                          body.data() + 8);
    std::copy(quote.data.begin(), quote.data.end(), out);
    return body;
}

}  // namespace

Result<QuotingEnclave>
QuotingEnclave::create(SgxUnit *sgx, ProcessId pid)
{
    QuotingEnclave qe;
    qe.sgx_ = sgx;
    // The quoting enclave is an ordinary enclave whose seal key
    // derives the platform attestation key.
    auto eid = sgx->ecreate(pid, AddrRange(0x70000000, 1 * MiB));
    if (!eid.isOk())
        return eid.status();
    qe.eid_ = *eid;
    HIX_RETURN_IF_ERROR(sgx->einit(qe.eid_));
    auto seal = sgx->sealKey(qe.eid_, "attestation-key");
    if (!seal.isOk())
        return seal.status();
    qe.attestation_key_.assign(seal->begin(), seal->end());
    return qe;
}

Result<Quote>
QuotingEnclave::quote(const Report &report)
{
    // Only reports MACed for the quoting enclave are quotable.
    HIX_RETURN_IF_ERROR(sgx_->verifyReport(eid_, report));

    Quote q;
    q.source = report.source;
    q.mrenclave = report.mrenclave;
    q.data = report.data;
    Bytes body = quoteBody(q);
    q.signature = crypto::hmacSha256(attestation_key_.data(),
                                     attestation_key_.size(),
                                     body.data(), body.size());
    return q;
}

Status
RemoteVerifier::verify(const Quote &quote) const
{
    Bytes body = quoteBody(quote);
    crypto::Sha256Digest expected_sig = crypto::hmacSha256(
        key_.data(), key_.size(), body.data(), body.size());
    if (!constantTimeEqual(expected_sig.data(), quote.signature.data(),
                           expected_sig.size()))
        return errAttestationFailure("quote signature invalid");
    if (!constantTimeEqual(quote.mrenclave.data(), expected_.data(),
                           expected_.size()))
        return errAttestationFailure(
            "enclave measurement does not match vendor reference");
    return Status::ok();
}

}  // namespace hix::sgx
