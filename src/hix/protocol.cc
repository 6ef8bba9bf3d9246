#include "hix/protocol.h"

#include "common/byte_utils.h"

namespace hix::core
{

namespace
{

// Grown by resize(), which reallocates like insert() (GCC 12 flags the
// insert of a small array into an empty vector with a false
// -Wstringop-overflow).
void
appendU32(Bytes &out, std::uint32_t v)
{
    const std::size_t at = out.size();
    out.resize(at + 4);
    storeLE32(out.data() + at, v);
}

void
appendU64(Bytes &out, std::uint64_t v)
{
    const std::size_t at = out.size();
    out.resize(at + 8);
    storeLE64(out.data() + at, v);
}

}  // namespace

Bytes
encodeRequest(const Request &req)
{
    Bytes out;
    appendU32(out, static_cast<std::uint32_t>(req.type));
    appendU32(out, static_cast<std::uint32_t>(req.args.size()));
    appendU32(out, static_cast<std::uint32_t>(req.blob.size()));
    for (std::uint64_t a : req.args)
        appendU64(out, a);
    out.insert(out.end(), req.blob.begin(), req.blob.end());
    return out;
}

Result<Request>
decodeRequest(const Bytes &data)
{
    if (data.size() < 12)
        return errInvalidArgument("request too short");
    Request req;
    req.type = static_cast<ReqType>(loadLE32(data.data()));
    const std::uint32_t nargs = loadLE32(data.data() + 4);
    const std::uint32_t blob_len = loadLE32(data.data() + 8);
    if (data.size() != 12 + 8ull * nargs + blob_len)
        return errInvalidArgument("request length mismatch");
    req.args.resize(nargs);
    for (std::uint32_t i = 0; i < nargs; ++i)
        req.args[i] = loadLE64(data.data() + 12 + 8 * i);
    req.blob.assign(data.begin() + 12 + 8ull * nargs, data.end());
    return req;
}

Bytes
encodeResponse(const Response &resp)
{
    Bytes out;
    appendU32(out, resp.code);
    appendU32(out, static_cast<std::uint32_t>(resp.vals.size()));
    for (std::uint64_t v : resp.vals)
        appendU64(out, v);
    return out;
}

Result<Response>
decodeResponse(const Bytes &data)
{
    if (data.size() < 8)
        return errInvalidArgument("response too short");
    Response resp;
    resp.code = loadLE32(data.data());
    const std::uint32_t nvals = loadLE32(data.data() + 4);
    if (data.size() != 8 + 8ull * nvals)
        return errInvalidArgument("response length mismatch");
    resp.vals.resize(nvals);
    for (std::uint32_t i = 0; i < nvals; ++i)
        resp.vals[i] = loadLE64(data.data() + 8 + 8 * i);
    return resp;
}

Response
errorResponse(const Status &status)
{
    Response resp;
    resp.code = static_cast<std::uint32_t>(status.code());
    return resp;
}

}  // namespace hix::core
