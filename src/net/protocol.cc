#include "net/protocol.h"

#include <cstring>

#include "core/bytes.h"

namespace aib::net {

namespace by = core::bytes;

bool
knownFrameType(std::uint8_t t)
{
    return t >= static_cast<std::uint8_t>(FrameType::Hello) &&
           t <= static_cast<std::uint8_t>(FrameType::ByeAck);
}

const char *
statusName(StatusCode code)
{
    switch (code) {
    case StatusCode::Ok:
        return "ok";
    case StatusCode::BadFrame:
        return "bad_frame";
    case StatusCode::UnknownBenchmark:
        return "unknown_benchmark";
    case StatusCode::ConfigMismatch:
        return "config_mismatch";
    case StatusCode::Shed:
        return "shed";
    case StatusCode::Draining:
        return "draining";
    case StatusCode::UnknownId:
        return "unknown_id";
    case StatusCode::Internal:
        return "internal";
    }
    return "?";
}

namespace {

void
putString(std::string *out, const std::string &s)
{
    by::putU16(out, static_cast<std::uint16_t>(s.size()));
    out->append(s);
}

bool
getString(by::Reader *in, std::string *out)
{
    std::uint16_t n = 0;
    if (!in->getU16(&n))
        return false;
    return in->getBytes(out, n);
}

} // namespace

std::string
encodeFrame(FrameType type, const std::string &payload)
{
    std::string out;
    out.reserve(kHeaderSize + payload.size());
    by::putU32(&out, kNetMagic);
    out.push_back(static_cast<char>(kNetVersion));
    out.push_back(static_cast<char>(type));
    by::putU32(&out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload);
    return out;
}

std::string
encodeHello(const HelloMsg &m)
{
    std::string p;
    putString(&p, m.benchmarkId);
    by::putU64(&p, m.seed);
    by::putU32(&p, m.queries);
    by::putF64(&p, m.qps);
    by::putU32(&p, m.maxBatch);
    by::putU64(&p, m.maxDelayUs);
    p.push_back(static_cast<char>(m.batching));
    return encodeFrame(FrameType::Hello, p);
}

std::string
encodeHelloAck(const HelloAckMsg &m)
{
    std::string p;
    putString(&p, m.benchmarkId);
    by::putU64(&p, m.seed);
    by::putU32(&p, m.workers);
    p.push_back(static_cast<char>(m.batching));
    return encodeFrame(FrameType::HelloAck, p);
}

std::string
encodeQuery(const QueryMsg &m)
{
    std::string p;
    by::putU64(&p, m.requestId);
    by::putU32(&p, m.exemplar);
    return encodeFrame(FrameType::Query, p);
}

std::string
encodeReply(const ReplyMsg &m)
{
    std::string p;
    by::putU64(&p, m.requestId);
    by::putU32(&p, m.exemplar);
    by::putF64(&p, m.batchDigest);
    by::putU32(&p, m.batchSize);
    by::putU64(&p, m.batchIndexPlus1);
    by::putF64(&p, m.serverLatencyUs);
    return encodeFrame(FrameType::Reply, p);
}

std::string
encodeError(const ErrorMsg &m)
{
    std::string p;
    by::putU16(&p, static_cast<std::uint16_t>(m.status));
    by::putU64(&p, m.requestId);
    putString(&p, m.message);
    return encodeFrame(FrameType::Error, p);
}

std::string
encodeBye(const ByeMsg &m)
{
    std::string p;
    by::putU64(&p, m.sent);
    return encodeFrame(FrameType::Bye, p);
}

std::string
encodeByeAck(const ByeAckMsg &m)
{
    std::string p;
    by::putU64(&p, m.served);
    by::putU64(&p, m.shed);
    return encodeFrame(FrameType::ByeAck, p);
}

namespace {

/** Shared decode tail: payload fully consumed, or it's malformed. */
bool
done(const by::Reader &in)
{
    return in.remaining() == 0;
}

} // namespace

bool
decodeHello(const std::string &payload, HelloMsg *out)
{
    by::Reader in(payload);
    HelloMsg m;
    if (!getString(&in, &m.benchmarkId) || !in.getU64(&m.seed) ||
        !in.getU32(&m.queries) || !in.getF64(&m.qps) ||
        !in.getU32(&m.maxBatch) || !in.getU64(&m.maxDelayUs) ||
        !in.getU8(&m.batching) || !done(in))
        return false;
    *out = std::move(m);
    return true;
}

bool
decodeHelloAck(const std::string &payload, HelloAckMsg *out)
{
    by::Reader in(payload);
    HelloAckMsg m;
    if (!getString(&in, &m.benchmarkId) || !in.getU64(&m.seed) ||
        !in.getU32(&m.workers) || !in.getU8(&m.batching) ||
        !done(in))
        return false;
    *out = std::move(m);
    return true;
}

bool
decodeQuery(const std::string &payload, QueryMsg *out)
{
    by::Reader in(payload);
    QueryMsg m;
    if (!in.getU64(&m.requestId) || !in.getU32(&m.exemplar) ||
        !done(in))
        return false;
    *out = m;
    return true;
}

bool
decodeReply(const std::string &payload, ReplyMsg *out)
{
    by::Reader in(payload);
    ReplyMsg m;
    if (!in.getU64(&m.requestId) || !in.getU32(&m.exemplar) ||
        !in.getF64(&m.batchDigest) || !in.getU32(&m.batchSize) ||
        !in.getU64(&m.batchIndexPlus1) ||
        !in.getF64(&m.serverLatencyUs) || !done(in))
        return false;
    *out = m;
    return true;
}

bool
decodeError(const std::string &payload, ErrorMsg *out)
{
    by::Reader in(payload);
    ErrorMsg m;
    std::uint16_t status = 0;
    if (!in.getU16(&status) || !in.getU64(&m.requestId) ||
        !getString(&in, &m.message) || !done(in))
        return false;
    if (status > static_cast<std::uint16_t>(StatusCode::Internal))
        return false;
    m.status = static_cast<StatusCode>(status);
    *out = std::move(m);
    return true;
}

bool
decodeBye(const std::string &payload, ByeMsg *out)
{
    by::Reader in(payload);
    ByeMsg m;
    if (!in.getU64(&m.sent) || !done(in))
        return false;
    *out = m;
    return true;
}

bool
decodeByeAck(const std::string &payload, ByeAckMsg *out)
{
    by::Reader in(payload);
    ByeAckMsg m;
    if (!in.getU64(&m.served) || !in.getU64(&m.shed) || !done(in))
        return false;
    *out = m;
    return true;
}

void
FrameParser::feed(const void *data, std::size_t n)
{
    if (corrupt_)
        return; // poisoned streams eat no more bytes
    buf_.append(static_cast<const char *>(data), n);
}

FrameParser::Result
FrameParser::next(Frame *out)
{
    if (corrupt_)
        return Result::Corrupt;
    // Compact the buffer once consumed frames dominate it, so a
    // long-lived connection does not grow its buffer without bound.
    if (pos_ > 0 && pos_ >= buf_.size() / 2) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    if (buf_.size() - pos_ < kHeaderSize)
        return Result::NeedMore;

    by::Reader in(buf_.data() + pos_, buf_.size() - pos_);
    std::uint32_t magic = 0;
    std::uint8_t version = 0, type = 0;
    std::uint32_t length = 0;
    (void)in.getU32(&magic);
    (void)in.getU8(&version);
    (void)in.getU8(&type);
    (void)in.getU32(&length);

    const auto poison = [&](const char *why) {
        corrupt_ = true;
        error_ = why;
        return Result::Corrupt;
    };
    if (magic != kNetMagic)
        return poison("net: bad frame magic");
    if (version != kNetVersion)
        return poison("net: unsupported protocol version");
    if (!knownFrameType(type))
        return poison("net: unknown frame type");
    if (length > kMaxPayload)
        return poison("net: oversized frame payload");

    if (buf_.size() - pos_ < kHeaderSize + length)
        return Result::NeedMore;
    out->type = static_cast<FrameType>(type);
    out->payload.assign(buf_, pos_ + kHeaderSize, length);
    pos_ += kHeaderSize + length;
    return Result::Frame;
}

} // namespace aib::net
