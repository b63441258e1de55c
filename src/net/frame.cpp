#include "net/frame.hpp"

#include <cstring>

#include "common/check.hpp"

namespace eccheck::net {
namespace {

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kPut: return "put";
    case FrameType::kBytes: return "bytes";
    case FrameType::kSegment: return "segment";
    case FrameType::kBarrier: return "barrier";
    case FrameType::kAck: return "ack";
    case FrameType::kRequest: return "request";
    case FrameType::kResponse: return "response";
  }
  return "?";
}

void encode_frame_header(const FrameHeader& h, std::uint8_t* out) {
  ECC_CHECK(h.key.size() <= kMaxKeyLen);
  ECC_CHECK(h.payload_len <= kMaxPayloadLen);
  put_u64(out, kFrameMagic);
  std::uint32_t wire_type = static_cast<std::uint32_t>(h.type);
  if (h.trace.trace_id != 0) wire_type |= kFrameFlagTrace;
  put_u32(out + 8, wire_type);
  put_u32(out + 12, h.src_rank);
  put_u32(out + 16, static_cast<std::uint32_t>(h.key.size()));
  put_u32(out + 20, h.aux);
  put_u64(out + 24, h.payload_len);
  put_u64(out + 32, h.payload_crc);
}

Buffer encode_frame_head(const FrameHeader& h) {
  const bool traced = h.trace.trace_id != 0;
  const std::size_t trace_bytes = traced ? kTraceContextBytes : 0;
  Buffer head(kFrameHeaderBytes + trace_bytes + h.key.size(),
              Buffer::Init::kUninitialized);
  std::uint8_t* p = reinterpret_cast<std::uint8_t*>(head.data());
  encode_frame_header(h, p);
  if (traced) encode_trace_context(h.trace, p + kFrameHeaderBytes);
  std::memcpy(p + kFrameHeaderBytes + trace_bytes, h.key.data(),
              h.key.size());
  return head;
}

void encode_ack(std::uint32_t src_rank, std::uint32_t seq, std::uint64_t crc,
                std::uint8_t* out) {
  FrameHeader ack;
  ack.type = FrameType::kAck;
  ack.src_rank = src_rank;
  ack.aux = seq;
  ack.payload_crc = crc;
  encode_frame_header(ack, out);
}

FrameHeader check_ack(const std::uint8_t* in, const std::string& ctx) {
  std::uint32_t key_len = 0;
  bool has_trace = false;
  FrameHeader ack = decode_frame_header(in, &key_len, &has_trace);
  ECC_CHECK_MSG(ack.type == FrameType::kAck && key_len == 0 && !has_trace &&
                    ack.payload_len == 0,
                ctx << ": expected ack, got " << frame_type_name(ack.type));
  return ack;
}

void encode_trace_context(const WireTraceContext& t, std::uint8_t* out) {
  put_u64(out, t.trace_id);
  put_u64(out + 8, t.parent_span);
  put_u32(out + 16, t.op);
  put_u32(out + 20, t.flags);
}

WireTraceContext decode_trace_context(const std::uint8_t* in) {
  WireTraceContext t;
  t.trace_id = get_u64(in);
  t.parent_span = get_u64(in + 8);
  t.op = get_u32(in + 16);
  t.flags = get_u32(in + 20);
  return t;
}

FrameHeader decode_frame_header(const std::uint8_t* in,
                                std::uint32_t* key_len, bool* has_trace) {
  ECC_CHECK_MSG(get_u64(in) == kFrameMagic,
                "net: bad frame magic — stream desynchronised or not an "
                "eccheck transport peer");
  FrameHeader h;
  const std::uint32_t wire_type = get_u32(in + 8);
  *has_trace = (wire_type & kFrameFlagTrace) != 0;
  const std::uint32_t type = wire_type & ~kFrameFlagTrace;
  ECC_CHECK_MSG(type >= 1 && type <= 8, "net: unknown frame type " << type);
  h.type = static_cast<FrameType>(type);
  h.src_rank = get_u32(in + 12);
  *key_len = get_u32(in + 16);
  ECC_CHECK_MSG(*key_len <= kMaxKeyLen, "net: frame key_len " << *key_len
                                            << " exceeds bound " << kMaxKeyLen);
  h.aux = get_u32(in + 20);
  h.payload_len = get_u64(in + 24);
  ECC_CHECK_MSG(h.payload_len <= kMaxPayloadLen,
                "net: frame payload_len " << h.payload_len
                                          << " exceeds bound "
                                          << kMaxPayloadLen);
  h.payload_crc = get_u64(in + 32);
  return h;
}

}  // namespace eccheck::net
