// Wire framing for the socket transport: length-prefixed frames carrying
// (dst_key, CRC64, payload).
//
// Layout (all integers little-endian):
//   offset  size  field
//        0     8  magic          "ECNETFR1"
//        8     4  type           FrameType
//       12     4  src_rank       sender's global rank
//       16     4  key_len        bytes of dst_key following the header
//       20     4  aux            frame-type-specific (segment index, …)
//       24     8  payload_len    bytes of payload following the key
//       32     8  payload_crc    CRC64 (ECMA-182) of the payload
//       40        dst_key bytes, then payload bytes
//
// Every byte-carrying frame is acknowledged: the receiver verifies the CRC
// and answers with a kAck frame echoing the payload CRC, giving the sender
// end-to-end confirmation that the bytes landed intact. A CRC mismatch on
// either side is a CheckFailure (corruption on a real wire is treated like
// the silent-corruption fault the chaos layer injects in the simulator).
//
// Trace context: when the high bit of the type field (kFrameFlagTrace) is
// set, kTraceContextBytes of distributed-trace context follow the fixed
// header, BEFORE the key:
//   offset  size  field
//        0     8  trace_id       distributed trace this frame belongs to
//        8     8  parent_span    sender's span id (receiver's parent)
//       16     4  trace_op       logical operation (FrameType at origin)
//       20     4  trace_flags    reserved, 0
// The flag is only set while the sender's tracer is enabled and a trace
// context is active, so untraced runs ship byte-identical frames to
// PR-5/6 peers and pay nothing. 24 bytes, within the ≤32-byte budget.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace eccheck::net {

enum class FrameType : std::uint32_t {
  kHello = 1,    ///< first frame on a new connection: identifies src_rank
  kPut = 2,      ///< store payload under dst_key at the receiver
  kBytes = 3,    ///< pure traffic: payload is discarded after the CRC check
  kSegment = 4,  ///< ring all-reduce segment; aux = segment index
  kBarrier = 5,  ///< zero-payload rendezvous token
  kAck = 6,      ///< acknowledgement; payload_crc echoes the acked frame's
  kRequest = 7,  ///< service request; key = command, payload = arguments
  kResponse = 8, ///< service response; aux = status (0 ok), payload = body
};

const char* frame_type_name(FrameType t);

/// Distributed-trace context a frame may carry (see header comment).
/// trace_id == 0 ⇔ no context; such a header is encoded without the
/// context block and with kFrameFlagTrace clear.
struct WireTraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  std::uint32_t op = 0;     ///< logical operation at origin (FrameType)
  std::uint32_t flags = 0;  ///< reserved
};

struct FrameHeader {
  FrameType type = FrameType::kPut;
  std::uint32_t src_rank = 0;
  std::uint32_t aux = 0;
  std::string key;               ///< dst_key (empty for control frames)
  std::uint64_t payload_len = 0;
  std::uint64_t payload_crc = 0;
  WireTraceContext trace;        ///< trace.trace_id == 0 ⇔ untraced frame
};

inline constexpr std::size_t kFrameHeaderBytes = 40;
inline constexpr std::size_t kTraceContextBytes = 24;
inline constexpr std::uint32_t kFrameFlagTrace = 0x8000'0000u;
inline constexpr std::uint64_t kFrameMagic = 0x3152'4654'454e'4345ULL;  // "ECNETFR1"

/// Sanity bounds enforced on receive (desynchronised or corrupt streams
/// must fail fast, not attempt a multi-gigabyte allocation).
inline constexpr std::uint32_t kMaxKeyLen = 4096;
inline constexpr std::uint64_t kMaxPayloadLen = 1ull << 31;

/// Serialize `h` (without payload) into `out[kFrameHeaderBytes]`.
/// Sets kFrameFlagTrace on the wire type iff h.trace.trace_id != 0 — the
/// context block itself is encoded separately (encode_trace_context) so
/// callers control whether it rides in the same write.
void encode_frame_header(const FrameHeader& h, std::uint8_t* out);

/// Serialize header [+trace context] [+key] of `h` into one buffer — the
/// whole frame up to its payload, which callers write as a separate slice.
Buffer encode_frame_head(const FrameHeader& h);

/// Serialize the kAck frame `src_rank` sends for the frame it received as
/// sequence `seq` (the echo the sender's window matches) with payload CRC
/// `crc` into `out[kFrameHeaderBytes]`.
void encode_ack(std::uint32_t src_rank, std::uint32_t seq, std::uint64_t crc,
                std::uint8_t* out);

/// Parse `in[kFrameHeaderBytes]` as an ack; throws CheckFailure (prefixed
/// by `ctx`) unless it is a kAck with no key, no trace context and no
/// payload. The returned header's aux is the acknowledged sequence and its
/// payload_crc the echoed CRC.
FrameHeader check_ack(const std::uint8_t* in, const std::string& ctx);

/// Serialize h.trace into `out[kTraceContextBytes]`.
void encode_trace_context(const WireTraceContext& t, std::uint8_t* out);

/// Parse `in[kTraceContextBytes]` (the block following a flagged header).
WireTraceContext decode_trace_context(const std::uint8_t* in);

/// Parse and validate a header; throws CheckFailure on bad magic /
/// unknown type / out-of-bounds lengths. The key is NOT read here (it
/// follows in the stream). If the wire type carried kFrameFlagTrace,
/// *has_trace is set and the caller must read kTraceContextBytes of
/// context from the stream before the key (decode_trace_context).
FrameHeader decode_frame_header(const std::uint8_t* in, std::uint32_t* key_len,
                                bool* has_trace);

}  // namespace eccheck::net
