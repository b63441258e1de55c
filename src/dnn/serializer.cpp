#include "dnn/serializer.hpp"

namespace eccheck::dnn {
namespace {

constexpr std::uint32_t kMagic = 0x45434b50;  // "ECKP"
constexpr std::uint8_t kTagI64 = 0;
constexpr std::uint8_t kTagF64 = 1;
constexpr std::uint8_t kTagStr = 2;

void write_meta(ByteWriter& w, const std::map<std::string, MetaValue>& meta) {
  w.u32(static_cast<std::uint32_t>(meta.size()));
  for (const auto& [k, v] : meta) {
    w.str(k);
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      w.u8(kTagI64);
      w.i64(*i);
    } else if (const auto* d = std::get_if<double>(&v)) {
      w.u8(kTagF64);
      w.f64(*d);
    } else {
      w.u8(kTagStr);
      w.str(std::get<std::string>(v));
    }
  }
}

std::map<std::string, MetaValue> read_meta(ByteReader& r) {
  std::map<std::string, MetaValue> meta;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key = r.str();
    switch (r.u8()) {
      case kTagI64:
        meta[key] = r.i64();
        break;
      case kTagF64:
        meta[key] = r.f64();
        break;
      case kTagStr:
        meta[key] = r.str();
        break;
      default:
        ECC_CHECK_MSG(false, "bad metadata tag");
    }
  }
  return meta;
}

void write_tensor_meta(ByteWriter& w, const std::string& key, DType dtype,
                       const std::vector<std::int64_t>& shape) {
  w.str(key);
  w.u8(static_cast<std::uint8_t>(dtype));
  w.u32(static_cast<std::uint32_t>(shape.size()));
  for (auto d : shape) w.i64(d);
}

// Smallest encoding of one tensor's metadata: empty key (u32 length),
// dtype (u8), rank 0 (u32).
constexpr std::size_t kMinTensorMetaBytes = 4 + 1 + 4;

TensorMeta read_tensor_meta(ByteReader& r) {
  TensorMeta tm;
  tm.key = r.str();
  tm.dtype = static_cast<DType>(r.u8());
  const std::uint32_t nd = r.u32();
  // Counts come off the wire: bound them by the bytes left before
  // reserving, so a hostile one is a CheckFailure, not a huge allocation.
  ECC_CHECK_MSG(nd <= r.remaining() / sizeof(std::int64_t),
                "tensor rank " << nd << " exceeds the bytes left");
  tm.shape.reserve(nd);
  for (std::uint32_t i = 0; i < nd; ++i) tm.shape.push_back(r.i64());
  return tm;
}

}  // namespace

Buffer serialize_state_dict(const StateDict& sd) {
  ByteWriter w;
  w.u32(kMagic);
  write_meta(w, sd.metadata());
  w.u32(static_cast<std::uint32_t>(sd.tensors().size()));
  for (const auto& e : sd.tensors()) {
    write_tensor_meta(w, e.key, e.tensor.dtype(), e.tensor.shape());
    w.bytes(e.tensor.bytes());
  }
  return w.finish();
}

StateDict deserialize_state_dict(ByteSpan data) {
  ByteReader r(data);
  ECC_CHECK_MSG(r.u32() == kMagic, "bad checkpoint magic");
  StateDict sd;
  sd.metadata() = read_meta(r);
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    TensorMeta tm = read_tensor_meta(r);
    ByteSpan payload = r.bytes();
    Tensor t(tm.dtype, tm.shape);
    ECC_CHECK(t.nbytes() == payload.size());
    std::memcpy(t.bytes().data(), payload.data(), payload.size());
    sd.add_tensor(tm.key, std::move(t));
  }
  return sd;
}

Buffer serialize_metadata(const std::map<std::string, MetaValue>& meta) {
  ByteWriter w;
  write_meta(w, meta);
  return w.finish();
}

std::map<std::string, MetaValue> deserialize_metadata(ByteSpan data) {
  ByteReader r(data);
  auto meta = read_meta(r);
  ECC_CHECK(r.exhausted());
  return meta;
}

Buffer serialize_tensor_keys(const StateDict& sd) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(sd.tensors().size()));
  for (const auto& e : sd.tensors())
    write_tensor_meta(w, e.key, e.tensor.dtype(), e.tensor.shape());
  return w.finish();
}

std::vector<TensorMeta> deserialize_tensor_keys(ByteSpan data) {
  ByteReader r(data);
  const std::uint32_t n = r.u32();
  ECC_CHECK_MSG(n <= r.remaining() / kMinTensorMetaBytes,
                "tensor count " << n << " exceeds the bytes left");
  std::vector<TensorMeta> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(read_tensor_meta(r));
  ECC_CHECK(r.exhausted());
  return out;
}

StateDict make_skeleton(std::map<std::string, MetaValue> meta,
                        const std::vector<TensorMeta>& keys) {
  StateDict sd;
  sd.metadata() = std::move(meta);
  for (const auto& tm : keys) sd.add_tensor(tm.key, Tensor(tm.dtype, tm.shape));
  return sd;
}

}  // namespace eccheck::dnn
