// TLV (de)serialization of state_dicts and their components.
//
// Full serialization is what base1/base2 (torch.save-style) pay for the
// whole checkpoint; ECCheck serializes only the two tiny components —
// non-tensor metadata and tensor keys — and moves tensor payloads raw
// (paper §III-C, "serialization-free").
#pragma once

#include <cstdint>
#include <vector>

#include "dnn/state_dict.hpp"

namespace eccheck::dnn {

/// Append-only little-endian writer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(ByteSpan b) {
    u64(b.size());
    raw(b.data(), b.size());
  }

  std::size_t size() const { return out_.size(); }
  Buffer finish() const {
    return Buffer::copy_of({out_.data(), out_.size()});
  }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<std::byte> out_;
};

/// Bounds-checked little-endian reader (throws CheckFailure on overrun).
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  double f64() { return scalar<double>(); }
  std::string str() {
    auto n = u32();
    auto s = take(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }
  ByteSpan bytes() { return take(u64()); }

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T scalar() {
    auto s = take(sizeof(T));
    T v;
    std::memcpy(&v, s.data(), sizeof(T));
    return v;
  }
  ByteSpan take(std::size_t n) {
    ECC_CHECK_MSG(n <= remaining(), "serializer underrun");
    ByteSpan s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  ByteSpan data_;
  std::size_t pos_ = 0;
};

/// Shape/dtype/size of a tensor without its payload — the "tensor keys"
/// component that is broadcast during checkpointing.
struct TensorMeta {
  std::string key;
  DType dtype;
  std::vector<std::int64_t> shape;

  std::size_t nbytes() const {
    std::size_t n = dtype_size(dtype);
    for (auto d : shape) n *= static_cast<std::size_t>(d);
    return n;
  }

  friend bool operator==(const TensorMeta&, const TensorMeta&) = default;
};

// Full-checkpoint serialization (the baselines' path).
Buffer serialize_state_dict(const StateDict& sd);
StateDict deserialize_state_dict(ByteSpan data);

// Component serialization (ECCheck's path: metadata + keys only).
Buffer serialize_metadata(const std::map<std::string, MetaValue>& meta);
std::map<std::string, MetaValue> deserialize_metadata(ByteSpan data);

Buffer serialize_tensor_keys(const StateDict& sd);
std::vector<TensorMeta> deserialize_tensor_keys(ByteSpan data);

/// Allocate a state_dict with the given structure and uninitialised tensor
/// payloads — the decode side fills the bytes in place.
StateDict make_skeleton(std::map<std::string, MetaValue> meta,
                        const std::vector<TensorMeta>& keys);

}  // namespace eccheck::dnn
