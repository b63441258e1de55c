#include "ec/crs_codec.hpp"

#include <algorithm>
#include <set>

#include "gf/simd.hpp"
#include "obs/tracer.hpp"

namespace eccheck::ec {
namespace {

// Kernel-level GiB/s spans carry the dispatched ISA ("codec.encode[avx2]")
// so a trace shows which implementation produced the throughput. Built once;
// the active ISA cannot change after first use.
const std::string& encode_span_name() {
  static const std::string name = gf::simd::isa_span_name("codec.encode");
  return name;
}
const std::string& decode_span_name() {
  static const std::string name = gf::simd::isa_span_name("codec.decode");
  return name;
}

}  // namespace

CrsCodec::CrsCodec(int k, int m, int w, KernelMode mode, bool normalized)
    : k_(k), m_(m), w_(w), mode_(mode), field_(&gf::Field::get(w)),
      generator_(systematic_generator(k, m, *field_, normalized)) {
  ECC_CHECK(k >= 1);
  ECC_CHECK(m >= 0);
}

const XorProgram& CrsCodec::encode_program() const {
  std::call_once(encode_program_once_, [this] {
    if (m_ == 0) return;
    // Expand only the parity sub-matrix; identity rows are plain copies.
    GfMatrix parity(m_, k_, *field_);
    for (int r = 0; r < m_; ++r)
      for (int c = 0; c < k_; ++c) parity.set(r, c, generator_.at(k_ + r, c));
    encode_program_ =
        optimize_xor_program(expand_to_bitmatrix(parity), k_, m_, w_);
  });
  return encode_program_;
}

std::size_t CrsCodec::packet_granularity() const {
  if (mode_ == KernelMode::kXorBitmatrix)
    return static_cast<std::size_t>(w_) * 8;
  return field_->region_granularity();
}

void CrsCodec::encode(std::span<const ByteSpan> data,
                      std::span<MutableByteSpan> parity) const {
  ECC_CHECK(static_cast<int>(data.size()) == k_);
  ECC_CHECK(static_cast<int>(parity.size()) == m_);
  if (m_ == 0) return;
  obs::ScopedSpan span(encode_span_name(),
                       data.empty() ? 0 : data[0].size() * data.size());
  if (mode_ == KernelMode::kXorBitmatrix) {
    run_xor_program(encode_program(), data, parity);
    return;
  }
  for (int r = 0; r < m_; ++r) {
    for (int j = 0; j < k_; ++j) {
      field_->mul_region(generator_.at(k_ + r, j), data[j], parity[r],
                         /*accumulate=*/j != 0);
    }
  }
}

void CrsCodec::mul_packet(std::uint32_t coeff, ByteSpan src,
                          MutableByteSpan dst, bool accumulate) const {
  if (mode_ == KernelMode::kXorBitmatrix) {
    if (coeff == 0) {
      if (!accumulate) std::memset(dst.data(), 0, dst.size());
      return;
    }
    // Single-element bitmatrix product; program built on the fly (w² field
    // mults — negligible next to the region work).
    GfMatrix one(1, 1, *field_);
    one.set(0, 0, coeff);
    ByteSpan in[] = {src};
    MutableByteSpan out[] = {dst};
    run_xor_program(naive_xor_program(expand_to_bitmatrix(one), 1, 1, w_), in,
                    out, accumulate);
    return;
  }
  field_->mul_region(coeff, src, dst, accumulate);
}

void CrsCodec::update_row(int row, int data_index, std::size_t offset,
                          ByteSpan delta, MutableByteSpan target) const {
  ECC_CHECK(row >= 0 && row < k_ + m_);
  ECC_CHECK(data_index >= 0 && data_index < k_);
  ECC_CHECK_MSG(offset + delta.size() <= target.size(),
                "dirty region [" << offset << ", " << offset + delta.size()
                                 << ") exceeds packet size " << target.size());
  if (delta.empty()) return;
  const std::uint32_t coeff = generator_.at(row, data_index);
  if (coeff == 0) return;

  if (mode_ == KernelMode::kXorBitmatrix) {
    ECC_CHECK_MSG(target.size() % packet_granularity() == 0,
                  "packet size must be a multiple of w*8 in bitmatrix mode");
    const std::size_t strip = target.size() / static_cast<std::size_t>(w_);
    // Expand the single coefficient like mul_packet does, but instead of a
    // whole-strip schedule, intersect the dirty window with each source
    // strip: byte x of the packet lives at offset (x mod strip) of strip
    // (x div strip), and B(e) maps source strip j onto destination strip i
    // preserving the offset-within-strip — so a dirty range clipped to one
    // source strip patches the same-length range of each selected
    // destination strip. Exact for arbitrary (mis)aligned regions.
    GfMatrix one(1, 1, *field_);
    one.set(0, 0, coeff);
    const BitMatrix bm = expand_to_bitmatrix(one);
    const std::size_t lo = offset, hi = offset + delta.size();
    for (int i = 0; i < w_; ++i) {
      for (int j = 0; j < w_; ++j) {
        if (!bm.get(i, j)) continue;
        const std::size_t a = std::max(lo, static_cast<std::size_t>(j) * strip);
        const std::size_t b =
            std::min(hi, (static_cast<std::size_t>(j) + 1) * strip);
        if (a >= b) continue;
        xor_into(target.subspan(static_cast<std::size_t>(i) * strip +
                                    (a - static_cast<std::size_t>(j) * strip),
                                b - a),
                 delta.subspan(a - lo, b - a));
      }
    }
    return;
  }

  const std::size_t gran = field_->region_granularity();
  ECC_CHECK_MSG(offset % gran == 0 && delta.size() % gran == 0,
                "dirty region must align to the w=" << w_
                                                    << " symbol granularity");
  field_->mul_region(coeff, delta, target.subspan(offset, delta.size()),
                     /*accumulate=*/true);
}

std::vector<std::pair<std::size_t, std::size_t>> CrsCodec::update_footprint(
    std::size_t offset, std::size_t length, std::size_t packet_size) const {
  ECC_CHECK(offset + length <= packet_size);
  if (length == 0) return {};
  if (mode_ != KernelMode::kXorBitmatrix) return {{offset, length}};
  ECC_CHECK_MSG(packet_size % packet_granularity() == 0,
                "packet size must be a multiple of w*8 in bitmatrix mode");
  const std::size_t strip = packet_size / static_cast<std::size_t>(w_);
  if (length >= strip) return {{0, packet_size}};
  // The window's offsets within a strip: [lo, lo+length), or, when it
  // crosses a strip boundary, [0, lo+length-strip) and [lo, strip).
  const std::size_t lo = offset % strip;
  const std::size_t hi = lo + length;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (int i = 0; i < w_; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * strip;
    if (hi <= strip) {
      out.emplace_back(at + lo, length);
    } else {
      out.emplace_back(at, hi - strip);
      out.emplace_back(at + lo, strip - lo);
    }
  }
  return out;
}

void CrsCodec::update_parity(int data_index, std::size_t offset, ByteSpan delta,
                             std::span<MutableByteSpan> parity) const {
  ECC_CHECK(static_cast<int>(parity.size()) == m_);
  for (int r = 0; r < m_; ++r)
    update_row(k_ + r, data_index, offset, delta,
               parity[static_cast<std::size_t>(r)]);
}

void CrsCodec::encode_partial(int row, int data_index, ByteSpan src,
                              MutableByteSpan dst, bool accumulate) const {
  ECC_CHECK(row >= 0 && row < k_ + m_);
  ECC_CHECK(data_index >= 0 && data_index < k_);
  mul_packet(generator_.at(row, data_index), src, dst, accumulate);
}

void CrsCodec::decode(const std::vector<int>& rows,
                      std::span<const ByteSpan> chunks,
                      std::span<MutableByteSpan> out_data) const {
  ECC_CHECK_MSG(static_cast<int>(rows.size()) == k_,
                "decode needs exactly k=" << k_ << " chunks, got "
                                          << rows.size());
  ECC_CHECK(chunks.size() == rows.size());
  ECC_CHECK(static_cast<int>(out_data.size()) == k_);
  ECC_CHECK_MSG(std::set<int>(rows.begin(), rows.end()).size() == rows.size(),
                "duplicate generator rows in decode");

  obs::ScopedSpan span(decode_span_name(),
                       chunks.empty() ? 0 : chunks[0].size() * chunks.size());
  GfMatrix sub = generator_.select_rows(rows);
  GfMatrix inv = sub.inverse();
  apply_matrix(inv, chunks, out_data);
}

GfMatrix CrsCodec::reconstruction_matrix(
    const std::vector<int>& survivor_rows,
    const std::vector<int>& target_rows) const {
  ECC_CHECK(static_cast<int>(survivor_rows.size()) == k_);
  GfMatrix inv = generator_.select_rows(survivor_rows).inverse();
  GfMatrix targets = generator_.select_rows(target_rows);
  return targets.mul(inv);
}

void CrsCodec::apply_matrix(const GfMatrix& m, std::span<const ByteSpan> in,
                            std::span<MutableByteSpan> out) const {
  ECC_CHECK(static_cast<int>(in.size()) == m.cols());
  ECC_CHECK(static_cast<int>(out.size()) == m.rows());
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      mul_packet(m.at(i, j), in[j], out[i], /*accumulate=*/j != 0);
    }
  }
}

int CrsCodec::xor_ops_per_stripe() const {
  if (mode_ != KernelMode::kXorBitmatrix) return -1;
  return encode_program().xor_count();
}

}  // namespace eccheck::ec
