#include "ec/xor_program.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "gf/simd.hpp"

namespace eccheck::ec {

int XorProgram::xor_count() const {
  int n = 0;
  for (const auto& op : ops) n += op.accumulate ? 1 : 0;
  return n;
}

namespace {

/// Terms of each output row as sorted sets of operand ids; inputs are
/// 0..in_strips-1, temporaries in_strips, in_strips+1, ...
struct RowTerms {
  std::vector<std::set<int>> rows;   // per output strip
  std::vector<std::pair<int, int>> temps;  // temp id order: operands XORed
  int in_strips;
};

RowTerms terms_of(const BitMatrix& bm, int in_packets, int out_packets,
                  int w) {
  ECC_CHECK(bm.rows() == out_packets * w);
  ECC_CHECK(bm.cols() == in_packets * w);
  RowTerms t;
  t.in_strips = in_packets * w;
  t.rows.resize(static_cast<std::size_t>(out_packets * w));
  for (int r = 0; r < bm.rows(); ++r) {
    for (int c = 0; c < bm.cols(); ++c)
      if (bm.get(r, c)) t.rows[static_cast<std::size_t>(r)].insert(c);
    ECC_CHECK_MSG(!t.rows[static_cast<std::size_t>(r)].empty(),
                  "bitmatrix has an all-zero row");
  }
  return t;
}

XorProgram emit(const RowTerms& t, int in_packets, int out_packets, int w) {
  XorProgram prog;
  prog.w = w;
  prog.in_packets = in_packets;
  prog.out_packets = out_packets;
  prog.num_temps = static_cast<int>(t.temps.size());

  auto operand_of = [&](int id) {
    if (id < t.in_strips)
      return XorProgram::Operand{XorProgram::Space::kInput, id};
    return XorProgram::Operand{XorProgram::Space::kTemp, id - t.in_strips};
  };

  // Temporaries first (temps may reference earlier temps).
  for (std::size_t i = 0; i < t.temps.size(); ++i) {
    XorProgram::Operand dst{XorProgram::Space::kTemp, static_cast<int>(i)};
    prog.ops.push_back({dst, operand_of(t.temps[i].first), false});
    prog.ops.push_back({dst, operand_of(t.temps[i].second), true});
  }
  // Then the output rows.
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    XorProgram::Operand dst{XorProgram::Space::kOutput,
                            static_cast<int>(r)};
    bool first = true;
    for (int id : t.rows[r]) {
      prog.ops.push_back({dst, operand_of(id), !first});
      first = false;
    }
  }
  return prog;
}

}  // namespace

// Emitted straight from the bits, not via terms_of's sets: mul_packet
// builds one of these per call.
XorProgram naive_xor_program(const BitMatrix& bm, int in_packets,
                             int out_packets, int w) {
  ECC_CHECK(bm.rows() == out_packets * w);
  ECC_CHECK(bm.cols() == in_packets * w);
  XorProgram prog;
  prog.w = w;
  prog.in_packets = in_packets;
  prog.out_packets = out_packets;
  prog.ops.reserve(static_cast<std::size_t>(bm.ones()));
  for (int r = 0; r < bm.rows(); ++r) {
    bool first = true;
    for (int c = 0; c < bm.cols(); ++c) {
      if (!bm.get(r, c)) continue;
      prog.ops.push_back({{XorProgram::Space::kOutput, r},
                          {XorProgram::Space::kInput, c}, !first});
      first = false;
    }
    ECC_CHECK_MSG(!first, "bitmatrix has an all-zero row");
  }
  return prog;
}

XorProgram optimize_xor_program(const BitMatrix& bm, int in_packets,
                                int out_packets, int w) {
  RowTerms t = terms_of(bm, in_packets, out_packets, w);

  // Greedy: repeatedly factor the operand pair appearing in the most rows.
  for (;;) {
    std::map<std::pair<int, int>, int> pair_count;
    for (const auto& row : t.rows) {
      std::vector<int> ids(row.begin(), row.end());
      for (std::size_t a = 0; a < ids.size(); ++a)
        for (std::size_t b = a + 1; b < ids.size(); ++b)
          ++pair_count[{ids[a], ids[b]}];
    }
    std::pair<int, int> best{-1, -1};
    int best_count = 2;
    for (const auto& [pr, cnt] : pair_count) {
      if (cnt > best_count) {
        best_count = cnt;
        best = pr;
      }
    }
    // Factoring a pair used c times replaces 2c strip ops with c + 2
    // (temp build is a copy + an XOR): profitable only for c >= 3 under the
    // memory-pass cost model that dominates on real hardware.
    if (best_count < 3) break;

    const int temp_id = t.in_strips + static_cast<int>(t.temps.size());
    t.temps.push_back(best);
    for (auto& row : t.rows) {
      if (row.count(best.first) && row.count(best.second)) {
        row.erase(best.first);
        row.erase(best.second);
        row.insert(temp_id);
      }
    }
  }
  return emit(t, in_packets, out_packets, w);
}

void run_xor_program(const XorProgram& prog, std::span<const ByteSpan> in,
                     std::span<MutableByteSpan> out, bool accumulate) {
  ECC_CHECK(static_cast<int>(in.size()) == prog.in_packets);
  ECC_CHECK(static_cast<int>(out.size()) == prog.out_packets);
  ECC_CHECK(!in.empty());
  const std::size_t packet = in[0].size();
  ECC_CHECK_MSG(packet % (static_cast<std::size_t>(prog.w) * 8) == 0,
                "packet size not divisible by w*8");
  const std::size_t strip = packet / static_cast<std::size_t>(prog.w);
  for (const auto& s : in) ECC_CHECK(s.size() == packet);
  for (const auto& s : out) ECC_CHECK(s.size() == packet);

  // One tile per temporary, reused by every tile of the strips. Strip
  // operands advance with the tile offset; temporaries stay put.
  const std::size_t tile = std::min(kXorTile, strip);
  Buffer temps(static_cast<std::size_t>(prog.num_temps) * tile,
               Buffer::Init::kUninitialized);
  auto temp = [&](const XorProgram::Operand& o) {
    ECC_CHECK(o.index >= 0 && o.index < prog.num_temps);
    return temps.data() + static_cast<std::size_t>(o.index) * tile;
  };
  auto strip_of = [&](auto packets, const XorProgram::Operand& o) {
    return packets[static_cast<std::size_t>(o.index / prog.w)].data() +
           static_cast<std::size_t>(o.index % prog.w) * strip;
  };

  struct Step {
    std::byte* dst;
    const std::byte* src;
    bool dst_moves;
    bool src_moves;
    bool xor_op;
  };
  std::vector<Step> steps;
  steps.reserve(prog.ops.size());
  for (const auto& op : prog.ops) {
    const bool dst_out = op.dst.space == XorProgram::Space::kOutput;
    const bool src_in = op.src.space == XorProgram::Space::kInput;
    ECC_CHECK(dst_out || op.dst.space == XorProgram::Space::kTemp);
    ECC_CHECK(src_in || op.src.space == XorProgram::Space::kTemp);
    steps.push_back({dst_out ? strip_of(out, op.dst) : temp(op.dst),
                     src_in ? strip_of(in, op.src) : temp(op.src), dst_out,
                     src_in, op.accumulate || (accumulate && dst_out)});
  }

  // One dispatch lookup for the whole program.
  const gf::simd::Kernels& kernels = gf::simd::active();
  for (std::size_t at = 0; at < strip; at += tile) {
    const std::size_t len = std::min(tile, strip - at);
    for (const Step& s : steps) {
      std::byte* dst = s.dst_moves ? s.dst + at : s.dst;
      const std::byte* src = s.src_moves ? s.src + at : s.src;
      if (s.xor_op)
        kernels.xor_into(dst, src, len);
      else
        std::memcpy(dst, src, len);
    }
  }
}

}  // namespace eccheck::ec
