// Systematic Cauchy Reed-Solomon encoder/decoder (paper §III-B, §IV-A).
//
// The codec owns the (k+m)×k generator E = [I_k ; C] and offers:
//  * whole-stripe encode/decode (used by tests and the group-based mode),
//  * partial per-packet products (the per-worker "encoding step" of the
//    distributed protocol, whose results are then XOR-reduced across nodes),
//  * reconstruction matrices mapping any k surviving generator rows to any
//    set of target rows (recovery workflow B and parity restoration).
//
// Two kernel modes produce the same code but different byte layouts of the
// arithmetic: kGfTable multiplies packed GF(2^w) symbols via per-constant
// lookup tables; kXorBitmatrix splits each packet into w strips and uses
// XOR exclusively. A stripe must be processed in one mode end-to-end.
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "ec/cauchy.hpp"
#include "ec/gf_matrix.hpp"
#include "ec/xor_program.hpp"

namespace eccheck::ec {

enum class KernelMode {
  kGfTable,       ///< table-driven GF(2^w) region multiply
  kXorBitmatrix,  ///< Cauchy bitmatrix, XOR-only strip program
};

class CrsCodec {
 public:
  CrsCodec(int k, int m, int w = 8, KernelMode mode = KernelMode::kGfTable,
           bool normalized = true);

  int k() const { return k_; }
  int m() const { return m_; }
  int w() const { return w_; }
  KernelMode mode() const { return mode_; }
  const gf::Field& field() const { return *field_; }
  const GfMatrix& generator() const { return generator_; }

  /// Packet lengths must be a multiple of this (w·8 bytes in bitmatrix mode
  /// so strips stay 8-byte aligned; the symbol width otherwise).
  std::size_t packet_granularity() const;

  /// Full-stripe encode: parity[r] = Σ_j E[k+r][j] · data[j].
  /// data.size() == k, parity.size() == m, all spans equal length.
  void encode(std::span<const ByteSpan> data,
              std::span<MutableByteSpan> parity) const;

  /// Partial product for generator row `row` (0..k+m) and data chunk index
  /// `data_index`: dst (^)= E[row][data_index] · src.
  void encode_partial(int row, int data_index, ByteSpan src,
                      MutableByteSpan dst, bool accumulate) const;

  /// coefficient E[row][data_index].
  std::uint32_t coefficient(int row, int data_index) const {
    return generator_.at(row, data_index);
  }

  /// Decode all k data chunks from any k surviving generator rows.
  /// `rows[i]` names the generator row that `chunks[i]` carries; exactly k
  /// entries are required and rows must be distinct.
  void decode(const std::vector<int>& rows, std::span<const ByteSpan> chunks,
              std::span<MutableByteSpan> out_data) const;

  /// Matrix T (targets × k survivors) with target[i] = Σ_j T[i][j]·chunk[j]:
  /// lets recovery compute any generator rows (data or parity) directly from
  /// the survivors, T = E[target_rows] · E[survivor_rows]⁻¹.
  GfMatrix reconstruction_matrix(const std::vector<int>& survivor_rows,
                                 const std::vector<int>& target_rows) const;

  /// out[i] = Σ_j M[i][j] · in[j] using this codec's kernel mode.
  void apply_matrix(const GfMatrix& m, std::span<const ByteSpan> in,
                    std::span<MutableByteSpan> out) const;

  /// dst (^)= coeff · src with this codec's kernel.
  void mul_packet(std::uint32_t coeff, ByteSpan src, MutableByteSpan dst,
                  bool accumulate) const;

  /// Sparse in-place patch of one generator row via code linearity: given a
  /// dirty region of data chunk `data_index` whose XOR-delta against the
  /// previously encoded bytes is `delta` (new ⊕ old, starting at byte
  /// `offset` of the packet), fold E[row][data_index]·Δ into the stored
  /// row packet: target ^= E[row][data_index] · Δ over [offset, offset+|Δ|).
  ///
  /// `target` is the FULL row packet (the strip layout of the bitmatrix
  /// kernel needs the whole packet extent, not just the dirty window).
  /// Exact for both kernel modes and any in-range region; in kGfTable mode
  /// offset and |Δ| must be multiples of the field's region granularity
  /// (2 bytes for w=16, else 1), in bitmatrix mode they are unrestricted.
  /// Patching every dirty region of every data chunk this way leaves the
  /// row packet byte-identical to a full re-encode (P' = P ⊕ G·Δ).
  void update_row(int row, int data_index, std::size_t offset, ByteSpan delta,
                  MutableByteSpan target) const;

  /// The bytes of a `packet_size`-byte row packet that update_row may
  /// change for the dirty window [offset, offset+length), whatever the row:
  /// disjoint (start, length) ranges in ascending order. In kGfTable mode
  /// that is the window itself. In bitmatrix mode a source strip's bytes
  /// land at the same offset within other strips, so it is the window's
  /// offsets within a strip, repeated in each of the w strips — the whole
  /// packet once the window spans a strip.
  std::vector<std::pair<std::size_t, std::size_t>> update_footprint(
      std::size_t offset, std::size_t length, std::size_t packet_size) const;

  /// update_row over all m parity rows: parity[r] ^= E[k+r][data_index]·Δ.
  /// parity.size() == m, each span a full packet.
  void update_parity(int data_index, std::size_t offset, ByteSpan delta,
                     std::span<MutableByteSpan> parity) const;

  /// XORs per stripe of the bitmatrix encode program (cost model /
  /// ablations); -1 in kGfTable mode.
  int xor_ops_per_stripe() const;

 private:
  /// The parity bitmatrix's CSE program, built on first use: optimizing
  /// takes 0.6 s at (8,4,16), and fabric_save/fabric_load build a codec
  /// per call without ever encoding a stripe.
  const XorProgram& encode_program() const;

  int k_;
  int m_;
  int w_;
  KernelMode mode_;
  const gf::Field* field_;
  GfMatrix generator_;  // (k+m) × k
  mutable std::once_flag encode_program_once_;
  mutable XorProgram encode_program_;
};

}  // namespace eccheck::ec
