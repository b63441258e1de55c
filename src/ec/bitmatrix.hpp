// Bit-matrix (GF(2)) representation of GF(2^w) matrices, the basis of
// XOR-only region coding over "strips" (paper §IV-A: "encoding can be
// implemented by using XOR operations exclusively"; see ec/xor_program.hpp).
//
// Each GF(2^w) element e expands to a w×w binary matrix B(e) whose column j
// is the bit pattern of e · 2^j; multiplication by e over GF(2^w) is then a
// GF(2) matrix-vector product on the bit representation. A data packet is
// split into w equal strips; strip i of the product is the XOR of the source
// strips selected by row i of B(e).
#pragma once

#include <cstdint>
#include <vector>

#include "ec/gf_matrix.hpp"

namespace eccheck::ec {

/// Dense bit matrix, row-major, one byte per bit (small matrices only:
/// dimensions are (m·w) × (k·w), tens of thousands of bits at most).
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        bits_(static_cast<std::size_t>(rows) * cols, 0) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  bool get(int r, int c) const {
    return bits_[static_cast<std::size_t>(r) * cols_ + c] != 0;
  }
  void set(int r, int c, bool v) {
    bits_[static_cast<std::size_t>(r) * cols_ + c] = v ? 1 : 0;
  }

  int ones() const;  ///< number of set bits == XORs per strip-row (minus 1)

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<std::uint8_t> bits_;
};

/// Expand a GF(2^w) matrix into its (rows·w) × (cols·w) bit matrix.
BitMatrix expand_to_bitmatrix(const GfMatrix& m);

}  // namespace eccheck::ec
