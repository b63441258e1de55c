#include "ec/bitmatrix.hpp"

namespace eccheck::ec {

int BitMatrix::ones() const {
  int n = 0;
  for (auto b : bits_) n += b;
  return n;
}

BitMatrix expand_to_bitmatrix(const GfMatrix& m) {
  const auto& f = m.field();
  const int w = f.w();
  BitMatrix bm(m.rows() * w, m.cols() * w);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      std::uint32_t e = m.at(r, c);
      if (e == 0) continue;
      // Column j of B(e) is the bit pattern of e * 2^j.
      for (int j = 0; j < w; ++j) {
        std::uint32_t v = f.mul(e, 1u << j);
        for (int i = 0; i < w; ++i) {
          if (v & (1u << i)) bm.set(r * w + i, c * w + j, true);
        }
      }
    }
  }
  return bm;
}

}  // namespace eccheck::ec
