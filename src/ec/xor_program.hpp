// XOR programs: the XOR-only strip kernels of the bitmatrix mode, with
// common-subexpression elimination.
//
// A naive bitmatrix program XORs, for every output strip, each input strip
// whose bit is set — Σ ones(B) operations. Parity rows of a Cauchy matrix
// share many input-strip pairs, so factoring frequently co-occurring pairs
// into temporaries (computed once, reused everywhere) reduces the XOR count
// — the idea behind "smart scheduling" in fast-erasure-coding work the paper
// cites ([38]). The greedy heuristic here repeatedly extracts the most
// common remaining pair; programs stay bit-exact with the naive one.
#pragma once

#include "common/bytes.hpp"
#include "ec/bitmatrix.hpp"

namespace eccheck::ec {

/// A straight-line XOR program over input strips, temporaries, and output
/// strips. Strip operands are indices: inputs are packet·w + strip.
struct XorProgram {
  enum class Space : std::uint8_t { kInput, kTemp, kOutput };

  struct Operand {
    Space space;
    int index;
    friend bool operator==(const Operand&, const Operand&) = default;
  };

  struct Op {
    Operand dst;       ///< kTemp or kOutput
    Operand src;       ///< kInput or kTemp
    bool accumulate;   ///< false = copy, true = XOR-into
  };

  int w = 8;
  int in_packets = 0;
  int out_packets = 0;
  int num_temps = 0;
  std::vector<Op> ops;

  /// XORs actually performed (copies count as free moves).
  int xor_count() const;

  /// Total strip reads+writes — the memory-bound cost that actually limits
  /// throughput (every op streams one strip in and one strip out).
  int memory_passes() const { return static_cast<int>(ops.size()); }
};

/// Bytes of each strip that run_xor_program processes per pass over the
/// program; a temporary holds one tile, so it stays cache-resident.
inline constexpr std::size_t kXorTile = 4096;

/// Plain program: one op per set bit, the first of each row a copy.
XorProgram naive_xor_program(const BitMatrix& bm, int in_packets,
                             int out_packets, int w);

/// Greedy pair-factoring optimization; never worse than naive.
XorProgram optimize_xor_program(const BitMatrix& bm, int in_packets,
                                int out_packets, int w);

/// Execute on real strips; packet sizes must be divisible by w·8. The
/// strips are walked in kXorTile-byte tiles (a shorter last tile), each
/// tile running the whole program. With `accumulate` every write to an
/// output is an XOR, so the product is folded into `out`.
void run_xor_program(const XorProgram& prog, std::span<const ByteSpan> in,
                     std::span<MutableByteSpan> out, bool accumulate = false);

}  // namespace eccheck::ec
