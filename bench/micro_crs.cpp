// Microbenchmarks (§IV-A): Cauchy Reed-Solomon encode/decode throughput by
// code shape and kernel mode.
#include <benchmark/benchmark.h>

#include "bench/gbench_json.hpp"
#include "common/rng.hpp"
#include "ec/crs_codec.hpp"

namespace {

using namespace eccheck;
using ec::CrsCodec;
using ec::KernelMode;

std::vector<Buffer> make_packets(int n, std::size_t size) {
  std::vector<Buffer> v;
  for (int i = 0; i < n; ++i) {
    v.emplace_back(size, Buffer::Init::kUninitialized);
    fill_random(v.back().span(), static_cast<std::uint64_t>(i) + 1);
  }
  return v;
}

void BM_CrsEncode(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const bool bitmatrix = state.range(2) != 0;
  const std::size_t P = static_cast<std::size_t>(state.range(3));
  CrsCodec codec(k, m, 8,
                 bitmatrix ? KernelMode::kXorBitmatrix : KernelMode::kGfTable);
  auto data = make_packets(k, P);
  auto parity = make_packets(m, P);
  std::vector<ByteSpan> in;
  for (auto& d : data) in.push_back(d.span());
  std::vector<MutableByteSpan> out;
  for (auto& p : parity) out.push_back(p.span());
  // Untimed warm-up: bitmatrix mode builds its CSE program on the first
  // encode, which the loop must not time.
  codec.encode(in, out);

  for (auto _ : state) {
    codec.encode(in, out);
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(P) * k);
  state.SetLabel(bitmatrix ? "xor-bitmatrix" : "gf-table");
}
BENCHMARK(BM_CrsEncode)
    ->Args({2, 2, 0, 1 << 20})
    ->Args({2, 2, 1, 1 << 20})
    ->Args({4, 2, 0, 1 << 20})
    ->Args({4, 2, 1, 1 << 20})
    ->Args({8, 4, 0, 1 << 20})
    ->Args({8, 4, 1, 1 << 20});

void BM_CrsDecode(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const std::size_t P = 1 << 20;
  CrsCodec codec(k, m, 8);
  auto data = make_packets(k, P);
  auto parity = make_packets(m, P);
  {
    std::vector<ByteSpan> in;
    for (auto& d : data) in.push_back(d.span());
    std::vector<MutableByteSpan> out;
    for (auto& p : parity) out.push_back(p.span());
    codec.encode(in, out);
  }
  // Worst case: all survivors are parity rows (m >= k assumed in args).
  std::vector<int> rows;
  std::vector<ByteSpan> chunks;
  for (int r = 0; r < k; ++r) {
    rows.push_back(k + r);
    chunks.push_back(parity[static_cast<std::size_t>(r)].span());
  }
  auto rec = make_packets(k, P);
  std::vector<MutableByteSpan> out;
  for (auto& r : rec) out.push_back(r.span());

  for (auto _ : state) {
    codec.decode(rows, chunks, out);
    benchmark::DoNotOptimize(rec[0].data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(P) * k);
}
BENCHMARK(BM_CrsDecode)->Args({2, 2})->Args({4, 4});


}  // namespace

int main(int argc, char** argv) {
  return eccheck::bench::gbench_main("micro_crs", argc, argv);
}
