// Microbenchmarks (§IV-A): GF(2^w) region-multiply and XOR kernels — the
// arithmetic inner loops of checkpoint encoding — and the CRC64 that
// checksums every wire frame. The BM_Xor/BM_GfMul/BM_Crc64 families run on
// the dispatched (active) kernels; the <isa> variants registered in main()
// pin each supported ISA so scalar-vs-SIMD speedup is visible in one run
// (see EXPERIMENTS.md for a reference table).
#include <benchmark/benchmark.h>

#include <string>

#include "bench/gbench_json.hpp"
#include "common/crc64.hpp"
#include "common/rng.hpp"
#include "gf/galois.hpp"
#include "gf/simd.hpp"

namespace {

using namespace eccheck;

void BM_XorRegion(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Buffer a(n, Buffer::Init::kUninitialized), b(n, Buffer::Init::kUninitialized);
  fill_random(a.span(), 1);
  fill_random(b.span(), 2);
  for (auto _ : state) {
    xor_into(a.span(), b.span());
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_XorRegion)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_GfMulRegion(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const auto& f = gf::Field::get(w);
  Buffer src(n, Buffer::Init::kUninitialized), dst(n, Buffer::Init::kUninitialized);
  fill_random(src.span(), 3);
  const std::uint32_t c = f.max_element() / 2 + 1;
  for (auto _ : state) {
    f.mul_region(c, src.span(), dst.span(), /*accumulate=*/false);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfMulRegion)
    ->Args({4, 65536})
    ->Args({8, 65536})
    ->Args({16, 65536})
    ->Args({8, 1 << 20});

void BM_GfMulRegionAccumulate(benchmark::State& state) {
  const auto& f = gf::Field::get(8);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Buffer src(n, Buffer::Init::kUninitialized), dst(n, Buffer::Init::kUninitialized);
  fill_random(src.span(), 5);
  for (auto _ : state) {
    f.mul_region(87, src.span(), dst.span(), /*accumulate=*/true);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfMulRegionAccumulate)->Arg(65536)->Arg(1 << 20);

void BM_GfScalarMul(benchmark::State& state) {
  const auto& f = gf::Field::get(8);
  std::uint32_t x = 1;
  for (auto _ : state) {
    x = f.mul(x, 29) | 1;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_GfScalarMul);

void BM_Crc64(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Buffer a(n, Buffer::Init::kUninitialized);
  fill_random(a.span(), 6);
  std::uint64_t crc = 0;
  for (auto _ : state) {
    crc = crc64(a.span(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc64)->Arg(4096)->Arg(65536)->Arg(1 << 20);

// --- per-ISA variants -------------------------------------------------------
// Pinned-kernel runs registered per supported ISA; labels carry the ISA name
// ("BM_XorRegionIsa<avx2>/65536") so bench_compare tracks each path
// separately. Only host-supported ISAs register — bench_compare treats
// missing baselines for absent labels as new-label warnings, not failures.

void BM_XorRegionIsa(benchmark::State& state, gf::simd::Isa isa) {
  const gf::simd::Kernels& k = gf::simd::kernels_for(isa);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Buffer a(n, Buffer::Init::kUninitialized), b(n, Buffer::Init::kUninitialized);
  fill_random(a.span(), 1);
  fill_random(b.span(), 2);
  for (auto _ : state) {
    k.xor_into(a.data(), b.data(), n);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_GfMulRegionIsa(benchmark::State& state, gf::simd::Isa isa) {
  const gf::simd::Kernels& k = gf::simd::kernels_for(isa);
  const int w = static_cast<int>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const auto& f = gf::Field::get(w);
  Buffer src(n, Buffer::Init::kUninitialized), dst(n, Buffer::Init::kUninitialized);
  fill_random(src.span(), 3);
  const std::uint32_t c = f.max_element() / 2 + 1;
  for (auto _ : state) {
    f.mul_region(c, src.span(), dst.span(), /*accumulate=*/false, k);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_Crc64Isa(benchmark::State& state, gf::simd::Isa isa) {
  const gf::simd::Kernels& k = gf::simd::kernels_for(isa);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Buffer a(n, Buffer::Init::kUninitialized);
  fill_random(a.span(), 6);
  std::uint64_t crc = 0;
  for (auto _ : state) {
    crc = k.crc64(crc, a.data(), n);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void register_isa_benchmarks() {
  for (gf::simd::Isa isa : gf::simd::supported_isas()) {
    const std::string tag = gf::simd::isa_name(isa);
    benchmark::RegisterBenchmark(("BM_XorRegionIsa<" + tag + ">").c_str(),
                                 BM_XorRegionIsa, isa)
        ->Arg(65536)
        ->Arg(1 << 20);
    auto* mul = benchmark::RegisterBenchmark(
        ("BM_GfMulRegionIsa<" + tag + ">").c_str(), BM_GfMulRegionIsa, isa);
    mul->Args({4, 65536})->Args({8, 65536})->Args({16, 65536});
    mul->Args({8, 1 << 20});
    benchmark::RegisterBenchmark(("BM_Crc64Isa<" + tag + ">").c_str(),
                                 BM_Crc64Isa, isa)
        ->Arg(4096)
        ->Arg(65536)
        ->Arg(1 << 20);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_isa_benchmarks();
  return eccheck::bench::gbench_main("micro_gf", argc, argv);
}
