// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Micro-benchmarks (google-benchmark) for the NN substrate: Gemm in all
// four transpose modes at the per-rank shapes of the benchmark models,
// one LSTM layer's forward+backward, and the mini-AlexNet conv2 layer's
// forward and backward. BM_CopyF32 is the memory-bound reference the CI
// gate (tools/obs/bench_gate) normalizes every row by. All rows are timed
// by wall clock.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include <algorithm>
#include <vector>

#include "base/rng.h"
#include "nn/conv2d.h"
#include "nn/lstm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace {

Tensor Gaussian(Shape shape, uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  t.FillGaussian(&rng, 1.0f);
  return t;
}

// Reference row: a plain float copy, the unit every other row is
// normalized by.
void BM_CopyF32(benchmark::State& state) {
  const int64_t n = state.range(0);
  const Tensor src = Gaussian(Shape({n}), 1);
  Tensor dst(Shape({n}));
  for (auto _ : state) {
    std::copy(src.data(), src.data() + n, dst.data());
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// C (m x n) = op(A) op(B) with beta = 0; items are multiply-adds.
void RunGemm(benchmark::State& state, bool transpose_a, bool transpose_b) {
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const int64_t n = state.range(2);
  const Tensor a =
      Gaussian(transpose_a ? Shape({k, m}) : Shape({m, k}), 2);
  const Tensor b =
      Gaussian(transpose_b ? Shape({n, k}) : Shape({k, n}), 3);
  Tensor c(Shape({m, n}));
  for (auto _ : state) {
    Gemm(transpose_a, transpose_b, 1.0f, a, b, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}

void BM_GemmNN(benchmark::State& state) { RunGemm(state, false, false); }
void BM_GemmTN(benchmark::State& state) { RunGemm(state, true, false); }
void BM_GemmNT(benchmark::State& state) { RunGemm(state, false, true); }
void BM_GemmTT(benchmark::State& state) { RunGemm(state, true, true); }

// One LSTM layer over {batch 8, time 10, input_dim} returning the whole
// sequence, as the first layer of the benchmark's stacked LSTM does; items
// are samples.
void BM_LstmForwardBackward(benchmark::State& state) {
  const int input_dim = static_cast<int>(state.range(0));
  constexpr int kBatch = 8;
  constexpr int kTime = 10;
  constexpr int kHidden = 64;
  Rng rng(4);
  LstmLayer layer("lstm", input_dim, kHidden, &rng,
                  /*return_sequences=*/true);
  const Tensor input = Gaussian(Shape({kBatch, kTime, input_dim}), 5);
  const Tensor output_grad = Gaussian(Shape({kBatch, kTime, kHidden}), 6);
  for (auto _ : state) {
    Tensor out = layer.Forward(input, /*training=*/true);
    Tensor input_grad = layer.Backward(output_grad);
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(input_grad.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}

// The mini-AlexNet conv2 layer: 8 -> 16 channels, 3x3, stride 1, pad 1,
// on 4x4 maps, batch 8; items are samples.
constexpr int kConvBatch = 8;
constexpr int kConvIn = 8;
constexpr int kConvOut = 16;
constexpr int kConvSize = 4;

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(7);
  Conv2dLayer layer("conv2", kConvIn, kConvOut, 3, 1, 1, &rng);
  const Tensor input =
      Gaussian(Shape({kConvBatch, kConvIn, kConvSize, kConvSize}), 8);
  for (auto _ : state) {
    Tensor out = layer.Forward(input, /*training=*/true);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kConvBatch);
}

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(7);
  Conv2dLayer layer("conv2", kConvIn, kConvOut, 3, 1, 1, &rng);
  const Tensor input =
      Gaussian(Shape({kConvBatch, kConvIn, kConvSize, kConvSize}), 8);
  const Tensor output_grad =
      Gaussian(Shape({kConvBatch, kConvOut, kConvSize, kConvSize}), 9);
  Tensor out = layer.Forward(input, /*training=*/true);
  benchmark::DoNotOptimize(out.data());
  for (auto _ : state) {
    // Backward reads the patches the last Forward cached; it leaves them
    // in place, so one Forward serves every iteration.
    Tensor input_grad = layer.Backward(output_grad);
    benchmark::DoNotOptimize(input_grad.data());
  }
  state.SetItemsProcessed(state.iterations() * kConvBatch);
}

// m x k x n after op(): the stacked LSTM's gate GEMMs (batch 8, frame 12,
// hidden 64) and their backward shapes, the MLP's 512-wide layers at batch
// 2, and the mini-AlexNet conv2 GEMM.
void GemmShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({8, 12, 256})
      ->Args({8, 64, 256})
      ->Args({256, 8, 64})
      ->Args({8, 256, 64})
      ->Args({2, 512, 512})
      ->Args({512, 2, 512})
      ->Args({16, 72, 16});
}

BENCHMARK(BM_CopyF32)->Arg(1 << 16)->UseRealTime();
BENCHMARK(BM_GemmNN)->Apply(GemmShapes)->UseRealTime();
BENCHMARK(BM_GemmTN)->Apply(GemmShapes)->UseRealTime();
BENCHMARK(BM_GemmNT)->Apply(GemmShapes)->UseRealTime();
BENCHMARK(BM_GemmTT)->Apply(GemmShapes)->UseRealTime();
BENCHMARK(BM_LstmForwardBackward)->Arg(12)->Arg(64)->UseRealTime();
BENCHMARK(BM_Conv2dForward)->UseRealTime();
BENCHMARK(BM_Conv2dBackward)->UseRealTime();

}  // namespace
}  // namespace lpsgd

// Expanded BENCHMARK_MAIN() with the BenchRun harness in front: it
// strips --metrics_out/--trace_out before benchmark::Initialize
// sees (and would reject) them.
int main(int argc, char** argv) {
  lpsgd::bench::BenchRun bench_run(&argc, argv, "bench_micro_nn");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
