// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Extension bench: data-adaptive quantization levels (ZipML). Section 2.3:
// "There are algorithms in which quantization levels are distributed to
// further minimize variance ... We implemented this for gradient but does
// not observe significant improvement." This bench reproduces that
// experiment: the adaptive placement measurably cuts quantization
// variance, but end-to-end accuracy moves by at most noise.
#include <iostream>

#include "base/rng.h"
#include "base/strings.h"
#include "base/table_printer.h"
#include "bench/bench_util.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "tensor/tensor.h"
#include "base/logging.h"

namespace lpsgd {
namespace {

double MeasureMse(const CodecSpec& spec) {
  auto codec = spec.Create();
  CHECK_OK(codec.status());
  const Shape shape({4096});
  Tensor grad(shape);
  Rng rng(12);
  grad.FillGaussian(&rng, 1.0f);

  double total = 0.0;
  std::vector<uint8_t> blob;
  std::vector<float> decoded(4096);
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    (*codec)->Encode(grad.data(), shape, static_cast<uint64_t>(t), nullptr,
                     &blob);
    CHECK_OK((*codec)->Decode(blob.data(), static_cast<int64_t>(blob.size()), shape,
                     decoded.data()));
    for (int64_t i = 0; i < 4096; ++i) {
      const double d = decoded[static_cast<size_t>(i)] - grad.at(i);
      total += d * d;
    }
  }
  return total / trials / 4096.0;
}

double TrainWith(const CodecSpec& codec) {
  SyntheticImageOptions train_options;
  train_options.num_classes = 10;
  train_options.channels = 1;
  train_options.height = 8;
  train_options.width = 8;
  train_options.num_samples = 512;
  train_options.signal = 1.2f;
  train_options.noise = 0.8f;
  SyntheticImageOptions test_options = train_options;
  test_options.num_samples = 256;
  test_options.sample_offset = 1 << 20;
  const SyntheticImageDataset train(train_options);
  const SyntheticImageDataset test(test_options);

  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 32;
  options.learning_rate = 0.05f;
  options.lr_schedule = {{14, 0.01f}};
  options.codec = codec;
  options.seed = 41;
  auto trainer = SyncTrainer::Create(
      [](uint64_t seed) { return BuildMiniAlexNet(1, 8, 10, seed); },
      options);
  CHECK_OK(trainer.status());
  auto metrics = (*trainer)->Train(train, test, 20);
  CHECK_OK(metrics.status());
  return metrics->back().test_accuracy;
}

}  // namespace
}  // namespace lpsgd

int main(int argc, char** argv) {
  lpsgd::bench::BenchRun bench_run(&argc, argv, "bench_extension_adaptive_levels");
  using namespace lpsgd;  // NOLINT(build/namespaces)
  bench::PrintHeader(
      "Extension: ZipML-style adaptive quantization levels (Section 2.3)",
      "Variance-minimizing level placement vs QSGD's uniform grid, at the "
      "same wire width.");
  TablePrinter table({"Codec", "Quantization MSE", "Wire bytes (2048 el.)",
                      "Test accuracy (%)"});
  for (int bits : {2, 4}) {
    for (bool adaptive : {false, true}) {
      const CodecSpec spec =
          adaptive ? AdaptiveQsgdSpec(bits) : QsgdSpec(bits);
      auto codec = spec.Create();
      CHECK_OK(codec.status());
      table.AddRow({spec.Label(), FormatDouble(MeasureMse(spec), 5),
                    StrCat((*codec)->EncodedSizeBytes(Shape({2048}))),
                    FormatDouble(TrainWith(spec) * 100.0, 1)});
    }
  }
  table.Print(std::cout);
  std::cout << "Paper shape (Section 2.3): adaptive levels cut the "
               "quantization variance, but the end accuracy\nshows no "
               "significant improvement -- matching \"we implemented this "
               "for gradient but does not\nobserve significant "
               "improvement.\"\n";
  return 0;
}
