// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Quickstart: train a small model with synchronous data-parallel SGD on
// four simulated GPUs, exchanging gradients as 4-bit QSGD over the MPI
// reduce-and-broadcast engine, and report accuracy plus what the
// compression saved on the wire.
//
//   ./quickstart
#include <iostream>

#include "base/strings.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"

int main() {
  using namespace lpsgd;  // NOLINT(build/namespaces)

  // 1. A synthetic image-classification task (train/test from the same
  //    distribution, disjoint sample ranges).
  SyntheticImageOptions data_options;
  data_options.num_classes = 5;
  data_options.channels = 1;
  data_options.height = 8;
  data_options.width = 8;
  data_options.num_samples = 512;
  SyntheticImageDataset train(data_options);
  data_options.num_samples = 256;
  data_options.sample_offset = 1 << 20;
  SyntheticImageDataset test(data_options);

  // 2. Training configuration: 4 simulated GPUs on an EC2 p2.8xlarge,
  //    gradients quantized with QSGD 4bit (bucket 512, the paper's
  //    accuracy-preserving setting).
  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 32;
  options.learning_rate = 0.05f;
  options.codec = QsgdSpec(4);
  options.primitive = CommPrimitive::kMpi;
  options.machine = Ec2P2_8xlarge();

  // 3. Every rank builds the same model; the ranks then share one set of
  //    parameters, stepped once per iteration with the averaged gradient.
  auto trainer = SyncTrainer::Create(
      [](uint64_t seed) { return BuildMlp({64, 48, 5}, seed); }, options);
  if (!trainer.ok()) {
    std::cerr << "trainer creation failed: " << trainer.status() << "\n";
    return 1;
  }

  auto metrics = (*trainer)->Train(train, test, /*epochs=*/10);
  if (!metrics.ok()) {
    std::cerr << "training failed: " << metrics.status() << "\n";
    return 1;
  }

  std::cout << "epoch  train_loss  test_accuracy\n";
  for (const EpochMetrics& m : *metrics) {
    std::cout << "  " << m.epoch << "    " << FormatDouble(m.train_loss, 4)
              << "      " << FormatDouble(m.test_accuracy * 100.0, 1)
              << "%\n";
  }

  const CommStats& comm = (*trainer)->total_comm();
  std::cout << "\ngradient traffic: " << HumanBytes(comm.wire_bytes)
            << " on the wire instead of " << HumanBytes(comm.raw_bytes)
            << " (" << FormatDouble(comm.CompressionRatio(), 1)
            << "x compression)\n";
  std::cout << "simulated communication time: "
            << HumanSeconds(comm.TotalSeconds()) << " over "
            << comm.messages << " messages\n";
  return 0;
}
