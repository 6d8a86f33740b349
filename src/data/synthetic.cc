// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "data/synthetic.h"

#include <cmath>

#include "base/logging.h"
#include "base/rng.h"

namespace lpsgd {
namespace {

// Converts two independent uniforms into one standard normal (Box-Muller,
// cosine branch only: counter-addressable, no state).
double GaussianFromUniforms(double u1, double u2) {
  if (u1 <= 0.0) u1 = 1e-12;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

}  // namespace

SyntheticImageDataset::SyntheticImageDataset(
    const SyntheticImageOptions& options)
    : options_(options),
      sample_shape_({options.channels, options.height, options.width}) {
  CHECK_GT(options_.num_classes, 1);
  CHECK_GT(options_.num_samples, 0);
  Rng rng(options_.seed);
  const int64_t dim = SampleShape().element_count();
  prototypes_.resize(static_cast<size_t>(options_.num_classes));
  for (int c = 0; c < options_.num_classes; ++c) {
    auto& proto = prototypes_[static_cast<size_t>(c)];
    proto.resize(static_cast<size_t>(dim));
    // Low-frequency class structure: a sum of a few random 2-D waves per
    // channel, plus white detail. This makes local (convolutional)
    // structure informative rather than only global pixel identity.
    const double fy = 1.0 + rng.NextDouble() * 2.0;
    const double fx = 1.0 + rng.NextDouble() * 2.0;
    const double phase_y = rng.NextDouble() * 2.0 * M_PI;
    const double phase_x = rng.NextDouble() * 2.0 * M_PI;
    int64_t i = 0;
    for (int ch = 0; ch < options_.channels; ++ch) {
      const double ch_scale = 0.7 + 0.6 * rng.NextDouble();
      for (int y = 0; y < options_.height; ++y) {
        for (int x = 0; x < options_.width; ++x, ++i) {
          const double wave =
              std::sin(fy * y * 2.0 * M_PI / options_.height + phase_y) *
              std::cos(fx * x * 2.0 * M_PI / options_.width + phase_x);
          proto[static_cast<size_t>(i)] = static_cast<float>(
              ch_scale * wave + 0.5 * rng.NextGaussian());
        }
      }
    }
  }
}

int SyntheticImageDataset::LabelOf(int64_t index) const {
  const uint64_t global = options_.sample_offset + static_cast<uint64_t>(index);
  return static_cast<int>(HashCounter(options_.seed ^ 0x1abe1u, global) %
                          static_cast<uint64_t>(options_.num_classes));
}

void SyntheticImageDataset::FillSample(int64_t index, float* out) const {
  const uint64_t global = options_.sample_offset + static_cast<uint64_t>(index);
  const int label = LabelOf(index);
  const auto& proto = prototypes_[static_cast<size_t>(label)];
  const CounterRng stream(options_.seed, global);
  const int64_t dim = SampleShape().element_count();
  for (int64_t i = 0; i < dim; ++i) {
    const double noise = GaussianFromUniforms(
        stream.UniformAt(static_cast<uint64_t>(2 * i)),
        stream.UniformAt(static_cast<uint64_t>(2 * i + 1)));
    out[i] = options_.signal * proto[static_cast<size_t>(i)] +
             options_.noise * static_cast<float>(noise);
  }
}

SyntheticSequenceDataset::SyntheticSequenceDataset(
    const SyntheticSequenceOptions& options)
    : options_(options),
      sample_shape_({options.time_steps, options.frame_dim}) {
  CHECK_GT(options_.num_classes, 1);
  CHECK_GT(options_.num_samples, 0);
  Rng rng(options_.seed ^ 0x5eedf00dULL);
  const size_t length =
      static_cast<size_t>(options_.time_steps) * options_.frame_dim;
  anchors_.resize(static_cast<size_t>(options_.num_classes));
  for (auto& anchor : anchors_) {
    anchor.resize(length);
    // Smooth anchor trajectories: random walk with decay, mimicking
    // phoneme-like continuity between consecutive frames.
    std::vector<float> frame(static_cast<size_t>(options_.frame_dim), 0.0f);
    size_t i = 0;
    for (int t = 0; t < options_.time_steps; ++t) {
      for (int d = 0; d < options_.frame_dim; ++d, ++i) {
        frame[static_cast<size_t>(d)] =
            0.7f * frame[static_cast<size_t>(d)] +
            static_cast<float>(rng.NextGaussian());
        anchor[i] = frame[static_cast<size_t>(d)];
      }
    }
  }
}

int SyntheticSequenceDataset::LabelOf(int64_t index) const {
  const uint64_t global = options_.sample_offset + static_cast<uint64_t>(index);
  return static_cast<int>(HashCounter(options_.seed ^ 0x5eb7u, global) %
                          static_cast<uint64_t>(options_.num_classes));
}

void SyntheticSequenceDataset::FillSample(int64_t index, float* out) const {
  const uint64_t global = options_.sample_offset + static_cast<uint64_t>(index);
  const int label = LabelOf(index);
  const auto& anchor = anchors_[static_cast<size_t>(label)];
  const CounterRng stream(options_.seed ^ 0xacc0u, global);
  // Random temporal phase: rotate the anchor sequence by a few steps so the
  // classifier must integrate over time rather than memorize frame 0.
  const int shift = static_cast<int>(HashCounter(options_.seed ^ 0x7a5eu,
                                                 global) %
                                     3u);
  const int64_t frame_dim = options_.frame_dim;
  for (int t = 0; t < options_.time_steps; ++t) {
    const int src_t = (t + shift) % options_.time_steps;
    for (int64_t d = 0; d < frame_dim; ++d) {
      const int64_t i = t * frame_dim + d;
      const int64_t src = src_t * frame_dim + d;
      const double noise = GaussianFromUniforms(
          stream.UniformAt(static_cast<uint64_t>(2 * i)),
          stream.UniformAt(static_cast<uint64_t>(2 * i + 1)));
      out[i] = anchor[static_cast<size_t>(src)] +
               options_.noise * static_cast<float>(noise);
    }
  }
}

}  // namespace lpsgd
