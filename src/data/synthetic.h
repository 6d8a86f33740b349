// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_DATA_SYNTHETIC_H_
#define LPSGD_DATA_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "tensor/shape.h"

namespace lpsgd {

// Synthetic stand-ins for the paper's datasets (Figure 1). The paper's
// accuracy findings are about gradient statistics under quantization, which
// these tasks reproduce at laptop scale; see DESIGN.md ("Substitutions").

// Image-classification task in the style of CIFAR-10/ImageNet: each class
// has a Gaussian prototype image, plus class-specific low-frequency spatial
// structure so convolution and pooling genuinely help; a sample is
// prototype * signal + N(0, noise^2). Samples are generated on the fly from
// counter-based RNG streams, so train/test splits with disjoint
// `sample_offset` ranges are i.i.d. from the same distribution.
struct SyntheticImageOptions {
  int num_classes = 10;
  int channels = 1;
  int height = 8;
  int width = 8;
  int64_t num_samples = 2048;
  float signal = 1.0f;
  float noise = 1.0f;
  uint64_t seed = 42;
  // First global sample index served by this dataset instance; use
  // different offsets for train and test splits.
  uint64_t sample_offset = 0;
};

class SyntheticImageDataset : public Dataset {
 public:
  explicit SyntheticImageDataset(const SyntheticImageOptions& options);

  int64_t NumSamples() const override { return options_.num_samples; }
  int NumClasses() const override { return options_.num_classes; }
  const Shape& SampleShape() const override { return sample_shape_; }
  void FillSample(int64_t index, float* out) const override;
  int LabelOf(int64_t index) const override;

 private:
  SyntheticImageOptions options_;
  Shape sample_shape_;  // {channels, height, width}
  // prototypes_[c] holds the class-c prototype (sample-shaped).
  std::vector<std::vector<float>> prototypes_;
};

// Sequence-classification task in the style of AN4 utterances: each class
// ("word") is a fixed sequence of anchor frames; a sample walks through the
// anchors with additive Gaussian noise and a random temporal phase. Suits
// LSTM classification from the final hidden state.
struct SyntheticSequenceOptions {
  int num_classes = 8;
  int time_steps = 12;
  int frame_dim = 16;
  int64_t num_samples = 1024;
  float noise = 0.5f;
  uint64_t seed = 42;
  uint64_t sample_offset = 0;
};

class SyntheticSequenceDataset : public Dataset {
 public:
  explicit SyntheticSequenceDataset(const SyntheticSequenceOptions& options);

  int64_t NumSamples() const override { return options_.num_samples; }
  int NumClasses() const override { return options_.num_classes; }
  const Shape& SampleShape() const override { return sample_shape_; }
  void FillSample(int64_t index, float* out) const override;
  int LabelOf(int64_t index) const override;

 private:
  SyntheticSequenceOptions options_;
  Shape sample_shape_;  // {time_steps, frame_dim}
  // anchors_[c] holds time_steps * frame_dim floats for class c.
  std::vector<std::vector<float>> anchors_;
};

}  // namespace lpsgd

#endif  // LPSGD_DATA_SYNTHETIC_H_
