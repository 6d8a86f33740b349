// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "data/dataset.h"

#include <numeric>
#include <utility>

#include "base/logging.h"
#include "base/rng.h"

namespace lpsgd {

Batch MakeBatch(const Dataset& dataset, const std::vector<int64_t>& indices) {
  Batch batch;
  MakeBatch(dataset, indices, &batch);
  return batch;
}

void MakeBatch(const Dataset& dataset, std::span<const int64_t> indices,
               Batch* batch) {
  const Shape& sample_shape = dataset.SampleShape();
  batch->inputs.Resize(static_cast<int64_t>(indices.size()), sample_shape);
  batch->labels.resize(indices.size());

  const int64_t stride = sample_shape.element_count();
  for (size_t i = 0; i < indices.size(); ++i) {
    CHECK_GE(indices[i], 0);
    CHECK_LT(indices[i], dataset.NumSamples());
    dataset.FillSample(indices[i],
                       batch->inputs.data() + static_cast<int64_t>(i) * stride);
    batch->labels[i] = dataset.LabelOf(indices[i]);
  }
}

BatchIterator::BatchIterator(const Dataset* dataset, int64_t batch_size,
                             uint64_t seed)
    : dataset_(dataset), batch_size_(batch_size), seed_(seed) {
  CHECK(dataset != nullptr);
  CHECK_GT(batch_size, 0);
  order_.resize(static_cast<size_t>(dataset->NumSamples()));
  std::iota(order_.begin(), order_.end(), 0);
  StartEpoch(0);
}

void BatchIterator::StartEpoch(int epoch) {
  // Each epoch's order is a pure function of (seed, epoch): reset to the
  // identity permutation, then Fisher-Yates with the per-epoch stream.
  std::iota(order_.begin(), order_.end(), 0);
  Rng rng(HashCounter(seed_, static_cast<uint64_t>(epoch)));
  for (size_t i = order_.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.NextUint64(i));
    std::swap(order_[i - 1], order_[j]);
  }
  cursor_ = 0;
}

bool BatchIterator::NextBatch(Batch* batch) {
  const int64_t total = static_cast<int64_t>(order_.size());
  if (cursor_ >= total) return false;
  const int64_t count = std::min(batch_size_, total - cursor_);
  MakeBatch(*dataset_,
            std::span<const int64_t>(order_).subspan(
                static_cast<size_t>(cursor_), static_cast<size_t>(count)),
            batch);
  cursor_ += count;
  return true;
}

int64_t BatchIterator::NumBatchesPerEpoch() const {
  const int64_t total = static_cast<int64_t>(order_.size());
  return (total + batch_size_ - 1) / batch_size_;
}

}  // namespace lpsgd
