// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_DATA_DATASET_H_
#define LPSGD_DATA_DATASET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace lpsgd {

// One training minibatch: `inputs` has shape {batch, <sample shape>} and
// `labels[i]` is the class of row i.
struct Batch {
  Tensor inputs;
  std::vector<int> labels;

  int64_t size() const { return static_cast<int64_t>(labels.size()); }
};

// A labelled classification dataset addressable by sample index. Samples
// are generated (or fetched) on demand so synthetic datasets need no
// storage proportional to their size.
class Dataset {
 public:
  virtual ~Dataset() = default;

  virtual int64_t NumSamples() const = 0;
  virtual int NumClasses() const = 0;

  // Shape of one sample, without the batch dimension.
  virtual const Shape& SampleShape() const = 0;

  // Writes sample `index` (SampleShape().element_count() floats) to `out`.
  virtual void FillSample(int64_t index, float* out) const = 0;

  virtual int LabelOf(int64_t index) const = 0;
};

// Materializes `indices` from `dataset` into a Batch.
Batch MakeBatch(const Dataset& dataset, const std::vector<int64_t>& indices);

// Refills `batch` with `indices` from `dataset`, reusing its storage: a
// batch refilled at sizes it has already held allocates nothing.
void MakeBatch(const Dataset& dataset, std::span<const int64_t> indices,
               Batch* batch);

// Deterministic shuffled minibatch iterator. Every epoch reshuffles with a
// seed derived from (seed, epoch) so runs are exactly reproducible and all
// data-parallel ranks can derive the same global order.
class BatchIterator {
 public:
  // Does not take ownership of `dataset`, which must outlive the iterator.
  BatchIterator(const Dataset* dataset, int64_t batch_size, uint64_t seed);

  // Starts (or restarts) iteration for `epoch`.
  void StartEpoch(int epoch);

  // Refills `batch` (reusing its storage) with the next batch; returns
  // false when the epoch is exhausted. The final batch of an epoch may be
  // smaller than `batch_size`.
  bool NextBatch(Batch* batch);

  int64_t batch_size() const { return batch_size_; }
  int64_t NumBatchesPerEpoch() const;

 private:
  const Dataset* dataset_;
  int64_t batch_size_;
  uint64_t seed_;
  std::vector<int64_t> order_;
  int64_t cursor_ = 0;
};

}  // namespace lpsgd

#endif  // LPSGD_DATA_DATASET_H_
