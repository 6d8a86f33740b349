// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "comm/mpi_reduce_bcast.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/logging.h"
#include "base/simd/elementwise.h"
#include "base/thread_annotations.h"
#include "obs/span.h"

namespace lpsgd {

StatusOr<std::unique_ptr<MpiReduceBcastAggregator>>
MpiReduceBcastAggregator::Create(int num_ranks, const CodecSpec& spec,
                                 const MachineSpec& machine,
                                 const ExecutionContext& execution) {
  if (num_ranks < 1) {
    return InvalidArgumentError("num_ranks must be >= 1");
  }
  LPSGD_ASSIGN_OR_RETURN(std::unique_ptr<GradientCodec> codec,
                         spec.Create());
  return std::unique_ptr<MpiReduceBcastAggregator>(
      new MpiReduceBcastAggregator(num_ranks, spec, std::move(codec),
                                   machine, execution));
}

MpiReduceBcastAggregator::MpiReduceBcastAggregator(
    int num_ranks, CodecSpec spec, std::unique_ptr<GradientCodec> codec,
    const MachineSpec& machine, ExecutionContext execution)
    : num_ranks_(num_ranks),
      spec_(std::move(spec)),
      codec_(std::move(codec)),
      cost_model_(machine),
      exec_(std::move(execution)),
      // One codec workspace per thread-pool slot: two threads executing
      // tasks of the same ParallelFor batch never share a slot, so the
      // scratch is race-free (see ThreadPool::CurrentSlot()).
      workspaces_(static_cast<size_t>(exec_.threads())) {}

// Purity exemptions (tools/analyze/lpsgd_analyze): the checkpoint buffers
// grow once to the model size and are capacity-reused on later calls, and
// rollback only runs after a failed exchange — neither allocates on the
// fault-free steady-state path.
LPSGD_HOT_CALLEE_OK(CheckpointExchangeState);
LPSGD_HOT_CALLEE_OK(RollbackExchangeState);

void MpiReduceBcastAggregator::CheckpointExchangeState() {
  if (aggregate_errors_snapshot_.size() < aggregate_errors_.size()) {
    aggregate_errors_snapshot_.resize(aggregate_errors_.size());
  }
  for (size_t m = 0; m < aggregate_errors_.size(); ++m) {
    aggregate_errors_snapshot_[m].assign(aggregate_errors_[m].begin(),
                                         aggregate_errors_[m].end());
  }
  aggregate_errors_snapshot_count_ = aggregate_errors_.size();
}

void MpiReduceBcastAggregator::RollbackExchangeState() {
  const size_t count =
      std::min(aggregate_errors_snapshot_count_, aggregate_errors_.size());
  for (size_t m = 0; m < count; ++m) {
    aggregate_errors_[m].assign(aggregate_errors_snapshot_[m].begin(),
                                aggregate_errors_snapshot_[m].end());
  }
  // Residuals first sized after the checkpoint hold partial state from the
  // failed exchange; empty them so the next call's setup re-zeroes them.
  for (size_t m = count; m < aggregate_errors_.size(); ++m) {
    aggregate_errors_[m].clear();
  }
}

void MpiReduceBcastAggregator::ExportExchangeState(
    std::vector<std::vector<float>>* state) const {
  *state = aggregate_errors_;
}

Status MpiReduceBcastAggregator::ImportExchangeState(
    const std::vector<std::vector<float>>& state) {
  aggregate_errors_ = state;
  aggregate_errors_snapshot_count_ = 0;
  return OkStatus();
}

StatusOr<CommStats> MpiReduceBcastAggregator::AllReduce(
    std::vector<MatrixSlot>* slots, int64_t iteration) {
  CHECK(slots != nullptr);
  obs::Span allreduce_span({.histogram = "comm/allreduce_wall_seconds",
                            .trace = "mpi_reduce_bcast/allreduce",
                            .category = "comm"});
  // Internal-state transaction (comm/allreduce.h): any error return below
  // rolls the aggregation residuals back to this checkpoint.
  {
    obs::Span checkpoint_span(&workspaces_[0].phases, obs::kPhaseRetry);
    CheckpointExchangeState();
  }
  const int k = num_ranks_;
  const int64_t num_matrices = static_cast<int64_t>(slots->size());
  if (aggregate_errors_.size() < slots->size()) {
    aggregate_errors_.resize(slots->size());
  }

  const bool identity_codec = spec_.kind == CodecKind::kFullPrecision;

  // Per-matrix accounting and scratch, merged in matrix order at the end:
  // totals (including float encode_seconds sums) are byte-identical at any
  // thread count because the merge order is fixed. All of it lives in
  // member buffers that keep their capacity across calls (grown entries
  // are never dropped), so steady-state calls allocate nothing.
  // The serial setup below (scratch sizing, first-call allocations,
  // residual zeroing) is exchange staging: attribute it so a cold first
  // step keeps its breakdown coverage.
  {
    obs::Span setup_span(&workspaces_[0].phases, obs::kPhaseSum);
    per_matrix_.assign(slots->size(), CommStats{});
    rank_blob_bytes_.assign(slots->size(), 0);
    if (decoded_.size() < slots->size()) decoded_.resize(slots->size());
    if (sparse_indices_.size() < slots->size()) {
      sparse_indices_.resize(slots->size());
    }
    if (sparse_values_.size() < slots->size()) {
      sparse_values_.resize(slots->size());
    }
    if (aggregates_.size() < slots->size()) {
      aggregates_.resize(slots->size());
    }
    if (bcasts_.size() < slots->size()) bcasts_.resize(slots->size());
    if (fp_sums_.size() < slots->size()) fp_sums_.resize(slots->size());

    for (int64_t m = 0; m < num_matrices; ++m) {
      MatrixSlot& slot = (*slots)[static_cast<size_t>(m)];
      CHECK_EQ(static_cast<int>(slot.rank_grads.size()), k);
      if (slot.quantized && !identity_codec) {
        const bool sparse = codec_->SparseCount(slot.quant_shape) > 0;
        auto& per_rank = sparse ? sparse_values_[static_cast<size_t>(m)]
                                : decoded_[static_cast<size_t>(m)];
        if (per_rank.size() < static_cast<size_t>(k)) {
          per_rank.resize(static_cast<size_t>(k));
        }
        if (sparse &&
            sparse_indices_[static_cast<size_t>(m)].size() <
                static_cast<size_t>(k)) {
          sparse_indices_[static_cast<size_t>(m)].resize(
              static_cast<size_t>(k));
        }
      }
      // Size the owner-side aggregation residual here, in the serial
      // setup, so the stage-2 exchange lambda below stays allocation-free
      // (it is an LPSGD_HOT_PATH region; tools/lint enforces this).
      if (slot.quantized && !identity_codec && codec_->UsesErrorFeedback()) {
        auto& residual = aggregate_errors_[static_cast<size_t>(m)];
        const auto n =
            static_cast<size_t>(slot.quant_shape.element_count());
        if (residual.size() != n) residual.assign(n, 0.0f);
      }
    }
  }

  // Stage 1 (parallel over (matrix, rank)): every rank encodes its local
  // gradient, folding in its error-feedback residual, and the blob is
  // decoded into that rank's scratch buffer. Stochastic tags depend only
  // on (iteration, m, r), residuals are per (m, r), and scratch buffers
  // are disjoint — scheduling cannot change a single bit.
  {
    obs::Span reduce_span(
        {.trace = "mpi_reduce_bcast/reduce", .category = "comm"});
    const Status reduce_status = exec_.ParallelFor(
        0, num_matrices * k, LPSGD_HOT_PATH [&](int64_t task) -> Status {
          const size_t m = static_cast<size_t>(task / k);
          const size_t r = static_cast<size_t>(task % k);
          MatrixSlot& slot = (*slots)[m];
          if (!slot.quantized || identity_codec) return OkStatus();
          const int slot_id = ThreadPool::CurrentSlot();
          CHECK_LT(static_cast<size_t>(slot_id), workspaces_.size());
          CodecWorkspace& ws = workspaces_[static_cast<size_t>(slot_id)];
          const int64_t n = slot.quant_shape.element_count();
          const uint64_t tag = comm_internal::ExchangeRankTag(
              iteration, static_cast<int64_t>(m), static_cast<int>(r));
          std::vector<float>* error =
              codec_->UsesErrorFeedback() ? slot.rank_errors[r] : nullptr;
          codec_->Encode(slot.rank_grads[r], slot.quant_shape, tag, error, &ws,
                         &ws.blob);
          if (wire_tamper_) {
            wire_tamper_(iteration, static_cast<int64_t>(m),
                         static_cast<int>(r), ws.blob.data(),
                         static_cast<int64_t>(ws.blob.size()));
          }
          if (r == 0) {  // blob sizes are shape-determined, uniform per rank
            rank_blob_bytes_[m] = static_cast<int64_t>(ws.blob.size());
          }
          const int64_t sparse_count = codec_->SparseCount(slot.quant_shape);
          if (sparse_count > 0) {
            // Sparse wire form: decode the (index, value) runs directly; the
            // owner scatter-adds them in stage 2 without densifying k blobs.
            uint32_t* indices;
            float* values;
            {
              // First-call growth of the decode scratch is staging work.
              obs::Span scratch_span(&ws.phases, obs::kPhaseSum);
              indices = quant_internal::EnsureSize(
                  &sparse_indices_[m][r], static_cast<size_t>(sparse_count));
              values = quant_internal::EnsureSize(
                  &sparse_values_[m][r], static_cast<size_t>(sparse_count));
            }
            LPSGD_RETURN_IF_ERROR(codec_->DecodeSparse(
                ws.blob.data(), static_cast<int64_t>(ws.blob.size()),
                slot.quant_shape, &ws, indices, values));
            return OkStatus();
          }
          float* out;
          {
            // First-call growth of the decode scratch is staging work.
            obs::Span scratch_span(&ws.phases, obs::kPhaseSum);
            out = quant_internal::EnsureSize(&decoded_[m][r],
                                             static_cast<size_t>(n));
          }
          LPSGD_RETURN_IF_ERROR(codec_->Decode(
              ws.blob.data(), static_cast<int64_t>(ws.blob.size()),
              slot.quant_shape, &ws, out));
          return OkStatus();
        });
    if (!reduce_status.ok()) {
      RollbackExchangeState();
      // Partial phase scratch from the failed attempt must not leak into
      // the next (retried) exchange's breakdown.
      for (CodecWorkspace& ws : workspaces_) ws.phases.Clear();
      return reduce_status;
    }
    int64_t reduce_bytes = 0;
    for (int64_t bytes : rank_blob_bytes_) reduce_bytes += bytes * k;
    reduce_span.set_bytes(reduce_bytes);
  }

  // Stage 2 (parallel over matrices): the owner sums the decoded blobs in
  // rank order (fixed fp summation order), re-encodes the aggregate with
  // its persistent residual, and broadcasts; every rank decodes. Bypassed
  // matrices travel the full-precision reduce+broadcast here instead.
  {
    obs::Span bcast_span(
        {.trace = "mpi_reduce_bcast/broadcast", .category = "comm"});
    const Status bcast_status = exec_.ParallelFor(
        0, num_matrices, LPSGD_HOT_PATH [&](int64_t mi) -> Status {
          const size_t m = static_cast<size_t>(mi);
          MatrixSlot& slot = (*slots)[m];
          obs::Span matrix_span(
              {.trace = "mpi_reduce_bcast/matrix", .category = "comm"});
          const int64_t n = slot.quant_shape.element_count();
          const int64_t raw_bytes = n * static_cast<int64_t>(sizeof(float));
          CommStats& stats = per_matrix_[m];
          stats.raw_bytes += raw_bytes;

          const int slot_id = ThreadPool::CurrentSlot();
          CHECK_LT(static_cast<size_t>(slot_id), workspaces_.size());
          CodecWorkspace& ws = workspaces_[static_cast<size_t>(slot_id)];

          const bool quantize = slot.quantized && !identity_codec;
          if (!quantize) {
            // Full-precision pipeline: plain reduce + broadcast of fp32 data
            // through the matrix's persistent double accumulator.
            // Each sum[i] accumulates over ranks in fixed order; within one
            // rank pass the elements are independent, so the widened add and
            // the fp32 store dispatch to the elementwise SIMD kernels without
            // changing any rounding.
            const ElementwiseKernels& elementwise = ActiveElementwiseKernels();
            double* sum;
            {
              obs::Span sum_span(&ws.phases, obs::kPhaseSum);
              sum = quant_internal::EnsureSize(&fp_sums_[m],
                                               static_cast<size_t>(n));
              std::fill(sum, sum + n, 0.0);
              for (int r = 0; r < k; ++r) {
                elementwise.accumulate_f64(
                    sum, slot.rank_grads[static_cast<size_t>(r)], n);
              }
            }
            {
              obs::Span wire_span(&ws.phases, obs::kPhaseWire);
              for (int r = 0; r < k; ++r) {
                elementwise.store_f64_as_f32(
                    sum, slot.rank_grads[static_cast<size_t>(r)], n);
              }
            }
            stats.wire_bytes += raw_bytes;
            stats.messages += 2;
            matrix_span.set_bytes(raw_bytes);
            return OkStatus();
          }

          const int64_t sparse_count = codec_->SparseCount(slot.quant_shape);
          float* aggregate;
          {
            obs::Span sum_span(&ws.phases, obs::kPhaseSum);
            aggregate = quant_internal::EnsureSize(&aggregates_[m],
                                                   static_cast<size_t>(n));
            std::fill(aggregate, aggregate + n, 0.0f);
            if (sparse_count > 0) {
              // Scatter-add the k (index, value) runs in rank order. Each
              // absent component contributes an exact 0.0f, so the result is
              // element-equal to the dense sum at any thread count.
              for (int r = 0; r < k; ++r) {
                const uint32_t* indices =
                    sparse_indices_[m][static_cast<size_t>(r)].data();
                const float* values =
                    sparse_values_[m][static_cast<size_t>(r)].data();
                for (int64_t i = 0; i < sparse_count; ++i) {
                  aggregate[indices[i]] += values[i];
                }
              }
            } else {
              const ElementwiseKernels& elementwise =
                  ActiveElementwiseKernels();
              for (int r = 0; r < k; ++r) {
                elementwise.add_assign_f32(
                    aggregate, decoded_[m][static_cast<size_t>(r)].data(), n);
              }
            }
          }

          const int owner = static_cast<int>(m) % k;
          // Residual already sized by the serial setup loop above.
          std::vector<float>* agg_error =
              codec_->UsesErrorFeedback() ? &aggregate_errors_[m] : nullptr;
          const uint64_t agg_tag = comm_internal::ExchangeAggregateTag(
              iteration, static_cast<int64_t>(m), owner);
          codec_->Encode(aggregate, slot.quant_shape, agg_tag, agg_error, &ws,
                         &ws.blob);
          if (wire_tamper_) {
            wire_tamper_(iteration, static_cast<int64_t>(m), /*rank=*/-1,
                         ws.blob.data(), static_cast<int64_t>(ws.blob.size()));
          }
          const int64_t blob_bytes = static_cast<int64_t>(ws.blob.size());
          float* bcast;
          {
            obs::Span scratch_span(&ws.phases, obs::kPhaseSum);
            bcast = quant_internal::EnsureSize(&bcasts_[m],
                                               static_cast<size_t>(n));
          }
          LPSGD_RETURN_IF_ERROR(codec_->Decode(ws.blob.data(), blob_bytes,
                                               slot.quant_shape, &ws, bcast));
          {
            obs::Span wire_span(&ws.phases, obs::kPhaseWire);
            for (int r = 0; r < k; ++r) {
              std::memcpy(slot.rank_grads[static_cast<size_t>(r)], bcast,
                          static_cast<size_t>(n) * sizeof(float));
            }
          }

          stats.wire_bytes += blob_bytes;
          stats.messages += 2;
          matrix_span.set_bytes(blob_bytes);
          // Per-rank kernel work: encode own gradient, decode the aggregate,
          // and an amortized share of the owner-side decodes and re-encode.
          const int64_t chunks = codec_->NumChunks(slot.quant_shape);
          stats.encode_seconds +=
              3.0 * cost_model_.QuantKernelSeconds(n, chunks);
          return OkStatus();
        });
    if (!bcast_status.ok()) {
      RollbackExchangeState();
      for (CodecWorkspace& ws : workspaces_) ws.phases.Clear();
      return bcast_status;
    }
  }

  CommStats stats;
  for (const CommStats& matrix_stats : per_matrix_) stats.Add(matrix_stats);
  stats.comm_seconds +=
      cost_model_.MpiExchangeSeconds(stats.wire_bytes, stats.messages, k);
  allreduce_span.set_bytes(stats.wire_bytes);
  comm_internal::RecordAllReduceStats(stats, &workspaces_);
  return stats;
}

}  // namespace lpsgd
