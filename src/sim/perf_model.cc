// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "sim/perf_model.h"

#include <cmath>

#include "base/logging.h"
#include "base/strings.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace lpsgd {
namespace {

// Counts the estimate and records a "perf_estimate" run-report entry so
// bench binaries emit their per-configuration splits via --metrics_out.
void RecordEstimate(const PerfEstimate& est) {
  if (obs::MetricsEnabled()) {
    obs::Count("sim/perf_estimates");
  }
  if (obs::ReportEnabled()) {
    obs::RecordEntry("perf_estimate", PerfEstimateToJson(est));
  }
}

}  // namespace

obs::JsonValue PerfEstimateToJson(const PerfEstimate& estimate) {
  obs::JsonValue v = obs::JsonValue::Object();
  v.Set("network", estimate.network);
  v.Set("codec", estimate.codec_label);
  v.Set("primitive", CommPrimitiveName(estimate.primitive));
  v.Set("gpus", estimate.gpus);
  v.Set("global_batch", estimate.global_batch);
  v.Set("per_gpu_batch", estimate.per_gpu_batch);
  v.Set("compute_seconds", estimate.compute_seconds);
  v.Set("encode_seconds", estimate.encode_seconds);
  v.Set("comm_seconds", estimate.comm_seconds);
  v.Set("iteration_seconds", estimate.IterationSeconds());
  v.Set("wire_bytes", estimate.wire_bytes);
  v.Set("raw_bytes", estimate.raw_bytes);
  v.Set("samples_per_second", estimate.SamplesPerSecond());
  v.Set("comm_fraction", estimate.CommFraction());
  return v;
}

PerfModel::PerfModel(NetworkStats network, MachineSpec machine)
    : network_(std::move(network)),
      machine_(std::move(machine)),
      cost_model_(machine_) {}

StatusOr<PerfEstimate> PerfModel::Estimate(const CodecSpec& spec,
                                           CommPrimitive primitive,
                                           int gpus) const {
  return EstimateInternal(spec, primitive, gpus, /*model_scale=*/1.0);
}

StatusOr<PerfEstimate> PerfModel::EstimateScaledModel(
    const CodecSpec& spec, CommPrimitive primitive, int gpus,
    double model_scale) const {
  return EstimateInternal(spec, primitive, gpus, model_scale);
}

StatusOr<PerfEstimate> PerfModel::EstimateInternal(
    const CodecSpec& spec, CommPrimitive primitive, int gpus,
    double model_scale) const {
  if (gpus < 1 || gpus > machine_.num_gpus) {
    return InvalidArgumentError(
        StrCat(machine_.name, " cannot run ", gpus, " GPUs"));
  }
  if (primitive == CommPrimitive::kNccl &&
      !machine_.NcclAvailableFor(gpus)) {
    return FailedPreconditionError(
        StrCat("NCCL supports at most ", machine_.nccl_max_gpus, " GPUs"));
  }
  if (network_.batch_for_gpus.find(gpus) == network_.batch_for_gpus.end()) {
    return InvalidArgumentError(
        StrCat(network_.name, " has no batch size for ", gpus, " GPUs"));
  }
  if (model_scale < 1.0) {
    return InvalidArgumentError("model_scale must be >= 1");
  }

  PerfEstimate est;
  est.network = network_.name;
  est.codec_label = spec.Label();
  est.primitive = primitive;
  est.gpus = gpus;
  est.global_batch = network_.BatchForGpus(gpus);
  est.per_gpu_batch = est.global_batch / gpus;
  CHECK_GT(est.per_gpu_batch, 0);

  // --- Computation: calibrated single-GPU throughput, scaled by GPU
  // architecture and batch efficiency. Dummy parameters (model_scale > 1)
  // add no compute, matching the paper's extrapolation methodology.
  const double per_gpu_sps = network_.k80_samples_per_sec *
                             machine_.gpu.relative_speed *
                             network_.EfficiencyAt(est.per_gpu_batch);
  est.compute_seconds = est.per_gpu_batch / per_gpu_sps;

  if (gpus == 1) {
    // No gradient exchange; CNTK also skips quantization entirely.
    est.raw_bytes = static_cast<int64_t>(
        network_.ModelBytes() * model_scale);
    est.wire_bytes = 0;
    RecordEstimate(est);
    return est;
  }

  // --- Communication: expand the matrix inventory, apply the small-matrix
  // bypass policy, and size each matrix with the codec.
  LPSGD_ASSIGN_OR_RETURN(std::unique_ptr<GradientCodec> codec,
                         spec.Create());
  const bool identity_codec = spec.kind == CodecKind::kFullPrecision;

  std::vector<Shape> shapes;
  std::vector<ParamKind> kinds;
  for (const MatrixStat& m : network_.matrices) {
    const int64_t cols = static_cast<int64_t>(
        std::llround(static_cast<double>(m.cols) * model_scale));
    for (int c = 0; c < m.count; ++c) {
      shapes.push_back(Shape({m.rows, cols}));
      kinds.push_back(m.kind);
    }
  }
  QuantizationPolicyOptions policy;
  policy.always_bypass_biases = false;  // inventory has no bias entries
  const std::vector<bool> quantize =
      identity_codec ? std::vector<bool>(shapes.size(), false)
                     : ChooseQuantizedMatrices(shapes, kinds, policy);

  int64_t wire_bytes = 0;
  int64_t raw_bytes = 0;
  int64_t quantized_elements = 0;
  int64_t chunks = 0;
  int64_t matrices = 0;
  for (size_t i = 0; i < shapes.size(); ++i) {
    const int64_t n = shapes[i].element_count();
    raw_bytes += n * static_cast<int64_t>(sizeof(float));
    ++matrices;
    if (quantize[i]) {
      wire_bytes += codec->EncodedSizeBytes(shapes[i]);
      quantized_elements += n;
      chunks += codec->NumChunks(shapes[i]);
    } else {
      wire_bytes += n * static_cast<int64_t>(sizeof(float));
    }
  }
  est.raw_bytes = raw_bytes;
  est.wire_bytes = wire_bytes;

  if (primitive == CommPrimitive::kMpi) {
    // Per-matrix reduce + broadcast messages; three kernel passes per
    // quantized matrix (local encode, owner decode share, final decode) —
    // matching comm/MpiReduceBcastAggregator.
    est.comm_seconds =
        cost_model_.MpiExchangeSeconds(wire_bytes, 2 * matrices, gpus);
    est.encode_seconds =
        3.0 * cost_model_.QuantKernelSeconds(quantized_elements, chunks);
  } else {
    est.comm_seconds =
        cost_model_.NcclAllReduceSeconds(wire_bytes, matrices, gpus);
    est.encode_seconds =
        2.0 * cost_model_.QuantKernelSeconds(quantized_elements, chunks);
  }
  RecordEstimate(est);
  return est;
}

StatusOr<double> PerfModel::Scalability(const CodecSpec& spec,
                                        CommPrimitive primitive,
                                        int gpus) const {
  LPSGD_ASSIGN_OR_RETURN(PerfEstimate est, Estimate(spec, primitive, gpus));
  // The 1-GPU full-precision baseline is machine-local (same GPU model).
  LPSGD_ASSIGN_OR_RETURN(PerfEstimate base,
                         Estimate(FullPrecisionSpec(), primitive, 1));
  return est.SamplesPerSecond() / base.SamplesPerSecond();
}

StatusOr<double> PerfModel::RecipeCostUsd(const CodecSpec& spec,
                                          CommPrimitive primitive,
                                          int gpus) const {
  LPSGD_ASSIGN_OR_RETURN(PerfEstimate est, Estimate(spec, primitive, gpus));
  const double epoch_hours =
      est.EpochSeconds(network_.dataset_samples) / 3600.0;
  return epoch_hours * network_.recipe_epochs * machine_.price_per_hour_usd;
}

double PerfModel::ModelSizeToComputeRatio(double model_scale) const {
  const double megabytes = network_.ModelBytes() * model_scale / 1e6;
  return megabytes / network_.gflops_per_sample;
}

StatusOr<PerfEstimate> EstimateConfiguration(const std::string& network,
                                             const MachineSpec& machine,
                                             const CodecSpec& spec,
                                             CommPrimitive primitive,
                                             int gpus) {
  LPSGD_ASSIGN_OR_RETURN(NetworkStats stats, FindNetworkStats(network));
  PerfModel model(std::move(stats), machine);
  return model.Estimate(spec, primitive, gpus);
}

}  // namespace lpsgd
