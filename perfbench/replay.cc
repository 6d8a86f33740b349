// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The traced layer replay: the same sequence of public layer calls as one
// SyncTrainer step (batch -> per-rank per-layer forward -> loss ->
// backward, then slot staging -> AllReduce, then scale + optimizer),
// issued from here with an in-memory span around every call. Spans carry
// a name, start, end, the step span as parent, and the step id; they are
// written out as a Chrome trace_event document when the replay ends.
#include <algorithm>
#include <cmath>
#include <map>

#include "base/logging.h"
#include "base/strings.h"
#include "bench.h"
#include "nn/loss.h"
#include "quant/policy.h"
#include "quant/workspace.h"
#include "tensor/ops.h"

namespace lpsgd {
namespace perfbench {
namespace {

// Layer kinds a span belongs to, for the per-step allocation counts.
enum class Module { kData, kNn, kComm, kQuant };

struct Span {
  int name = 0;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;  // index of the step span; -1 for a root span
  int64_t step = 0;
};

class SpanRecorder {
 public:
  int Intern(const std::string& name) {
    auto [it, inserted] = ids_.emplace(name, static_cast<int>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }
  const std::string& name(int id) const {
    return names_[static_cast<size_t>(id)];
  }
  size_t num_names() const { return names_.size(); }

  int64_t Open(int name, int64_t parent, int64_t step) {
    spans_.push_back({name, NowSeconds(), 0.0, parent, step});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t span) {
    spans_[static_cast<size_t>(span)].end = NowSeconds();
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace_event JSON of the spans of steps below `max_step`.
  std::string ToChromeTrace(int64_t max_step) const {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.step >= max_step) continue;
      if (!first) out += ",\n";
      first = false;
      out += StrCat("{\"name\":\"", name(span.name),
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":",
                    (span.start - origin) * 1e6,
                    ",\"dur\":", (span.end - span.start) * 1e6,
                    ",\"args\":{\"step\":", span.step,
                    ",\"parent\":", span.parent, ",\"id\":", i, "}}");
    }
    out += "]}\n";
    return out;
  }

 private:
  std::map<std::string, int> ids_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// Replicas, optimizers, residuals and aggregator of the replay, driven
// call by call through the public layer and exchange APIs.
struct ReplayRig {
  ReplayRig(const Workload& workload, const TrainerOptions& options,
            const Dataset* train)
      : iterator(train, options.global_batch_size,
                 options.seed ^ 0xdadaULL) {
    for (int r = 0; r < workload.num_gpus; ++r) {
      replicas.push_back(workload.factory(options.seed));
      optimizers.emplace_back(options.learning_rate, options.momentum);
    }
    for (Network& replica : replicas) params.push_back(replica.Params());
    quantize = ChooseQuantizedMatrices(params[0], options.policy);
    auto made_codec = options.codec.Create();
    CHECK_OK(made_codec.status());
    codec = std::move(*made_codec);
    auto made_aggregator = CreateAggregator(
        options.primitive, workload.num_gpus, options.codec,
        options.machine, ExecutionContext::Serial());
    CHECK_OK(made_aggregator.status());
    aggregator = std::move(*made_aggregator);
    // The step's codec work as the engine does it: MPI encodes every
    // quantized matrix; the NCCL ring encodes only sparse codecs.
    const size_t num_matrices = params[0].size();
    for (size_t m = 0; m < num_matrices; ++m) {
      probe_matrix.push_back(
          quantize[m] && (options.primitive == CommPrimitive::kMpi ||
                          codec->SparseCount(params[0][m].quant_shape) > 0));
    }
    probe_blobs.assign(replicas.size(),
                       std::vector<std::vector<uint8_t>>(num_matrices));
  }

  // Installs `state` into every replica, optimizer, residual and the
  // aggregator, and rewinds the batch stream to the state's epoch.
  Status Import(const ckpt::TrainerState& state) {
    for (size_t r = 0; r < replicas.size(); ++r) {
      for (size_t m = 0; m < state.params.size(); ++m) {
        const std::vector<float>& data = state.params[m].data;
        std::copy(data.begin(), data.end(), params[r][m].value->data());
      }
      std::vector<Tensor> velocity;
      for (const ckpt::TensorEntry& entry : state.optimizer) {
        Tensor tensor{Shape(entry.dims)};
        std::copy(entry.data.begin(), entry.data.end(), tensor.data());
        velocity.push_back(std::move(tensor));
      }
      optimizers[r].set_velocity(std::move(velocity));
    }
    errors = state.residuals;
    probe_errors.assign(replicas.size(), {});
    for (auto& rank : probe_errors) {
      for (size_t m = 0; m < params[0].size(); ++m) {
        const bool sized = codec->UsesErrorFeedback() && probe_matrix[m];
        rank.emplace_back(
            sized ? static_cast<size_t>(
                        params[0][m].quant_shape.element_count())
                  : 0,
            0.0f);
      }
    }
    LPSGD_RETURN_IF_ERROR(
        aggregator->ImportExchangeState(state.aggregator_state));
    iteration = state.iteration;
    iterator.StartEpoch(state.epochs_completed);
    return OkStatus();
  }

  ckpt::TrainerState Capture() const {
    ckpt::TrainerState state;
    for (const ParamRef& param : params[0]) {
      ckpt::TensorEntry entry;
      entry.data.assign(param.value->data(),
                        param.value->data() + param.value->size());
      state.params.push_back(std::move(entry));
    }
    for (const Tensor& velocity : optimizers[0].velocity()) {
      ckpt::TensorEntry entry;
      entry.data.assign(velocity.data(), velocity.data() + velocity.size());
      state.optimizer.push_back(std::move(entry));
    }
    state.residuals = errors;
    aggregator->ExportExchangeState(&state.aggregator_state);
    return state;
  }

  std::vector<Network> replicas;
  std::vector<std::vector<ParamRef>> params;  // [rank][matrix]
  std::vector<SgdMomentumOptimizer> optimizers;
  std::vector<std::vector<std::vector<float>>> errors;  // [rank][matrix]
  std::vector<bool> quantize;
  std::unique_ptr<GradientCodec> codec;
  std::unique_ptr<GradientAggregator> aggregator;
  BatchIterator iterator;
  int64_t iteration = 0;
  std::vector<MatrixSlot> slots;
  // Codec probe: which matrices the engine encodes, and the probe's own
  // residuals and blobs (the replay's residuals stay untouched).
  std::vector<bool> probe_matrix;
  std::vector<std::vector<std::vector<float>>> probe_errors;
  std::vector<std::vector<std::vector<uint8_t>>> probe_blobs;
  CodecWorkspace workspace;
  std::vector<float> decoded;
};

constexpr int kModules = 4;

}  // namespace

ReplayResult RunReplay(const Workload& workload, const Data& data,
                       uint64_t seed, const ckpt::TrainerState& start,
                       double budget_seconds) {
  ReplayResult result;
  const TrainerOptions options = MakeOptions(
      workload, seed, ExecutionContext::Serial(), /*faults=*/false);
  ReplayRig rig(workload, options, data.train.get());
  SpanRecorder rec;
  const int k = workload.num_gpus;
  const int num_layers = rig.replicas[0].num_layers();
  std::vector<int> forward_name;
  std::vector<int> backward_name;
  for (int i = 0; i < num_layers; ++i) {
    const std::string layer = rig.replicas[0].layer(i).name();
    forward_name.push_back(
        rec.Intern(StrCat("nn.layer.", layer, ".forward")));
    backward_name.push_back(
        rec.Intern(StrCat("nn.layer.", layer, ".backward")));
  }
  const int step_name = rec.Intern("core.step");
  const int batch_name = rec.Intern("data.batch");
  const int shard_name = rec.Intern("data.shard");
  const int zero_name = rec.Intern("nn.zero_grads");
  const int loss_name = rec.Intern("nn.loss");
  const int stage_name = rec.Intern("comm.stage");
  const int allreduce_name = rec.Intern("comm.allreduce");
  const int optimizer_name = rec.Intern("nn.optimizer");
  const int probe_name = rec.Intern("quant.probe");
  const int encode_name = rec.Intern("quant.encode");
  const int decode_name = rec.Intern("quant.decode");
  const int eval_name = rec.Intern("nn.eval_forward");

  const int64_t shard = workload.global_batch / k;
  const Shape sample_shape = data.train->SampleShape();
  const int64_t sample_elems = sample_shape.element_count();
  std::vector<int64_t> shard_dims{shard};
  for (int64_t d : sample_shape.dims()) shard_dims.push_back(d);
  const size_t num_matrices = rig.params[0].size();

  // Steady-state statistics, over every window after the first (which
  // grows the workspaces): per-step seconds by span name, step and
  // child-span seconds, allocations by module, and exchange accounting.
  std::vector<std::vector<double>> per_name(rec.num_names());
  std::vector<double> step_seconds;
  double step_total = 0.0;
  double child_total = 0.0;
  int64_t allocations[kModules] = {0, 0, 0, 0};
  int64_t steps = 0;
  CommStats comm_total;

  std::vector<double> name_seconds(rec.num_names(), 0.0);
  std::vector<LossResult> losses(static_cast<size_t>(k));
  Batch batch;
  int64_t replay_step = 0;  // span step id, unique across windows
  const double deadline = NowSeconds() + budget_seconds;
  for (int window = 0; window < 3 || (NowSeconds() < deadline && window < 64);
       ++window) {
    if (Status s = rig.Import(start); !s.ok()) {
      result.error = s.ToString();
      return result;
    }
    for (int64_t w = 0; w < workload.window_steps; ++w, ++replay_step) {
      const int64_t iteration = rig.iteration;
      const int64_t step = replay_step;
      std::fill(name_seconds.begin(), name_seconds.end(), 0.0);
      int64_t step_allocations[kModules] = {0, 0, 0, 0};
      double child = 0.0;
      int64_t parent = -1;
      int64_t span = -1;
      // Open/close a span under `parent`; a span's allocations are those
      // made between the two (the recorder's own growth happens before).
      auto begin = [&](int name, Module module) {
        span = rec.Open(name, parent, step);
        step_allocations[static_cast<int>(module)] -= AllocationCount();
      };
      auto end = [&](int name, Module module) {
        step_allocations[static_cast<int>(module)] += AllocationCount();
        rec.Close(span);
        const Span& closed = rec.spans()[static_cast<size_t>(span)];
        const double seconds = closed.end - closed.start;
        name_seconds[static_cast<size_t>(name)] += seconds;
        if (closed.parent >= 0 &&
            rec.spans()[static_cast<size_t>(closed.parent)].name ==
                step_name) {
          child += seconds;
        }
      };

      const int64_t step_span = rec.Open(step_name, -1, step);
      parent = step_span;
      begin(batch_name, Module::kData);
      const bool have_batch = rig.iterator.NextBatch(&batch);
      end(batch_name, Module::kData);
      if (!have_batch || batch.size() != workload.global_batch) {
        result.error = "replay batch stream ended early";
        return result;
      }
      for (int r = 0; r < k; ++r) {
        Network& replica = rig.replicas[static_cast<size_t>(r)];
        begin(zero_name, Module::kNn);
        replica.ZeroGrads();
        end(zero_name, Module::kNn);

        begin(shard_name, Module::kData);
        Tensor activation{Shape(shard_dims)};
        std::vector<int> labels(static_cast<size_t>(shard));
        const int64_t first = r * shard;
        std::copy(batch.inputs.data() + first * sample_elems,
                  batch.inputs.data() + (first + shard) * sample_elems,
                  activation.data());
        for (int64_t i = 0; i < shard; ++i) {
          labels[static_cast<size_t>(i)] =
              batch.labels[static_cast<size_t>(first + i)];
        }
        end(shard_name, Module::kData);

        for (int i = 0; i < num_layers; ++i) {
          begin(forward_name[static_cast<size_t>(i)], Module::kNn);
          activation = replica.layer(i).Forward(activation, true);
          end(forward_name[static_cast<size_t>(i)], Module::kNn);
        }
        LossResult& loss = losses[static_cast<size_t>(r)];
        begin(loss_name, Module::kNn);
        loss = SoftmaxCrossEntropy(activation, labels);
        end(loss_name, Module::kNn);
        Tensor grad = std::move(loss.logits_grad);
        for (int i = num_layers - 1; i >= 0; --i) {
          begin(backward_name[static_cast<size_t>(i)], Module::kNn);
          grad = replica.layer(i).Backward(grad);
          end(backward_name[static_cast<size_t>(i)], Module::kNn);
        }
      }

      begin(stage_name, Module::kComm);
      rig.slots.resize(num_matrices);
      for (size_t m = 0; m < num_matrices; ++m) {
        MatrixSlot& slot = rig.slots[m];
        slot.quant_shape = rig.params[0][m].quant_shape;
        slot.quantized = rig.quantize[m];
        slot.rank_grads.clear();
        slot.rank_errors.clear();
        for (size_t r = 0; r < static_cast<size_t>(k); ++r) {
          slot.rank_grads.push_back(rig.params[r][m].grad->data());
          slot.rank_errors.push_back(&rig.errors[r][m]);
        }
      }
      end(stage_name, Module::kComm);
      begin(allreduce_name, Module::kComm);
      StatusOr<CommStats> comm =
          rig.aggregator->AllReduce(&rig.slots, iteration);
      end(allreduce_name, Module::kComm);
      if (!comm.ok()) {
        result.error = comm.status().ToString();
        return result;
      }

      begin(optimizer_name, Module::kNn);
      const float inv_k = 1.0f / static_cast<float>(k);
      for (size_t r = 0; r < static_cast<size_t>(k); ++r) {
        for (ParamRef& param : rig.params[r]) Scale(inv_k, param.grad);
        rig.optimizers[r].Step(rig.params[r]);
      }
      end(optimizer_name, Module::kNn);
      rec.Close(step_span);
      ++rig.iteration;

      // Codec probe, outside the step span: the step's encode and decode
      // work for every rank through one reused workspace, on the
      // gradients as the step left them (the codecs' work per element
      // does not depend on the values).
      parent = rec.Open(probe_name, -1, step);
      for (size_t m = 0; m < num_matrices; ++m) {
        if (!rig.probe_matrix[m]) continue;
        const Shape& shape = rig.params[0][m].quant_shape;
        for (size_t r = 0; r < static_cast<size_t>(k); ++r) {
          std::vector<float>& error = rig.probe_errors[r][m];
          begin(encode_name, Module::kQuant);
          rig.codec->Encode(rig.params[r][m].grad->data(), shape,
                            comm_internal::ExchangeRankTag(
                                iteration, static_cast<int64_t>(m),
                                static_cast<int>(r)),
                            error.empty() ? nullptr : &error, &rig.workspace,
                            &rig.probe_blobs[r][m]);
          end(encode_name, Module::kQuant);
        }
        rig.decoded.resize(static_cast<size_t>(shape.element_count()));
        for (size_t r = 0; r < static_cast<size_t>(k); ++r) {
          const std::vector<uint8_t>& blob = rig.probe_blobs[r][m];
          begin(decode_name, Module::kQuant);
          const Status decoded = rig.codec->Decode(
              blob.data(), static_cast<int64_t>(blob.size()), shape,
              &rig.workspace, rig.decoded.data());
          end(decode_name, Module::kQuant);
          if (!decoded.ok()) {
            result.error = decoded.ToString();
            return result;
          }
        }
      }
      rec.Close(parent);

      for (const LossResult& loss : losses) {
        if (!std::isfinite(loss.loss_sum)) {
          result.error = "non-finite replay loss";
          return result;
        }
      }
      if (window == 0) continue;
      const Span& step_record = rec.spans()[static_cast<size_t>(step_span)];
      const double seconds = step_record.end - step_record.start;
      step_seconds.push_back(seconds);
      step_total += seconds;
      child_total += child;
      for (size_t n = 0; n < name_seconds.size(); ++n) {
        per_name[n].push_back(name_seconds[n]);
      }
      for (int m = 0; m < kModules; ++m) {
        allocations[m] += step_allocations[m];
      }
      comm_total.Add(*comm);
      ++steps;
    }
    if (window == 0) result.digest = StateDigest(rig.Capture());
  }

  // Evaluation forward passes (training=false) over the held-out set, one
  // span per eval batch, on the replay's replica 0.
  std::vector<double> eval_seconds;
  const int64_t eval_batch = options.eval_batch_size;
  const int64_t heldout = data.heldout->NumSamples();
  std::vector<int64_t> indices;
  for (int pass = 0; pass < 3; ++pass) {
    for (int64_t first = 0; first < heldout; first += eval_batch) {
      const int64_t last = std::min(first + eval_batch, heldout);
      indices.resize(static_cast<size_t>(last - first));
      for (int64_t i = first; i < last; ++i) {
        indices[static_cast<size_t>(i - first)] = i;
      }
      const Batch eval = MakeBatch(*data.heldout, indices);
      const int64_t span = rec.Open(eval_name, -1, -1);
      Tensor logits = rig.replicas[0].Forward(eval.inputs, false);
      rec.Close(span);
      const Span& closed = rec.spans()[static_cast<size_t>(span)];
      eval_seconds.push_back(closed.end - closed.start);
    }
  }

  auto step_sum = [&](const std::vector<int>& names) {
    std::vector<double> sums(static_cast<size_t>(steps), 0.0);
    for (int name : names) {
      for (size_t s = 0; s < sums.size(); ++s) {
        sums[s] += per_name[static_cast<size_t>(name)][s];
      }
    }
    return sums;
  };
  auto total = [](const std::vector<double>& values) {
    double sum = 0.0;
    for (double v : values) sum += v;
    return sum;
  };
  auto ms = [&](const std::vector<int>& names) {
    return 1e3 * Median(step_sum(names));
  };
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    result.metrics.push_back({name, value, unit});
  };
  const double per_step = steps > 0 ? 1.0 / static_cast<double>(steps) : 0.0;
  add("data.batch_ms", ms({batch_name}), "ms");
  add("data.shard_ms", ms({shard_name}), "ms");
  add("nn.forward_ms", ms(forward_name), "ms");
  add("nn.backward_ms", ms(backward_name), "ms");
  for (int i = 0; i < num_layers; ++i) {
    const std::string layer = rig.replicas[0].layer(i).name();
    add(StrCat("nn.layer.", layer, ".forward_ms"),
        ms({forward_name[static_cast<size_t>(i)]}), "ms");
    add(StrCat("nn.layer.", layer, ".backward_ms"),
        ms({backward_name[static_cast<size_t>(i)]}), "ms");
  }
  add("nn.zero_grads_ms", ms({zero_name}), "ms");
  add("nn.loss_ms", ms({loss_name}), "ms");
  add("nn.optimizer_ms", ms({optimizer_name}), "ms");
  add("nn.eval_forward_ms", 1e3 * Median(eval_seconds), "ms");
  add("nn.allocs_per_step",
      static_cast<double>(allocations[static_cast<int>(Module::kNn)]) *
          per_step,
      "count");
  add("quant.encode_ms", ms({encode_name}), "ms");
  add("quant.decode_ms", ms({decode_name}), "ms");
  add("quant.wire_bytes_per_step",
      static_cast<double>(comm_total.wire_bytes) * per_step, "bytes");
  add("comm.stage_ms", ms({stage_name}), "ms");
  add("comm.allreduce_ms", ms({allreduce_name}), "ms");
  add("comm.messages_per_step",
      static_cast<double>(comm_total.messages) * per_step, "count");
  add("comm.virtual_s_per_step", comm_total.TotalSeconds() * per_step, "s");
  add("comm.allocs_per_step",
      static_cast<double>(allocations[static_cast<int>(Module::kComm)]) *
          per_step,
      "count");
  add("core.step_ms_p50", 1e3 * Median(step_seconds), "ms");
  add("core.step_ms_p99", 1e3 * Quantile(step_seconds, 0.99), "ms");
  add("core.replay_steps", static_cast<double>(steps), "count");
  add("core.step_coverage", step_total > 0 ? child_total / step_total : 0.0,
      "ratio");
  const double nn_total =
      total(step_sum(forward_name)) + total(step_sum(backward_name));
  const double exchange_total =
      total(step_sum({stage_name})) + total(step_sum({allreduce_name}));
  add("nn.step_share", step_total > 0 ? nn_total / step_total : 0.0,
      "ratio");
  add("comm.step_share", step_total > 0 ? exchange_total / step_total : 0.0,
      "ratio");
  result.step_ms = 1e3 * Median(step_seconds);
  result.trace_json = rec.ToChromeTrace(2 * workload.window_steps);
  result.ok = true;
  return result;
}

}  // namespace perfbench
}  // namespace lpsgd
