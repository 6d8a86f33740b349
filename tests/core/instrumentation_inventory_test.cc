// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Pins the whole instrumentation inventory of a short training run: with
// the metrics registry, the tracer and the profiler all enabled, two
// iterations plus one evaluation must leave exactly the metric names,
// counter values and histogram observation counts, the multiset of trace
// (name, category) pairs with their byte / virtual-clock annotations, and
// the per-phase profile call counts recorded in the table below. Wall
// times are not compared; everything else a producer emits is.
//
// The table changes only when instrumentation is deliberately added or
// removed. A refactor of how producers open and close timed scopes must
// leave it untouched. On a mismatch the test prints the full observed
// inventory so an intended change can be reviewed line by line.
#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "quant/codec.h"
#include "quant/workspace.h"

namespace lpsgd {
namespace {

// Metrics whose value depends on thread scheduling rather than on the run,
// so the table pins their names but shows "*" for the value: which slot's
// codec workspace first meets a matrix shape (and grows) is up to the
// scheduler.
bool SchedulerDependentValue(const std::string& name) {
  return name == "quant/workspace/grow_events" ||
         name == "quant/workspace/grown_bytes";
}

// Metrics left out entirely: a pool worker records its queue wait only
// when it wakes while a batch is still posted, which may never happen in
// a short run, so even the name's presence is up to the scheduler.
bool SchedulerDependentPresence(const std::string& name) {
  return name == "pool/queue_wait_seconds";
}

SyntheticImageDataset Images(int64_t n, int64_t offset = 0) {
  SyntheticImageOptions options;
  options.num_classes = 4;
  options.channels = 1;
  options.height = 4;
  options.width = 4;
  options.num_samples = n;
  options.signal = 2.0f;
  options.noise = 0.5f;
  options.sample_offset = offset;
  return SyntheticImageDataset(options);
}

struct InventoryCase {
  const char* codec;
  CommPrimitive primitive;
  int threads;
};

std::string CaseName(const InventoryCase& c) {
  std::string name;
  for (const char* ch = c.codec; *ch != '\0'; ++ch) {
    if (*ch == '*') {
      name += "_star";
    } else {
      name += std::isalnum(static_cast<unsigned char>(*ch)) != 0 ? *ch : '_';
    }
  }
  return name + (c.primitive == CommPrimitive::kMpi ? "_mpi" : "_nccl") +
         "_t" + std::to_string(c.threads);
}

// Renders the three sinks' contents as sorted text lines.
std::string RenderInventory() {
  std::ostringstream out;
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::JsonValue metrics = reg.ToJson();
  for (const std::string& name : reg.Names()) {
    if (SchedulerDependentPresence(name)) continue;
    if (metrics.At("gauges").Has(name)) {
      out << "gauge " << name << "\n";
      continue;
    }
    const bool counter = metrics.At("counters").Has(name);
    out << (counter ? "counter " : "histogram ") << name << " ";
    if (SchedulerDependentValue(name)) {
      out << "*";
    } else if (counter) {
      out << reg.CounterValue(name);
    } else {
      out << reg.HistogramFor(name).count;
    }
    out << "\n";
  }

  // (category, name, has_bytes, has_virtual) -> occurrences.
  std::map<std::tuple<std::string, std::string, bool, bool>, int> spans;
  for (const obs::TraceEvent& e : obs::Tracer::Global().Events()) {
    ++spans[{e.category, e.name, e.arg_bytes >= 0, e.virtual_start >= 0.0}];
  }
  for (const auto& [key, n] : spans) {
    const auto& [category, name, bytes, virt] = key;
    out << "trace " << category << " " << name << (bytes ? " +bytes" : "")
        << (virt ? " +virtual" : "") << " x" << n << "\n";
  }

  const obs::TimeBreakdown totals = obs::Profiler::Global().Totals();
  out << "profile steps " << totals.steps << "\n";
  for (int p = 0; p < obs::kNumProfilePhases; ++p) {
    out << "phase " << obs::ProfilePhaseName(p) << " "
        << totals.phases.calls[p] << "\n";
  }
  return out.str();
}

// The inventory captured for each case, keyed by CaseName(). Each entry
// starts with a newline so the table reads as plain lines.
const std::map<std::string, std::string_view>& ExpectedInventories() {
  static const auto* const kExpected =
      new std::map<std::string, std::string_view>{
          {"q4_mpi_t1", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 16
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 960
histogram quant/decode_seconds 20
counter quant/encode_bytes 3360
histogram quant/encode_seconds 20
counter quant/qsgd/decode_calls 20
counter quant/qsgd/encode_calls 20
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm mpi_reduce_bcast/allreduce +bytes x2
trace comm mpi_reduce_bcast/broadcast x2
trace comm mpi_reduce_bcast/matrix +bytes x8
trace comm mpi_reduce_bcast/reduce +bytes x2
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 20
phase wire 8
phase decode 20
phase sum 32
phase retry 2
)"},
          {"q4_mpi_t4", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 16
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 960
counter pool/parallel_for_calls 6
counter pool/tasks 48
histogram quant/decode_seconds 20
counter quant/encode_bytes 3360
histogram quant/encode_seconds 20
counter quant/qsgd/decode_calls 20
counter quant/qsgd/encode_calls 20
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm mpi_reduce_bcast/allreduce +bytes x2
trace comm mpi_reduce_bcast/broadcast x2
trace comm mpi_reduce_bcast/matrix +bytes x8
trace comm mpi_reduce_bcast/reduce +bytes x2
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 20
phase wire 8
phase decode 20
phase sum 32
phase retry 2
)"},
          {"q4_nccl_t1", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 8
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 960
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm nccl_ring/allreduce +bytes x2
trace comm nccl_ring/matrix +bytes x8
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 0
phase wire 32
phase decode 0
phase sum 36
phase retry 0
)"},
          {"q4_nccl_t4", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 8
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 960
counter pool/parallel_for_calls 4
counter pool/tasks 40
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm nccl_ring/allreduce +bytes x2
trace comm nccl_ring/matrix +bytes x8
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 0
phase wire 32
phase decode 0
phase sum 36
phase retry 0
)"},
          {"topk_0_25_mpi_t1", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 16
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 2008
histogram quant/decode_seconds 20
counter quant/encode_bytes 8600
histogram quant/encode_seconds 20
counter quant/topk/decode_calls 20
counter quant/topk/encode_calls 20
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm mpi_reduce_bcast/allreduce +bytes x2
trace comm mpi_reduce_bcast/broadcast x2
trace comm mpi_reduce_bcast/matrix +bytes x8
trace comm mpi_reduce_bcast/reduce +bytes x2
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 20
phase wire 8
phase decode 24
phase sum 32
phase retry 2
)"},
          {"topk_0_25_mpi_t4", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 16
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 2008
counter pool/parallel_for_calls 6
counter pool/tasks 48
histogram quant/decode_seconds 20
counter quant/encode_bytes 8600
histogram quant/encode_seconds 20
counter quant/topk/decode_calls 20
counter quant/topk/encode_calls 20
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm mpi_reduce_bcast/allreduce +bytes x2
trace comm mpi_reduce_bcast/broadcast x2
trace comm mpi_reduce_bcast/matrix +bytes x8
trace comm mpi_reduce_bcast/reduce +bytes x2
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 20
phase wire 8
phase decode 24
phase sum 32
phase retry 2
)"},
          {"topk_0_25_nccl_t1", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 8
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 7168
histogram quant/decode_seconds 16
counter quant/encode_bytes 6880
histogram quant/encode_seconds 16
counter quant/topk/decode_calls 16
counter quant/topk/encode_calls 16
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm nccl_ring/allreduce +bytes x2
trace comm nccl_ring/matrix +bytes x8
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 16
phase wire 20
phase decode 16
phase sum 40
phase retry 0
)"},
          {"topk_0_25_nccl_t4", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 8
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 7168
counter pool/parallel_for_calls 8
counter pool/tasks 80
histogram quant/decode_seconds 16
counter quant/encode_bytes 6880
histogram quant/encode_seconds 16
counter quant/topk/decode_calls 16
counter quant/topk/encode_calls 16
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm nccl_ring/allreduce +bytes x2
trace comm nccl_ring/matrix +bytes x8
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 16
phase wire 20
phase decode 16
phase sum 40
phase retry 0
)"},
          {"32bit_mpi_t1", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 16
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 5408
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm mpi_reduce_bcast/allreduce +bytes x2
trace comm mpi_reduce_bcast/broadcast x2
trace comm mpi_reduce_bcast/matrix +bytes x8
trace comm mpi_reduce_bcast/reduce +bytes x2
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 0
phase wire 8
phase decode 0
phase sum 12
phase retry 2
)"},
          {"aq4_mpi_t1", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 16
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 1088
counter quant/adaptive_qsgd/decode_calls 20
counter quant/adaptive_qsgd/encode_calls 20
histogram quant/decode_seconds 20
counter quant/encode_bytes 4000
histogram quant/encode_seconds 20
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm mpi_reduce_bcast/allreduce +bytes x2
trace comm mpi_reduce_bcast/broadcast x2
trace comm mpi_reduce_bcast/matrix +bytes x8
trace comm mpi_reduce_bcast/reduce +bytes x2
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 20
phase wire 8
phase decode 20
phase sum 32
phase retry 2
)"},
          {"nuq4_mpi_t1", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 16
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 960
histogram quant/decode_seconds 20
counter quant/encode_bytes 3360
histogram quant/encode_seconds 20
counter quant/nuqsgd/decode_calls 20
counter quant/nuqsgd/encode_calls 20
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm mpi_reduce_bcast/allreduce +bytes x2
trace comm mpi_reduce_bcast/broadcast x2
trace comm mpi_reduce_bcast/matrix +bytes x8
trace comm mpi_reduce_bcast/reduce +bytes x2
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 20
phase wire 8
phase decode 20
phase sum 32
phase retry 2
)"},
          {"ecq4_mpi_t1", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 16
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 960
histogram quant/decode_seconds 20
counter quant/ecq_sgd/decode_calls 20
counter quant/ecq_sgd/encode_calls 20
counter quant/encode_bytes 3360
histogram quant/encode_seconds 20
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm mpi_reduce_bcast/allreduce +bytes x2
trace comm mpi_reduce_bcast/broadcast x2
trace comm mpi_reduce_bcast/matrix +bytes x8
trace comm mpi_reduce_bcast/reduce +bytes x2
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 20
phase wire 8
phase decode 20
phase sum 32
phase retry 2
)"},
          {"1bit_mpi_t1", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 16
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 1456
histogram quant/decode_seconds 20
counter quant/encode_bytes 5840
histogram quant/encode_seconds 20
counter quant/one_bit_sgd/decode_calls 20
counter quant/one_bit_sgd/encode_calls 20
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm mpi_reduce_bcast/allreduce +bytes x2
trace comm mpi_reduce_bcast/broadcast x2
trace comm mpi_reduce_bcast/matrix +bytes x8
trace comm mpi_reduce_bcast/reduce +bytes x2
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 20
phase wire 8
phase decode 20
phase sum 32
phase retry 2
)"},
          {"1bit_star_mpi_t1", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 16
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 624
histogram quant/decode_seconds 20
counter quant/encode_bytes 1680
histogram quant/encode_seconds 20
counter quant/one_bit_sgd_reshaped/decode_calls 20
counter quant/one_bit_sgd_reshaped/encode_calls 20
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm mpi_reduce_bcast/allreduce +bytes x2
trace comm mpi_reduce_bcast/broadcast x2
trace comm mpi_reduce_bcast/matrix +bytes x8
trace comm mpi_reduce_bcast/reduce +bytes x2
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 20
phase wire 8
phase decode 20
phase sum 32
phase retry 2
)"},
          {"terngrad_mpi_t1", R"(
counter comm/allreduce_calls 2
histogram comm/allreduce_wall_seconds 2
counter comm/messages 16
counter comm/raw_bytes 5408
histogram comm/virtual_comm_seconds 2
histogram comm/virtual_encode_seconds 2
counter comm/wire_bytes 640
histogram quant/decode_seconds 20
counter quant/encode_bytes 1760
histogram quant/encode_seconds 20
counter quant/terngrad/decode_calls 20
counter quant/terngrad/encode_calls 20
counter quant/workspace/grow_events *
counter quant/workspace/grown_bytes *
histogram trainer/epoch_seconds 1
counter trainer/epochs 1
histogram trainer/eval_seconds 1
histogram trainer/iteration_seconds 2
counter trainer/iterations 2
counter trainer/samples 64
gauge trainer/virtual_seconds
trace comm mpi_reduce_bcast/allreduce +bytes x2
trace comm mpi_reduce_bcast/broadcast x2
trace comm mpi_reduce_bcast/matrix +bytes x8
trace comm mpi_reduce_bcast/reduce +bytes x2
trace trainer trainer/epoch +virtual x1
trace trainer trainer/eval x1
trace trainer trainer/forward_backward x2
trace trainer trainer/iteration +virtual x2
trace trainer trainer/optimizer_step x2
trace trainer trainer/rank_forward_backward x8
profile steps 2
phase forward 8
phase backward 8
phase optimizer 2
phase encode 20
phase wire 8
phase decode 20
phase sum 32
phase retry 2
)"},
      };
  return *kExpected;
}

// Enables all three global sinks, empty, for one test.
class AllSinksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_metrics_ = obs::MetricsRegistry::Global().enabled();
    was_trace_ = obs::Tracer::Global().enabled();
    was_profile_ = obs::Profiler::Global().enabled();
    obs::MetricsRegistry::Global().set_enabled(true);
    obs::Tracer::Global().set_enabled(true);
    obs::Profiler::Global().set_enabled(true);
    ResetSinks();
  }

  void TearDown() override {
    ResetSinks();
    obs::MetricsRegistry::Global().set_enabled(was_metrics_);
    obs::Tracer::Global().set_enabled(was_trace_);
    obs::Profiler::Global().set_enabled(was_profile_);
  }

  static void ResetSinks() {
    obs::MetricsRegistry::Global().Reset();
    obs::Tracer::Global().Reset();
    obs::Profiler::Global().Reset();
  }

  bool was_metrics_ = false;
  bool was_trace_ = false;
  bool was_profile_ = false;
};

class InstrumentationInventoryTest
    : public AllSinksTest,
      public ::testing::WithParamInterface<InventoryCase> {};

using CodecInventoryTest = AllSinksTest;

TEST_P(InstrumentationInventoryTest, MatchesPinnedTable) {
  const InventoryCase& c = GetParam();
  auto spec = CodecSpec::Parse(c.codec);
  ASSERT_TRUE(spec.ok()) << spec.status();

  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 32;
  options.codec = *spec;
  options.primitive = c.primitive;
  options.seed = 11;
  options.execution = ExecutionContext::WithThreads(c.threads);
  auto trainer = SyncTrainer::Create(
      [](uint64_t seed) { return BuildMlp({16, 32, 4}, seed); }, options);
  ASSERT_TRUE(trainer.ok()) << trainer.status();
  // Everything Create emitted belongs to setup, not to the pinned run.
  ResetSinks();

  // 64 samples / batch 32 = 2 iterations, then one evaluation.
  const SyntheticImageDataset train = Images(64);
  const SyntheticImageDataset test = Images(32, /*offset=*/1 << 20);
  auto metrics = (*trainer)->Train(train, test, /*epochs=*/1);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  const std::string actual = RenderInventory();
  const auto it = ExpectedInventories().find(CaseName(c));
  ASSERT_NE(it, ExpectedInventories().end())
      << "no pinned inventory for " << CaseName(c) << "; observed:\n"
      << actual;
  EXPECT_EQ(actual, it->second.substr(1))
      << "observed inventory for " << CaseName(c) << ":\n"
      << actual;
}

INSTANTIATE_TEST_SUITE_P(
    CodecsEnginesThreads, InstrumentationInventoryTest,
    ::testing::Values(InventoryCase{"q4", CommPrimitive::kMpi, 1},
                      InventoryCase{"q4", CommPrimitive::kMpi, 4},
                      InventoryCase{"q4", CommPrimitive::kNccl, 1},
                      InventoryCase{"q4", CommPrimitive::kNccl, 4},
                      InventoryCase{"topk:0.25", CommPrimitive::kMpi, 1},
                      InventoryCase{"topk:0.25", CommPrimitive::kMpi, 4},
                      InventoryCase{"topk:0.25", CommPrimitive::kNccl, 1},
                      InventoryCase{"topk:0.25", CommPrimitive::kNccl, 4},
                      // One MPI case per remaining codec family, so every
                      // codec Encode/Decode entry point is pinned.
                      InventoryCase{"32bit", CommPrimitive::kMpi, 1},
                      InventoryCase{"aq4", CommPrimitive::kMpi, 1},
                      InventoryCase{"nuq4", CommPrimitive::kMpi, 1},
                      InventoryCase{"ecq4", CommPrimitive::kMpi, 1},
                      InventoryCase{"1bit", CommPrimitive::kMpi, 1},
                      InventoryCase{"1bit*", CommPrimitive::kMpi, 1},
                      InventoryCase{"terngrad", CommPrimitive::kMpi, 1}),
    [](const ::testing::TestParamInfo<InventoryCase>& info) {
      return CaseName(info.param);
    });

// Every codec entry point, called directly: what one Encode, one Decode
// and (for sparse codecs) one DecodeSparse of a 16x32 gradient leave in
// the metrics registry and in the workspace's phase scratch. Training
// never reaches the 32bit codec (the identity exchange skips it), so this
// is where its entry points are pinned.
std::string RenderCodecCalls(const GradientCodec& codec) {
  const Shape shape({16, 32});
  std::vector<float> grad(512);
  for (size_t i = 0; i < grad.size(); ++i) {
    grad[i] = static_cast<float>(static_cast<int>(i % 17) - 8) * 0.125f;
  }
  std::vector<float> error(grad.size(), 0.0f);
  CodecWorkspace ws;
  std::vector<uint8_t> blob;
  codec.Encode(grad.data(), shape, /*stochastic_tag=*/3,
               codec.UsesErrorFeedback() ? &error : nullptr, &ws, &blob);
  std::vector<float> decoded(grad.size());
  CHECK_OK(codec.Decode(blob.data(), static_cast<int64_t>(blob.size()),
                        shape, &ws, decoded.data()));
  const int64_t sparse = codec.SparseCount(shape);
  if (sparse > 0) {
    std::vector<uint32_t> indices(static_cast<size_t>(sparse));
    std::vector<float> values(static_cast<size_t>(sparse));
    CHECK_OK(codec.DecodeSparse(blob.data(), static_cast<int64_t>(blob.size()),
                                shape, &ws, indices.data(), values.data()));
  }

  std::ostringstream out;
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::JsonValue metrics = reg.ToJson();
  for (const std::string& name : reg.Names()) {
    const bool counter = metrics.At("counters").Has(name);
    out << (counter ? "counter " : "histogram ") << name << " "
        << (counter ? reg.CounterValue(name) : reg.HistogramFor(name).count)
        << "\n";
  }
  out << "trace events " << obs::Tracer::Global().event_count() << "\n";
  for (int p = 0; p < obs::kNumProfilePhases; ++p) {
    if (ws.phases.calls[p] == 0) continue;
    out << "phase " << obs::ProfilePhaseName(p) << " " << ws.phases.calls[p]
        << "\n";
  }
  return out.str();
}

const std::map<std::string, std::string_view>& ExpectedCodecCalls() {
  static const auto* const kExpected =
      new std::map<std::string, std::string_view>{
          {"32bit", R"(
histogram quant/decode_seconds 1
counter quant/encode_bytes 2052
histogram quant/encode_seconds 1
counter quant/full_precision/decode_calls 1
counter quant/full_precision/encode_calls 1
counter quant/workspace/grow_events 1
counter quant/workspace/grown_bytes 2052
trace events 0
phase encode 1
phase decode 1
)"},
          {"q4", R"(
histogram quant/decode_seconds 1
counter quant/encode_bytes 264
histogram quant/encode_seconds 1
counter quant/qsgd/decode_calls 1
counter quant/qsgd/encode_calls 1
counter quant/workspace/grow_events 2
counter quant/workspace/grown_bytes 328
trace events 0
phase encode 1
phase decode 1
)"},
          {"aq4", R"(
counter quant/adaptive_qsgd/decode_calls 1
counter quant/adaptive_qsgd/encode_calls 1
histogram quant/decode_seconds 1
counter quant/encode_bytes 296
histogram quant/encode_seconds 1
counter quant/workspace/grow_events 2
counter quant/workspace/grown_bytes 328
trace events 0
phase encode 1
phase decode 1
)"},
          {"nuq4", R"(
histogram quant/decode_seconds 1
counter quant/encode_bytes 264
histogram quant/encode_seconds 1
counter quant/nuqsgd/decode_calls 1
counter quant/nuqsgd/encode_calls 1
counter quant/workspace/grow_events 2
counter quant/workspace/grown_bytes 328
trace events 0
phase encode 1
phase decode 1
)"},
          {"ecq4", R"(
histogram quant/decode_seconds 1
counter quant/ecq_sgd/decode_calls 1
counter quant/ecq_sgd/encode_calls 1
counter quant/encode_bytes 264
histogram quant/encode_seconds 1
counter quant/workspace/grow_events 3
counter quant/workspace/grown_bytes 2376
trace events 0
phase encode 1
phase decode 1
)"},
          {"1bit", R"(
histogram quant/decode_seconds 1
counter quant/encode_bytes 388
histogram quant/encode_seconds 1
counter quant/one_bit_sgd/decode_calls 1
counter quant/one_bit_sgd/encode_calls 1
counter quant/workspace/grow_events 1
counter quant/workspace/grown_bytes 388
trace events 0
phase encode 1
phase decode 1
)"},
          {"1bit*", R"(
histogram quant/decode_seconds 1
counter quant/encode_bytes 132
histogram quant/encode_seconds 1
counter quant/one_bit_sgd_reshaped/decode_calls 1
counter quant/one_bit_sgd_reshaped/encode_calls 1
counter quant/workspace/grow_events 1
counter quant/workspace/grown_bytes 132
trace events 0
phase encode 1
phase decode 1
)"},
          {"terngrad", R"(
histogram quant/decode_seconds 1
counter quant/encode_bytes 136
histogram quant/encode_seconds 1
counter quant/terngrad/decode_calls 1
counter quant/terngrad/encode_calls 1
counter quant/workspace/grow_events 1
counter quant/workspace/grown_bytes 136
trace events 0
phase encode 1
phase decode 1
)"},
          {"topk:0.25", R"(
histogram quant/decode_seconds 2
counter quant/encode_bytes 692
histogram quant/encode_seconds 1
counter quant/topk/decode_calls 2
counter quant/topk/encode_calls 1
counter quant/workspace/grow_events 5
counter quant/workspace/grown_bytes 9396
trace events 0
phase encode 1
phase decode 3
)"},
      };
  return *kExpected;
}

TEST_F(CodecInventoryTest, EntryPointsMatchPinnedTable) {
  for (const char* text : {"32bit", "q4", "aq4", "nuq4", "ecq4", "1bit",
                           "1bit*", "terngrad", "topk:0.25"}) {
    SCOPED_TRACE(text);
    auto spec = CodecSpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << spec.status();
    auto codec = spec->Create();
    ASSERT_TRUE(codec.ok()) << codec.status();
    ResetSinks();
    const std::string actual = RenderCodecCalls(**codec);
    const auto it = ExpectedCodecCalls().find(text);
    if (it == ExpectedCodecCalls().end()) {
      ADD_FAILURE() << "no pinned codec calls for " << text << "; observed:\n"
                    << actual;
      continue;
    }
    EXPECT_EQ(actual, it->second.substr(1))
        << "observed codec calls for " << text << ":\n"
        << actual;
  }
}

}  // namespace
}  // namespace lpsgd
