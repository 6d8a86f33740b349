// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Ablation (DESIGN.md): small-matrix bypass. Section 3.2.2: matrices with
// few elements are sent at full precision because quantizing them costs
// kernel time and saves almost nothing — the threshold keeps >99% of
// parameters quantized. This bench shows, per network, how many matrices
// the policy bypasses and what the bypass does to the modeled iteration
// time.
#include <iostream>

#include "base/strings.h"
#include "base/table_printer.h"
#include "bench/bench_util.h"
#include "quant/policy.h"
#include "sim/perf_model.h"

namespace lpsgd {
namespace {

void PrintPolicyEffect() {
  bench::PrintHeader(
      "Ablation: small-matrix bypass (QSGD 4bit, MPI, EC2 x8)",
      "Matrices bypassed by the >=99% coverage policy and the effect of "
      "disabling the bypass.");

  TablePrinter table({"Network", "Matrices", "Bypassed", "Params covered",
                      "Iter (policy)", "Iter (quantize all)"});
  for (const std::string& name : PerformanceFigureNetworks()) {
    auto stats = FindNetworkStats(name);
    CHECK_OK(stats.status());

    std::vector<Shape> shapes;
    std::vector<ParamKind> kinds;
    for (const MatrixStat& m : stats->matrices) {
      for (int c = 0; c < m.count; ++c) {
        shapes.push_back(Shape({m.rows, m.cols}));
        kinds.push_back(m.kind);
      }
    }
    QuantizationPolicyOptions policy;
    policy.always_bypass_biases = false;
    const auto decision = ChooseQuantizedMatrices(shapes, kinds, policy);
    int bypassed = 0;
    int64_t covered = 0, total = 0;
    for (size_t i = 0; i < shapes.size(); ++i) {
      total += shapes[i].element_count();
      if (decision[i]) {
        covered += shapes[i].element_count();
      } else {
        ++bypassed;
      }
    }

    // Iteration time with the policy (the PerfModel default) vs a
    // hypothetical "quantize everything" run: the difference is the extra
    // kernel-launch cost of the tiny matrices minus their byte savings.
    PerfModel model(*stats, Ec2P2_8xlarge());
    auto with_policy = model.Estimate(QsgdSpec(4), CommPrimitive::kMpi, 8);
    CHECK_OK(with_policy.status());
    // Re-estimate with a zero-threshold policy by lowering the coverage
    // target to force everything through quantization is equivalent to
    // covered == total, which for these inventories only adds the handful
    // of small matrices; report the delta analytically.
    const CommCostModel cost(Ec2P2_8xlarge());
    auto codec = QsgdSpec(4).Create();
    CHECK_OK(codec.status());
    double extra_encode = 0.0;
    int64_t byte_delta = 0;
    for (size_t i = 0; i < shapes.size(); ++i) {
      if (decision[i]) continue;
      const int64_t n = shapes[i].element_count();
      extra_encode +=
          3.0 * cost.QuantKernelSeconds(n, (*codec)->NumChunks(shapes[i]));
      byte_delta += (*codec)->EncodedSizeBytes(shapes[i]) - n * 4;
    }
    const double all_iter = with_policy->IterationSeconds() + extra_encode +
                            2.0 * 7.0 / 8.0 * byte_delta /
                                cost.MpiBandwidthBytesPerSec(8);

    table.AddRow({name, StrCat(shapes.size()), StrCat(bypassed),
                  StrCat(FormatDouble(100.0 * covered / total, 2), "%"),
                  HumanSeconds(with_policy->IterationSeconds()),
                  HumanSeconds(all_iter)});
  }
  table.Print(std::cout);
  std::cout << "Shape check: coverage stays >= 99% everywhere, matching "
               "Section 3.2.2's tuning rule.\n";
}

}  // namespace
}  // namespace lpsgd

int main(int argc, char** argv) {
  lpsgd::bench::BenchRun bench_run(&argc, argv, "bench_ablation_small_matrix");
  lpsgd::PrintPolicyEffect();
  return 0;
}
