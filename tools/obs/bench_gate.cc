// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "obs/bench_gate.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/strings.h"
#include "base/table_printer.h"

namespace lpsgd {
namespace tools {
namespace {

StatusOr<obs::JsonValue> ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError(StrCat("cannot open ", path));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto doc = obs::JsonValue::Parse(buffer.str());
  if (!doc.ok()) {
    return Status(doc.status().code(),
                  StrCat(path, ": ", doc.status().message()));
  }
  return doc;
}

bool IsProfileDoc(const obs::JsonValue& doc) {
  return doc.kind() == obs::JsonValue::Kind::kObject && doc.Has("kind") &&
         doc.At("kind").AsString() == "profile";
}

bool IsBenchmarkDoc(const obs::JsonValue& doc) {
  return doc.kind() == obs::JsonValue::Kind::kObject &&
         doc.Has("benchmarks");
}

// Divides every score by the reference benchmark's, so the map measures
// cost relative to the same document's memcpy-like anchor.
Status Normalize(std::map<std::string, double>* scores,
                 const std::string& reference) {
  auto it = scores->find(reference);
  if (it == scores->end()) {
    return NotFoundError(
        StrCat("reference benchmark \"", reference, "\" not in document"));
  }
  const double anchor = it->second;
  if (!(anchor > 0.0)) {
    return FailedPreconditionError(
        StrCat("reference benchmark \"", reference, "\" has score ",
               FormatDouble(anchor, 6)));
  }
  for (auto& [name, score] : *scores) score /= anchor;
  return OkStatus();
}

}  // namespace

StatusOr<std::map<std::string, double>> BenchmarkScores(
    const obs::JsonValue& doc) {
  if (!IsBenchmarkDoc(doc)) {
    return InvalidArgumentError(
        "not a google-benchmark JSON document (no \"benchmarks\" array)");
  }
  std::map<std::string, std::vector<double>> runs;
  for (const obs::JsonValue& bench : doc.At("benchmarks").AsArray()) {
    if (!bench.Has("name") || !bench.Has("items_per_second")) continue;
    // Skip aggregate rows (mean/median/stddev repeats of the same name).
    if (bench.Has("run_type") && bench.At("run_type").AsString() != "iteration") {
      continue;
    }
    runs[bench.At("name").AsString()].push_back(
        bench.At("items_per_second").AsDouble());
  }
  if (runs.empty()) {
    return FailedPreconditionError(
        "benchmark document has no items_per_second entries");
  }
  // A name repeated by --benchmark_repetitions scores the median of its
  // runs, so one preempted repetition cannot flip the gate.
  std::map<std::string, double> scores;
  for (auto& [name, values] : runs) {
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    scores[name] = values.size() % 2 == 1
                       ? values[mid]
                       : 0.5 * (values[mid - 1] + values[mid]);
  }
  return scores;
}

StatusOr<std::map<std::string, double>> ProfileShares(
    const obs::JsonValue& doc) {
  if (!IsProfileDoc(doc)) {
    return InvalidArgumentError(
        "not a profiler JSON document (kind != \"profile\")");
  }
  if (!doc.Has("totals")) {
    return FailedPreconditionError("profile document has no totals");
  }
  const obs::JsonValue& phases = doc.At("totals").At("phases");
  std::map<std::string, double> shares;
  for (const auto& [name, entry] : phases.AsObject()) {
    const double share = entry.At("wall_share").AsDouble();
    if (share > 0.0) shares[name] = share;
  }
  if (shares.empty()) {
    return FailedPreconditionError("profile totals have no nonzero phases");
  }
  return shares;
}

StatusOr<BenchGateResult> CompareBenchmarks(const obs::JsonValue& baseline,
                                            const obs::JsonValue& candidate,
                                            const BenchGateOptions& options) {
  if (!(options.tolerance >= 0.0) || !(options.share_tolerance >= 0.0)) {
    return InvalidArgumentError("tolerances must be >= 0");
  }
  const bool profile = IsProfileDoc(baseline);
  if (profile != IsProfileDoc(candidate)) {
    return InvalidArgumentError(
        "baseline and candidate documents have different kinds");
  }

  BenchGateResult result;
  std::map<std::string, double> base, cand;
  if (profile) {
    result.kind = "profile";
    LPSGD_ASSIGN_OR_RETURN(base, ProfileShares(baseline));
    LPSGD_ASSIGN_OR_RETURN(cand, ProfileShares(candidate));
  } else {
    result.kind = "benchmark";
    LPSGD_ASSIGN_OR_RETURN(base, BenchmarkScores(baseline));
    LPSGD_ASSIGN_OR_RETURN(cand, BenchmarkScores(candidate));
    if (!options.reference.empty()) {
      result.normalized = true;
      LPSGD_RETURN_IF_ERROR(Normalize(&base, options.reference));
      LPSGD_RETURN_IF_ERROR(Normalize(&cand, options.reference));
    }
  }

  for (const auto& [name, base_value] : base) {
    auto it = cand.find(name);
    if (it == cand.end()) {
      // A phase absent from a candidate profile just means no time landed
      // there (e.g. no retries this run) — that is an improvement, not a
      // missing measurement. A vanished benchmark is a coverage hole.
      if (!profile) result.missing.push_back(name);
      continue;
    }
    BenchGateFinding finding;
    finding.name = name;
    finding.baseline = base_value;
    finding.candidate = it->second;
    if (profile) {
      // Shares: a phase swallowing more of the step than before (beyond
      // tolerance share points) is the regression.
      finding.change = -(it->second - base_value);
      finding.regressed =
          it->second - base_value > options.share_tolerance;
    } else {
      finding.change =
          base_value > 0.0 ? (it->second - base_value) / base_value : 0.0;
      finding.regressed = finding.change < -options.tolerance;
    }
    result.findings.push_back(std::move(finding));
  }
  return result;
}

StatusOr<BenchGateResult> CompareBenchmarkFiles(
    const std::string& baseline_path, const std::string& candidate_path,
    const BenchGateOptions& options) {
  LPSGD_ASSIGN_OR_RETURN(obs::JsonValue baseline, ParseFile(baseline_path));
  LPSGD_ASSIGN_OR_RETURN(obs::JsonValue candidate,
                         ParseFile(candidate_path));
  return CompareBenchmarks(baseline, candidate, options);
}

bool BenchGateResult::ok() const {
  return regressions() == 0 && missing.empty();
}

int BenchGateResult::regressions() const {
  int count = 0;
  for (const BenchGateFinding& finding : findings) {
    if (finding.regressed) ++count;
  }
  return count;
}

obs::JsonValue BenchGateResult::ToJson() const {
  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("schema_version", int64_t{1});
  root.Set("kind", "bench_gate");
  root.Set("compared_kind", kind);
  root.Set("normalized", normalized);
  root.Set("compared", static_cast<int64_t>(findings.size()));
  root.Set("regressions", int64_t{regressions()});
  root.Set("ok", ok());
  obs::JsonValue entries = obs::JsonValue::Array();
  for (const BenchGateFinding& finding : findings) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("name", finding.name);
    entry.Set("baseline", finding.baseline);
    entry.Set("candidate", finding.candidate);
    entry.Set("change", finding.change);
    entry.Set("regressed", finding.regressed);
    entries.Append(std::move(entry));
  }
  root.Set("findings", std::move(entries));
  obs::JsonValue gone = obs::JsonValue::Array();
  for (const std::string& name : missing) gone.Append(name);
  root.Set("missing", std::move(gone));
  return root;
}

void BenchGateResult::PrintTable(std::ostream& os) const {
  TablePrinter table({kind == "profile" ? "Phase" : "Benchmark",
                      "Baseline", "Candidate", "Change", "Verdict"});
  for (const BenchGateFinding& finding : findings) {
    table.AddRow({finding.name, FormatDouble(finding.baseline, 4),
                  FormatDouble(finding.candidate, 4),
                  StrCat(finding.change >= 0.0 ? "+" : "",
                         FormatDouble(finding.change * 100.0, 1), "%"),
                  finding.regressed ? "REGRESSED" : "ok"});
  }
  for (const std::string& name : missing) {
    table.AddRow({name, "-", "-", "-", "MISSING"});
  }
  table.Print(os);
}

}  // namespace tools
}  // namespace lpsgd
