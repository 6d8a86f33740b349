// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Fixture-driven tests for the whole-program analyzer
// (tools/analyze/lpsgd_analyze.h): each fixture mini-repo under
// tests/tools/analyze_fixtures/ (LPSGD_ANALYZE_FIXTURE_DIR) reproduces one
// intended violation — a two-hop transitive allocation, a three-lock
// acquisition cycle, a dropped Status — and the self-test asserts the
// shipped tree analyzes clean against the committed baseline
// (tools/analyze/baseline.txt). Paths are injected by tests/CMakeLists.
#include "analyze/lpsgd_analyze.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace lpsgd {
namespace analyze {
namespace {

std::string FixtureRoot(const std::string& name) {
  return std::string(LPSGD_ANALYZE_FIXTURE_DIR) + "/" + name;
}

Model AnalyzeFixture(const std::string& name) {
  Model model;
  StatusOr<int> files = BuildModelFromTree(FixtureRoot(name), &model);
  EXPECT_TRUE(files.ok()) << files.status().ToString();
  EXPECT_GT(*files, 0) << "fixture " << name << " has no source files";
  return model;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// --- Pass 1: transitive hot-path purity -----------------------------------

TEST(PurityPassTest, FlagsAllocationTwoHopsFromHotRegion) {
  const Model model = AnalyzeFixture("transitive_alloc");
  const std::vector<Finding> findings = RunPurityPass(model);
  ASSERT_EQ(CountRule(findings, "hot-path-transitive-alloc"), 1);
  const Finding& f = findings.front();
  EXPECT_EQ(f.file, "src/pipeline.cc");
  EXPECT_EQ(f.symbol, "Stage2");
  EXPECT_NE(f.detail.find("push_back"), std::string::npos);
  // The call chain names the hot root and every intermediate hop.
  EXPECT_NE(f.note.find("HotLoop [hot] -> Stage1 -> Stage2"),
            std::string::npos)
      << f.note;
}

TEST(PurityPassTest, HotCalleeOkExemptsAndStaleExemptionIsAFinding) {
  const Model model = AnalyzeFixture("exemptions");
  const std::vector<Finding> findings = RunPurityPass(model);
  // ColdLog allocates but carries LPSGD_HOT_CALLEE_OK: exempt.
  EXPECT_EQ(CountRule(findings, "hot-path-transitive-alloc"), 0);
  // NeverCalled is named by an annotation nothing consults: stale.
  ASSERT_EQ(CountRule(findings, "stale-hot-callee-ok"), 1);
  const auto stale = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.rule == "stale-hot-callee-ok"; });
  EXPECT_EQ(stale->symbol, "NeverCalled");
  EXPECT_EQ(stale->file, "src/exempt.cc");
}

// --- Pass 2: lock-order cycles --------------------------------------------

TEST(LockOrderPassTest, FindsThreeLockCycleAndSelfDeadlock) {
  const Model model = AnalyzeFixture("lock_cycle");
  const std::vector<Finding> findings = RunLockOrderPass(model);
  ASSERT_EQ(CountRule(findings, "lock-order-cycle"), 2) << [&] {
    std::string all;
    for (const Finding& f : findings) all += FormatFinding(f) + "\n";
    return all;
  }();
  // The a -> b -> c -> a cycle, canonicalized to start at the smallest id.
  const bool has_cycle = std::any_of(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.symbol == "a -> b -> c -> a"; });
  EXPECT_TRUE(has_cycle);
  // Reenter holds `a` across a call whose callee re-acquires `a`.
  const auto self = std::find_if(
      findings.begin(), findings.end(), [](const Finding& f) {
        return f.detail.find("re-acquired") != std::string::npos;
      });
  ASSERT_NE(self, findings.end());
  EXPECT_EQ(self->symbol, "a");
  EXPECT_NE(self->detail.find("Reenter"), std::string::npos);
}

TEST(LockOrderPassTest, FileLocalHelpersInOtherFilesAreNotCallees) {
  // bench/ defines `static` and anonymous-namespace `Set` helpers that
  // reach FlightRecorder::mu_; the registry's `doc->Set(...)` under
  // MetricsRegistry::mu_ cannot call them, so no cycle may be reported.
  const Model model = AnalyzeFixture("file_local");
  const std::vector<Finding> findings = RunLockOrderPass(model);
  EXPECT_EQ(CountRule(findings, "lock-order-cycle"), 0) << [&] {
    std::string all;
    for (const Finding& f : findings) all += FormatFinding(f) + "\n";
    return all;
  }();
}

// --- Pass 3: status drops -------------------------------------------------

TEST(StatusDropPassTest, FlagsOverwriteAndScopeExitButNotInspectedLoop) {
  const Model model = AnalyzeFixture("status_drop");
  const std::vector<Finding> findings = RunStatusDropPass(model);
  ASSERT_EQ(CountRule(findings, "status-drop"), 2) << [&] {
    std::string all;
    for (const Finding& f : findings) all += FormatFinding(f) + "\n";
    return all;
  }();
  const bool overwritten = std::any_of(
      findings.begin(), findings.end(), [](const Finding& f) {
        return f.symbol == "Dropped" &&
               f.detail.find("overwritten") != std::string::npos;
      });
  const bool dropped = std::any_of(
      findings.begin(), findings.end(), [](const Finding& f) {
        return f.symbol == "ScopeExit" &&
               f.detail.find("scope-exited") != std::string::npos;
      });
  EXPECT_TRUE(overwritten);
  EXPECT_TRUE(dropped);
  // Retry()'s in-loop assignment is inspected via s.ok(): no finding.
  for (const Finding& f : findings) EXPECT_NE(f.symbol, "Retry");
}

// --- Clean fixture --------------------------------------------------------

TEST(AnalyzeTest, CleanFixtureHasNoFindings) {
  const Model model = AnalyzeFixture("clean");
  const std::vector<Finding> findings = RunAllPasses(model);
  EXPECT_TRUE(findings.empty()) << [&] {
    std::string all;
    for (const Finding& f : findings) all += FormatFinding(f) + "\n";
    return all;
  }();
}

// --- Model internals ------------------------------------------------------

TEST(CanonicalLockIdTest, NormalizesAccessPaths) {
  EXPECT_EQ(CanonicalLockId("mu_", "ThreadPool"), "ThreadPool::mu_");
  EXPECT_EQ(CanonicalLockId("this->mu_", "ThreadPool"), "ThreadPool::mu_");
  EXPECT_EQ(CanonicalLockId("batch->mu", ""), "batch.mu");
  EXPECT_EQ(CanonicalLockId("  batch . mu ", ""), "batch.mu");
  EXPECT_EQ(CanonicalLockId("&mu_", "Registry"), "Registry::mu_");
  EXPECT_EQ(CanonicalLockId("other.mu_", "Registry"), "other.mu_");
}

TEST(ModelTest, ResolvePrefersSameTranslationUnit) {
  Model model;
  AddTranslationUnit("src/a.cc", "void Helper() {}\nvoid CallA() { Helper(); }\n",
                     &model);
  AddTranslationUnit("src/b.cc", "void Helper() {}\n", &model);
  FinalizeModel(&model);
  ASSERT_EQ(model.by_name.at("Helper").size(), 2U);
  const std::vector<int> same_tu = model.Resolve("Helper", 0);
  ASSERT_EQ(same_tu.size(), 1U);
  EXPECT_EQ(model.functions[static_cast<size_t>(same_tu[0])].tu_index, 0);
  // From a TU with no candidate, every definition is considered.
  EXPECT_EQ(model.Resolve("Helper", 7).size(), 2U);
}

TEST(ModelTest, ResolveSkipsFileLocalDefinitionsOfOtherFiles) {
  Model model;
  AddTranslationUnit("src/a.cc", "void CallA() { Helper(); }\n", &model);
  AddTranslationUnit("src/b.cc", "static void Helper() {}\n", &model);
  AddTranslationUnit("src/c.cc",
                     "namespace {\nvoid Helper() {}\n}  // namespace\n",
                     &model);
  AddTranslationUnit("src/d.cc", "void Helper() {}\n", &model);
  AddTranslationUnit(
      "src/e.cc", "struct Holder {\n  static void Helper() {}\n};\n", &model);
  FinalizeModel(&model);
  ASSERT_EQ(model.by_name.at("Helper").size(), 4U);
  // From a.cc: d.cc's external Helper and the static member Holder::Helper.
  std::vector<std::string> files;
  for (int idx : model.Resolve("Helper", 0)) {
    const FunctionDef& fn = model.functions[static_cast<size_t>(idx)];
    files.push_back(model.tus[static_cast<size_t>(fn.tu_index)].relative);
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"src/d.cc", "src/e.cc"}));
  // Inside b.cc and c.cc their own file-local Helper is the callee.
  ASSERT_EQ(model.Resolve("Helper", 1).size(), 1U);
  ASSERT_EQ(model.Resolve("Helper", 2).size(), 1U);
}

// --- Baseline ratchet -----------------------------------------------------

TEST(BaselineTest, ParseIgnoresCommentsAndBlankLines) {
  const std::set<std::string> entries = ParseBaseline(
      "# header comment\n"
      "\n"
      "rule|src/a.cc|Fn|detail\n"
      "  rule2|src/b.cc|Gn|detail2  \n");
  EXPECT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries.count("rule|src/a.cc|Fn|detail"), 1U);
  EXPECT_EQ(entries.count("rule2|src/b.cc|Gn|detail2"), 1U);
}

TEST(BaselineTest, FingerprintExcludesLineNumber) {
  Finding f;
  f.rule = "status-drop";
  f.file = "src/x.cc";
  f.line = 42;
  f.symbol = "Fn";
  f.detail = "d";
  f.note = "volatile context";
  EXPECT_EQ(f.Fingerprint(), "status-drop|src/x.cc|Fn|d");
}

TEST(BaselineTest, RatchetFlagsFreshAndStale) {
  Finding known;
  known.rule = "r";
  known.file = "f";
  known.symbol = "s";
  known.detail = "d";
  Finding fresh = known;
  fresh.detail = "other";
  const BaselineCheck check = CheckAgainstBaseline(
      {known, fresh}, {"r|f|s|d", "r|gone|s|d"});
  ASSERT_EQ(check.fresh.size(), 1U);
  EXPECT_EQ(check.fresh[0].detail, "other");
  ASSERT_EQ(check.stale.size(), 1U);
  EXPECT_EQ(check.stale[0], "r|gone|s|d");
  ASSERT_EQ(check.suppressed.size(), 1U);
}

// --- Self-run: the shipped tree must analyze clean ------------------------

TEST(AnalyzeSelfTest, RepositoryIsCleanAgainstCommittedBaseline) {
  Model model;
  StatusOr<int> files = BuildModelFromTree(LPSGD_SOURCE_ROOT, &model);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  EXPECT_GT(*files, 100);  // the whole tree, not a stray subdir
  const std::vector<Finding> findings = RunAllPasses(model);
  StatusOr<std::string> baseline_text = srctext::ReadFileToString(
      std::string(LPSGD_SOURCE_ROOT) + "/tools/analyze/baseline.txt");
  ASSERT_TRUE(baseline_text.ok()) << baseline_text.status().ToString();
  const BaselineCheck check =
      CheckAgainstBaseline(findings, ParseBaseline(*baseline_text));
  std::string fresh_report;
  for (const Finding& f : check.fresh) {
    fresh_report += FormatFinding(f) + "\n";
  }
  EXPECT_TRUE(check.fresh.empty()) << "new findings:\n" << fresh_report;
  std::string stale_report;
  for (const std::string& e : check.stale) stale_report += e + "\n";
  EXPECT_TRUE(check.stale.empty()) << "stale baseline entries:\n"
                                   << stale_report;
}

}  // namespace
}  // namespace analyze
}  // namespace lpsgd
