// Fixture-driven contract tests for biosim-lint (tools/biosim_lint/).
//
// Two layers:
//  - library level: LintFile() over the fixture corpus in
//    tests/lint/fixtures/, asserting exact rule ids and 1-based line
//    numbers for every known-violation fixture and zero findings for every
//    clean fixture (including the allow-comment suppression fixture);
//  - binary level: the installed `biosim-lint` executable is spawned to pin
//    down the CLI contract (exit 0 = clean, 1 = findings, 2 = usage error;
//    `file:line: error: [rule-id]` output format).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

#ifndef BIOSIM_LINT_BIN
#error "BIOSIM_LINT_BIN must point at the biosim-lint binary"
#endif
#ifndef BIOSIM_LINT_FIXTURES
#error "BIOSIM_LINT_FIXTURES must point at tests/lint/fixtures"
#endif

namespace biosimlint {
namespace {

std::string ReadFixture(const std::string& name) {
  std::string path = std::string(BIOSIM_LINT_FIXTURES) + "/" + name;
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::vector<Finding> LintFixture(const std::string& name,
                                 const Options& opts = {}) {
  return LintFile(name, ReadFixture(name), opts);
}

// (rule, line) pairs, sorted — the shape every expectation below uses.
std::vector<std::pair<std::string, int>> RuleLines(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, int>> out;
  for (const auto& f : findings) {
    out.emplace_back(f.rule, f.line);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  return out;
}

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

RunResult RunLint(const std::string& args) {
  RunResult r;
  std::string cmd = std::string(BIOSIM_LINT_BIN) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to spawn " << cmd;
  if (pipe == nullptr) {
    return r;
  }
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    r.output.append(buf, got);
  }
  int status = ::pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status)) << "abnormal termination of " << cmd;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string FixturePath(const std::string& name) {
  return std::string(BIOSIM_LINT_FIXTURES) + "/" + name;
}

// ---------------------------------------------------------------------------
// Library level: one known-violation fixture per rule, exact lines.

TEST(BiosimLintTest, RawRandFixtureViolations) {
  auto got = RuleLines(LintFixture("raw_rand_bad.cc"));
  std::vector<std::pair<std::string, int>> want = {
      {kRawRand, 8},  // srand(...)
      {kRawRand, 8},  // ...time(nullptr) on the same line
      {kRawRand, 9},  // rand()
      {kRawRand, 12},  // std::mt19937
  };
  EXPECT_EQ(got, want);
}

TEST(BiosimLintTest, UnorderedIterFixtureViolations) {
  auto got = RuleLines(LintFixture("unordered_iter_bad.cc"));
  std::vector<std::pair<std::string, int>> want = {
      {kUnorderedIter, 11},  // range-for over unordered_map
      {kUnorderedIter, 16},  // iterator loop over unordered_set
  };
  EXPECT_EQ(got, want);
}

TEST(BiosimLintTest, DirectDepositFixtureViolations) {
  auto got = RuleLines(LintFixture("direct_deposit_bad.cc"));
  std::vector<std::pair<std::string, int>> want = {
      {kDirectDeposit, 14},  // grid->IncreaseConcentrationBy
      {kDirectDeposit, 15},  // (*grid).IncreaseConcentrationBy
  };
  EXPECT_EQ(got, want);
}

TEST(BiosimLintTest, FpOmpReductionFixtureViolations) {
  auto got = RuleLines(LintFixture("fp_omp_reduction_bad.cc"));
  std::vector<std::pair<std::string, int>> want = {
      {kFpOmpReduction, 9},  // #pragma omp ... reduction(+ : total)
      {kFpOmpReduction, 16},  // #pragma omp atomic
      {kFpOmpReduction, 21},  // std::atomic<double>
  };
  EXPECT_EQ(got, want);
}

TEST(BiosimLintTest, UncheckedIoFixtureViolations) {
  auto got = RuleLines(LintFixture("unchecked_io_bad.cc"));
  std::vector<std::pair<std::string, int>> want = {
      {kUncheckedIo, 9},  // discarded std::fwrite
      {kUncheckedIo, 11},  // discarded fread
  };
  EXPECT_EQ(got, want);
}

TEST(BiosimLintTest, HotLoopVirtualFixtureViolations) {
  auto got = RuleLines(LintFixture("hot_loop_virtual_bad.cc"));
  std::vector<std::pair<std::string, int>> want = {
      {kHotLoopVirtual, 21},  // dynamic_cast inside the marked region
      {kHotLoopVirtual, 24},  // typeid inside the marked region
  };
  EXPECT_EQ(got, want);
}

TEST(BiosimLintTest, CrossShardWriteFixtureViolations) {
  auto got = RuleLines(LintFixture("cross_shard_bad.cc"));
  std::vector<std::pair<std::string, int>> want = {
      // The in-scope deposit trips both the shard rule and the global
      // deposit-discipline rule.
      {kCrossShardWrite, 15},
      {kDirectDeposit, 15},
      {kCrossShardWrite, 16},  // AddAgent
      {kCrossShardWrite, 17},  // RemoveAgent
  };
  EXPECT_EQ(got, want);
}

TEST(BiosimLintTest, TempPathLiteralFixtureViolations) {
  auto got = RuleLines(LintFixture("temp_path_literal_bad.cc"));
  std::vector<std::pair<std::string, int>> want = {
      {kTempPathLiteral, 9},   // TempDir() + "shared.json"
      {kTempPathLiteral, 10},  // std::string(TempDir()) + "/" + name
      {kTempPathLiteral, 14},  // raw string literal
  };
  EXPECT_EQ(got, want);
}

TEST(BiosimLintTest, UncheckedParseFixtureViolations) {
  auto got = RuleLines(LintFixture("tools/unchecked_parse_bad.cc"));
  std::vector<std::pair<std::string, int>> want = {
      {kUncheckedParse, 11},  // std::atoi
      {kUncheckedParse, 12},  // std::atoll
      {kUncheckedParse, 13},  // unqualified atof
      {kUncheckedParse, 14},  // std::atol
  };
  EXPECT_EQ(got, want);
}

TEST(BiosimLintTest, UncheckedParseAppliesOnlyToCommandLineSurfaces) {
  const std::string code = ReadFixture("tools/unchecked_parse_bad.cc");
  for (const char* path :
       {"tools/x.cc", "bench/micro/x.cc", "examples/x.cpp", "src/app/x.cc",
        "/checkout/bench/common.h"}) {
    EXPECT_EQ(LintFile(path, code).size(), 4u) << path;
  }
  for (const char* path : {"src/core/x.cc", "tests/app/x.cc", "x.cc",
                           "src/application/x.cc"}) {
    EXPECT_TRUE(LintFile(path, code).empty()) << path;
  }
}

TEST(BiosimLintTest, UnclosedShardScopeIsAFinding) {
  std::string code =
      "#define BIOSIM_SHARD_SCOPE_BEGIN() static_cast<void>(0)\n"
      "void f() {\n"
      "  BIOSIM_SHARD_SCOPE_BEGIN();\n"
      "}\n";
  auto findings = LintFile("unclosed.cc", code);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kCrossShardWrite);
  EXPECT_EQ(findings[0].line, 3);
}

// ---------------------------------------------------------------------------
// Library level: the clean twin of every rule must produce zero findings.

TEST(BiosimLintTest, CleanFixturesHaveNoFindings) {
  const char* clean[] = {
      "raw_rand_clean.cc",        "unordered_iter_clean.cc",
      "direct_deposit_clean.cc",  "fp_omp_reduction_clean.cc",
      "unchecked_io_clean.cc",    "hot_loop_virtual_clean.cc",
      "cross_shard_clean.cc",     "temp_path_literal_clean.cc",
      "tools/unchecked_parse_clean.cc",
  };
  for (const char* name : clean) {
    auto findings = LintFixture(name);
    EXPECT_TRUE(findings.empty())
        << name << ": unexpected [" << (findings.empty() ? "" : findings[0].rule)
        << "] at line " << (findings.empty() ? 0 : findings[0].line);
  }
}

// The corpus as a whole exercises every rule the checker knows about.
TEST(BiosimLintTest, CorpusCoversAllRules) {
  std::set<std::string> fired;
  const char* bad[] = {
      "raw_rand_bad.cc",        "unordered_iter_bad.cc",
      "direct_deposit_bad.cc",  "fp_omp_reduction_bad.cc",
      "unchecked_io_bad.cc",    "hot_loop_virtual_bad.cc",
      "cross_shard_bad.cc",     "temp_path_literal_bad.cc",
      "tools/unchecked_parse_bad.cc",
  };
  for (const char* name : bad) {
    for (const auto& f : LintFixture(name)) {
      fired.insert(f.rule);
    }
  }
  EXPECT_EQ(fired.size(), Rules().size()) << "a rule has no firing fixture";
  for (const auto& rule : Rules()) {
    EXPECT_TRUE(fired.count(rule.id)) << "no fixture fires " << rule.id;
  }
}

// ---------------------------------------------------------------------------
// Suppression: allow() comments silence exactly the named rule.

TEST(BiosimLintTest, AllowCommentsSuppressFindings) {
  EXPECT_TRUE(LintFixture("allow_suppression.cc").empty());
}

TEST(BiosimLintTest, AllowCommentsAreLoadBearing) {
  // Strip every allow() marker from the suppression fixture: the violations
  // underneath must resurface, proving the comments (not scanner blind
  // spots) are what keep the fixture clean.
  std::string content = ReadFixture("allow_suppression.cc");
  std::string marker = "biosim-lint: allow";
  std::string neutered = "biosim-lint: noted";
  size_t pos = 0;
  int replaced = 0;
  while ((pos = content.find(marker, pos)) != std::string::npos) {
    content.replace(pos, marker.size(), neutered);
    ++replaced;
  }
  ASSERT_GE(replaced, 3) << "fixture lost its allow() comments";
  auto findings = LintFile("allow_suppression.cc", content);
  std::set<std::string> rules;
  for (const auto& f : findings) {
    rules.insert(f.rule);
  }
  EXPECT_TRUE(rules.count(kRawRand));
  EXPECT_TRUE(rules.count(kUnorderedIter));
  EXPECT_TRUE(rules.count(kUncheckedIo));
}

TEST(BiosimLintTest, AllowOnlySilencesTheNamedRule) {
  // allow(unordered-iter) must not excuse a raw-rand hit on the same line.
  std::string code =
      "#include <cstdlib>\n"
      "int f() {\n"
      "  return std::rand();  // biosim-lint: allow(unordered-iter)\n"
      "}\n";
  auto findings = LintFile("mismatch.cc", code);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRawRand);
  EXPECT_EQ(findings[0].line, 3);
}

// ---------------------------------------------------------------------------
// Rule selection and the comment/string stripper.

TEST(BiosimLintTest, RuleFilterRestrictsFindings) {
  Options opts;
  opts.rules.insert(kRawRand);
  EXPECT_FALSE(LintFixture("raw_rand_bad.cc", opts).empty());
  EXPECT_TRUE(LintFixture("unordered_iter_bad.cc", opts).empty())
      << "disabled rule still fired";
}

TEST(BiosimLintTest, StripperBlanksCommentsAndStrings) {
  std::string code =
      "int a; // rand()\n"
      "const char* s = \"rand()\"; /* time(\n"
      "rand() */ int b;\n";
  auto lines = StripCommentsAndStrings(code);
  ASSERT_GE(lines.size(), 3u);  // a trailing empty line after the final \n is fine
  EXPECT_EQ(lines[0].find("rand"), std::string::npos);
  EXPECT_EQ(lines[1].find("rand"), std::string::npos);
  EXPECT_EQ(lines[2].find("rand"), std::string::npos);
  EXPECT_NE(lines[0].find("int a;"), std::string::npos);
  EXPECT_NE(lines[2].find("int b;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Binary level: exit codes and output format of the installed checker.

TEST(BiosimLintCliTest, FixtureDirectoryExitsOneWithFormattedFindings) {
  RunResult r = RunLint(FixturePath(""));
  EXPECT_EQ(r.exit_code, 1);
  // `file:line: error: [rule-id] message` — the format editors and CI
  // annotations parse.
  EXPECT_NE(r.output.find("raw_rand_bad.cc:9: error: [raw-rand]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("unchecked_io_bad.cc:9: error: [unchecked-io]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("hot_loop_virtual_bad.cc:21: error:"
                          " [hot-loop-virtual]"),
            std::string::npos)
      << r.output;
}

TEST(BiosimLintCliTest, CleanFileExitsZero) {
  RunResult r = RunLint(FixturePath("raw_rand_clean.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(BiosimLintCliTest, SuppressedFileExitsZero) {
  RunResult r = RunLint(FixturePath("allow_suppression.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(BiosimLintCliTest, UnknownRuleIsAUsageError) {
  RunResult r = RunLint("--rule=no-such-rule " + FixturePath("raw_rand_clean.cc"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(BiosimLintCliTest, ListRulesNamesAllSix) {
  RunResult r = RunLint("--list-rules");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const auto& rule : Rules()) {
    EXPECT_NE(r.output.find(rule.id), std::string::npos)
        << "--list-rules missing " << rule.id;
  }
}

TEST(BiosimLintCliTest, RuleFilterOnCli) {
  // Restricted to unordered-iter, the raw-rand fixture is clean...
  RunResult r =
      RunLint("--rule=unordered-iter " + FixturePath("raw_rand_bad.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // ...and the unordered-iter fixture still fails.
  r = RunLint("--rule=unordered-iter " + FixturePath("unordered_iter_bad.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

}  // namespace
}  // namespace biosimlint
