// biosim-lint: project-specific static analysis for the determinism and
// concurrency contract (docs/static-analysis.md).
//
// The engine's reproducibility guarantees (docs/determinism.md) were
// established as prose conventions: derive randomness from core/random.h
// streams, never iterate unordered containers in state-mutating code, route
// substance writes through SimContext::DepositSubstance, keep FP reductions
// chunk-ordered, check every checkpoint I/O call, keep dynamic dispatch out
// of the marked hot loops. This checker turns each convention into a build
// gate: a token-level scanner (comments and string literals are blanked
// before matching, so prose and test strings never trip a rule) over the
// translation units listed in build/compile_commands.json plus the headers
// under src/.
//
// Every exception must be visible in review:
//   some_call();  // biosim-lint: allow(rule-id)
// suppresses `rule-id` on that line (or on the next line when the comment
// stands alone).
#ifndef BIOSIM_TOOLS_BIOSIM_LINT_LINT_H_
#define BIOSIM_TOOLS_BIOSIM_LINT_LINT_H_

#include <set>
#include <string>
#include <vector>

namespace biosimlint {

// Rule identifiers (stable: they appear in allow() comments and test
// assertions).
inline constexpr char kRawRand[] = "raw-rand";
inline constexpr char kUnorderedIter[] = "unordered-iter";
inline constexpr char kDirectDeposit[] = "direct-deposit";
inline constexpr char kFpOmpReduction[] = "fp-omp-reduction";
inline constexpr char kUncheckedIo[] = "unchecked-io";
inline constexpr char kHotLoopVirtual[] = "hot-loop-virtual";
inline constexpr char kCrossShardWrite[] = "cross-shard-write";
inline constexpr char kTempPathLiteral[] = "temp-path-literal";
inline constexpr char kUncheckedParse[] = "unchecked-parse";

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// All rules, in reporting order.
const std::vector<RuleInfo>& Rules();

struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

struct Options {
  /// Empty: all rules. Otherwise restrict to these rule ids.
  std::set<std::string> rules;
};

/// True when `rule` is enabled under `opts`.
bool RuleEnabled(const Options& opts, const std::string& rule);

/// Split `content` into lines with comments, string and character literals
/// blanked out (replaced by spaces, newlines preserved). Exposed for tests.
std::vector<std::string> StripCommentsAndStrings(const std::string& content);

/// Lint one file's contents. `path` is used for diagnostics and for the
/// path-scoped rules and exemptions. Findings come back sorted by line.
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content,
                              const Options& opts = {});

/// Read a file and lint it; returns false (and appends nothing) when the
/// file cannot be read.
bool LintPath(const std::string& path, const Options& opts,
              std::vector<Finding>* out);

/// Extract the "file" entries from a compile_commands.json database. Minimal
/// parser: handles escaped characters inside the JSON strings. Returns an
/// empty list when the file cannot be read.
std::vector<std::string> CompileCommandsFiles(const std::string& db_path);

}  // namespace biosimlint

#endif  // BIOSIM_TOOLS_BIOSIM_LINT_LINT_H_
