#include "lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <sstream>

namespace biosimlint {

namespace {

bool IsIdent(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Line number (1-based) of byte offset `pos` given sorted line-start
/// offsets.
int LineOfOffset(const std::vector<size_t>& line_starts, size_t pos) {
  auto it = std::upper_bound(line_starts.begin(), line_starts.end(), pos);
  return static_cast<int>(it - line_starts.begin());
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

/// Per-line sets of rules suppressed via `// biosim-lint: allow(a, b)`.
std::vector<std::set<std::string>> AllowedRulesPerLine(
    const std::vector<std::string>& raw_lines) {
  static const std::regex kAllowRe(R"(biosim-lint:\s*allow\(([^)]*)\))");
  std::vector<std::set<std::string>> allowed(raw_lines.size());
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(raw_lines[i], m, kAllowRe)) {
      std::stringstream ss(m[1].str());
      std::string id;
      while (std::getline(ss, id, ',')) {
        size_t b = id.find_first_not_of(" \t");
        size_t e = id.find_last_not_of(" \t");
        if (b != std::string::npos) {
          allowed[i].insert(id.substr(b, e - b + 1));
        }
      }
    }
  }
  return allowed;
}

/// True when `rule` is suppressed on `line` (0-based): an allow comment on
/// the line itself or on the line directly above covers it.
bool Suppressed(const std::vector<std::set<std::string>>& allowed, size_t line,
                const std::string& rule) {
  if (line < allowed.size() && allowed[line].count(rule) != 0) {
    return true;
  }
  return line > 0 && allowed[line - 1].count(rule) != 0;
}

struct LineRulePattern {
  const char* rule;
  std::regex re;
  const char* message;
};

const std::vector<LineRulePattern>& LinePatterns() {
  static const std::vector<LineRulePattern> kPatterns = [] {
    std::vector<LineRulePattern> p;
    auto add = [&p](const char* rule, const char* re, const char* msg) {
      p.push_back({rule, std::regex(re), msg});
    };
    // raw-rand: every randomness / wall-clock source outside core/random.h
    // makes runs irreproducible (the RNG contract keys every draw on
    // (seed, agent uid, step)).
    add(kRawRand, R"((^|[^\w])rand\s*\()",
        "raw rand() is not reproducible across runs; derive a stream from "
        "core/random.h (Random::ForStream)");
    add(kRawRand, R"((^|[^\w])srand\s*\()",
        "srand() seeds process-global state; use core/random.h streams");
    add(kRawRand, R"(\brandom_device\b)",
        "std::random_device is non-deterministic; seed core/random.h "
        "streams from Param::random_seed");
    add(kRawRand, R"(\bmt19937)",
        "shared std::mt19937 state makes results depend on draw order; use "
        "core/random.h counter-based streams");
    add(kRawRand, R"(\bdefault_random_engine\b)",
        "std::default_random_engine is implementation-defined and stateful; "
        "use core/random.h");
    add(kRawRand, R"((^|[^\w.>])time\s*\()",
        "wall-clock time() in sim code breaks run-to-run reproducibility; "
        "derive per-step values from the step counter");
    add(kRawRand, R"((^|[^\w.>:])clock\s*\()",
        "clock() in sim code breaks run-to-run reproducibility");
    // direct-deposit: raw concentration writes race under parallel
    // behaviors and make the FP sum order schedule-dependent.
    add(kDirectDeposit, R"((\.|->)\s*IncreaseConcentrationBy\s*\()",
        "write the field via SimContext::DepositSubstance (buffered, merged "
        "in agent-index order); direct IncreaseConcentrationBy calls are "
        "only sanctioned at the deposit-merge sites");
    // fp-omp-reduction: reduction clauses and FP atomics combine in
    // schedule order; per-chunk partials merged in chunk order after the
    // join (Simulation::RunBehaviors, ShardGrid::Build) do not.
    add(kFpOmpReduction, R"(^\s*#\s*pragma\s+omp\b.*\breduction\s*\()",
        "OpenMP reduction clauses combine partials in schedule order; fix "
        "the chunk boundaries up front, write one partial per chunk and "
        "merge them in chunk order after the join");
    add(kFpOmpReduction, R"(^\s*#\s*pragma\s+omp\s+atomic\b)",
        "'#pragma omp atomic' accumulation is schedule-ordered; buffer "
        "per-chunk and merge in chunk order");
    add(kFpOmpReduction,
        R"((std\s*::\s*)?atomic\s*<\s*(float|double|long\s+double)\b)",
        "atomic float accumulation commits in schedule order and breaks "
        "bitwise determinism; buffer per-chunk and merge in chunk order");
    return p;
  }();
  return kPatterns;
}

void CheckLinePatterns(const std::vector<std::string>& code_lines,
                       const std::vector<std::set<std::string>>& allowed,
                       const std::string& path, const Options& opts,
                       std::vector<Finding>* out) {
  for (const LineRulePattern& pat : LinePatterns()) {
    if (!RuleEnabled(opts, pat.rule)) {
      continue;
    }
    for (size_t i = 0; i < code_lines.size(); ++i) {
      if (!std::regex_search(code_lines[i], pat.re)) {
        continue;
      }
      if (Suppressed(allowed, i, pat.rule)) {
        continue;
      }
      out->push_back(
          {path, static_cast<int>(i) + 1, pat.rule, pat.message});
    }
  }
}

/// Names of variables/members declared with an unordered container type in
/// this file (a file-local heuristic: good enough for a project linter, and
/// the allow() escape hatch covers the rest).
std::set<std::string> UnorderedContainerNames(const std::string& code) {
  std::set<std::string> names;
  static const std::regex kDecl(R"(unordered_(?:map|set)\s*<)");
  auto begin = std::sregex_iterator(code.begin(), code.end(), kDecl);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    // Walk the template argument list to its closing '>'.
    size_t pos = static_cast<size_t>(it->position()) + it->length();
    int depth = 1;
    while (pos < code.size() && depth > 0) {
      char c = code[pos];
      if (c == '<') {
        ++depth;
      } else if (c == '>') {
        --depth;
      }
      ++pos;
    }
    if (depth != 0) {
      continue;
    }
    // Skip declarator decorations, then capture the declared name.
    while (pos < code.size() &&
           (std::isspace(static_cast<unsigned char>(code[pos])) != 0 ||
            code[pos] == '&' || code[pos] == '*')) {
      ++pos;
    }
    size_t name_begin = pos;
    while (pos < code.size() && IsIdent(code[pos])) {
      ++pos;
    }
    if (pos > name_begin) {
      names.insert(code.substr(name_begin, pos - name_begin));
    }
  }
  return names;
}

void CheckUnorderedIteration(const std::string& code,
                             const std::vector<std::string>& code_lines,
                             const std::vector<std::set<std::string>>& allowed,
                             const std::string& path, const Options& opts,
                             std::vector<Finding>* out) {
  if (!RuleEnabled(opts, kUnorderedIter)) {
    return;
  }
  const std::set<std::string> names = UnorderedContainerNames(code);
  if (names.empty()) {
    return;
  }
  static const std::regex kRangeFor(
      R"(for\s*\([^;()]*?:\s*\*?([A-Za-z_]\w*)\s*\))");
  static const std::regex kBeginCall(
      R"(([A-Za-z_]\w*)\s*(?:\.|->)\s*c?r?begin\s*\(\s*\))");
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    for (const auto& [re, what] :
         {std::pair<const std::regex&, const char*>{kRangeFor, "range-for"},
          std::pair<const std::regex&, const char*>{kBeginCall,
                                                    "iterator loop"}}) {
      auto begin = std::sregex_iterator(line.begin(), line.end(), re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (names.count(name) == 0 || Suppressed(allowed, i, kUnorderedIter)) {
          continue;
        }
        out->push_back(
            {path, static_cast<int>(i) + 1, kUnorderedIter,
             std::string(what) + " over unordered container '" + name +
                 "': hash-order iteration leaks pointer/seed nondeterminism "
                 "into results; iterate a sorted or first-seen-ordered "
                 "mirror instead"});
      }
    }
  }
}

void CheckUncheckedIo(const std::string& code,
                      const std::vector<size_t>& line_starts,
                      const std::vector<std::set<std::string>>& allowed,
                      const std::string& path, const Options& opts,
                      std::vector<Finding>* out) {
  if (!RuleEnabled(opts, kUncheckedIo)) {
    return;
  }
  static const std::regex kIoCall(R"(\b(fwrite|fread)\s*\()");
  auto begin = std::sregex_iterator(code.begin(), code.end(), kIoCall);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    size_t tok = static_cast<size_t>(it->position());
    // Include a `std ::` qualifier in the statement-position check.
    size_t before = tok;
    {
      size_t q = tok;
      while (q > 0 && (std::isspace(static_cast<unsigned char>(code[q - 1])) !=
                       0)) {
        --q;
      }
      if (q >= 2 && code[q - 1] == ':' && code[q - 2] == ':') {
        q -= 2;
        while (q > 0 &&
               std::isspace(static_cast<unsigned char>(code[q - 1])) != 0) {
          --q;
        }
        if (q >= 3 && code.compare(q - 3, 3, "std") == 0) {
          before = q - 3;
        }
      }
    }
    // The result is discarded iff the call sits in statement position.
    size_t p = before;
    while (p > 0 &&
           std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
      --p;
    }
    const bool statement_position =
        p == 0 || code[p - 1] == ';' || code[p - 1] == '{' ||
        code[p - 1] == '}';
    if (!statement_position) {
      continue;
    }
    int line = LineOfOffset(line_starts, tok);
    if (Suppressed(allowed, static_cast<size_t>(line) - 1, kUncheckedIo)) {
      continue;
    }
    out->push_back(
        {path, line, kUncheckedIo,
         std::string((*it)[1].str()) +
             "() result discarded: a short read/write (full disk, I/O "
             "error) must fail the checkpoint, not truncate it silently"});
  }
}

void CheckHotLoops(const std::vector<std::string>& code_lines,
                   const std::vector<std::set<std::string>>& allowed,
                   const std::string& path, const Options& opts,
                   std::vector<Finding>* out) {
  if (!RuleEnabled(opts, kHotLoopVirtual)) {
    return;
  }
  static const std::regex kBegin(R"(\bBIOSIM_HOT_LOOP_BEGIN\s*\()");
  static const std::regex kEnd(R"(\bBIOSIM_HOT_LOOP_END\s*\()");
  static const std::regex kDefine(R"(^\s*#\s*define\b)");
  static const std::vector<std::pair<std::regex, const char*>> kBanned = [] {
    std::vector<std::pair<std::regex, const char*>> v;
    v.emplace_back(std::regex(R"(\bdynamic_cast\s*<)"), "dynamic_cast");
    v.emplace_back(std::regex(R"(\btypeid\s*\()"), "typeid");
    v.emplace_back(std::regex(R"(\b(std\s*::\s*)?function\s*<)"),
                   "std::function");
    v.emplace_back(std::regex(R"(\bvirtual\b)"), "virtual dispatch");
    return v;
  }();
  int region_start = -1;  // 0-based line of the open BEGIN, or -1
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    if (std::regex_search(line, kDefine)) {
      continue;  // the marker macro definitions themselves
    }
    const bool in_region = region_start >= 0;
    if (in_region) {
      for (const auto& [re, what] : kBanned) {
        if (std::regex_search(line, re) &&
            !Suppressed(allowed, i, kHotLoopVirtual)) {
          out->push_back(
              {path, static_cast<int>(i) + 1, kHotLoopVirtual,
               std::string(what) +
                   " inside a BIOSIM_HOT_LOOP region: dispatch in the inner "
                   "loop defeats the fused fast path (resolve it once per "
                   "step outside the region)"});
        }
      }
    }
    if (std::regex_search(line, kBegin)) {
      region_start = static_cast<int>(i);
    }
    if (std::regex_search(line, kEnd)) {
      region_start = -1;
    }
  }
  if (region_start >= 0) {
    out->push_back({path, region_start + 1, kHotLoopVirtual,
                    "BIOSIM_HOT_LOOP_BEGIN region is never closed in this "
                    "file (missing BIOSIM_HOT_LOOP_END)"});
  }
}

void CheckShardScopes(const std::vector<std::string>& code_lines,
                      const std::vector<std::set<std::string>>& allowed,
                      const std::string& path, const Options& opts,
                      std::vector<Finding>* out) {
  if (!RuleEnabled(opts, kCrossShardWrite)) {
    return;
  }
  static const std::regex kBegin(R"(\bBIOSIM_SHARD_SCOPE_BEGIN\s*\()");
  static const std::regex kEnd(R"(\bBIOSIM_SHARD_SCOPE_END\s*\()");
  static const std::regex kDefine(R"(^\s*#\s*define\b)");
  // Domain-global effects a per-shard scope must not apply directly: they
  // either race between shards or commit in shard order, breaking the
  // bitwise shard-count-invariance contract (docs/sharding.md). Buffer and
  // merge in global row order instead.
  static const std::vector<std::pair<std::regex, const char*>> kBanned = [] {
    std::vector<std::pair<std::regex, const char*>> v;
    v.emplace_back(std::regex(R"((\.|->)\s*IncreaseConcentrationBy\s*\()"),
                   "direct substance write");
    v.emplace_back(std::regex(R"((\.|->)\s*AddAgent\s*\()"),
                   "agent creation");
    v.emplace_back(std::regex(R"((\.|->)\s*RemoveAgent\s*\()"),
                   "agent removal");
    return v;
  }();
  int region_start = -1;  // 0-based line of the open BEGIN, or -1
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    if (std::regex_search(line, kDefine)) {
      continue;  // the marker macro definitions themselves
    }
    if (region_start >= 0) {
      for (const auto& [re, what] : kBanned) {
        if (std::regex_search(line, re) &&
            !Suppressed(allowed, i, kCrossShardWrite)) {
          out->push_back(
              {path, static_cast<int>(i) + 1, kCrossShardWrite,
               std::string(what) +
                   " inside a BIOSIM_SHARD_SCOPE region: a shard writes "
                   "only its own rows; buffer the effect and merge it in "
                   "global row order after the shard-parallel phase"});
        }
      }
    }
    if (std::regex_search(line, kBegin)) {
      region_start = static_cast<int>(i);
    }
    if (std::regex_search(line, kEnd)) {
      region_start = -1;
    }
  }
  if (region_start >= 0) {
    out->push_back({path, region_start + 1, kCrossShardWrite,
                    "BIOSIM_SHARD_SCOPE_BEGIN region is never closed in this "
                    "file (missing BIOSIM_SHARD_SCOPE_END)"});
  }
}

/// temp-path-literal: ctest runs every test case in its own process,
/// concurrently under -j, and all of them share one TempDir(); joining it to
/// a fixed name lets two cases clobber each other's files. Matched on the
/// raw line (the literal is the point) where the stripped view shows the
/// TempDir call as code — the stripper keeps columns, so the two align.
void CheckTempPathLiterals(const std::vector<std::string>& raw_lines,
                           const std::vector<std::string>& code_lines,
                           const std::vector<std::set<std::string>>& allowed,
                           const std::string& path, const Options& opts,
                           std::vector<Finding>* out) {
  if (!RuleEnabled(opts, kTempPathLiteral)) {
    return;
  }
  static const std::regex kJoin(
      R"(\bTempDir\s*\(\s*\)\s*\)?\s*\+\s*(u8|u|U|L)?R?")");
  for (size_t i = 0; i < raw_lines.size() && i < code_lines.size(); ++i) {
    const std::string& raw = raw_lines[i];
    for (auto it = std::sregex_iterator(raw.begin(), raw.end(), kJoin);
         it != std::sregex_iterator(); ++it) {
      const size_t col = static_cast<size_t>(it->position());
      if (code_lines[i].compare(col, 7, "TempDir") != 0 ||
          Suppressed(allowed, i, kTempPathLiteral)) {
        continue;
      }
      out->push_back({path, static_cast<int>(i) + 1, kTempPathLiteral,
                      "TempDir() joined to a fixed name collides when ctest "
                      "-j runs test cases concurrently; use "
                      "testutil::TempPath(name) (tests/test_util.h), unique "
                      "per test case and process"});
      break;
    }
  }
}

/// True when `path` lies under tools/, bench/, examples/ or src/app/ (as a
/// relative prefix or an inner path segment): the command-line surfaces
/// where rule `unchecked-parse` applies.
bool InCliScope(const std::string& path) {
  const std::string p = path.rfind('/', 0) == 0 ? path : "/" + path;
  for (const char* dir : {"/tools/", "/bench/", "/examples/", "/src/app/"}) {
    if (p.find(dir) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// unchecked-parse: std::atoi/atol/atoll/atof read "five" as 0 and wrap
/// out-of-range values without a word, so a typo in a flag or an
/// environment variable silently runs a different (often empty) workload.
/// Only the command-line surfaces are in scope (InCliScope).
void CheckUncheckedParse(const std::vector<std::string>& code_lines,
                         const std::vector<std::set<std::string>>& allowed,
                         const std::string& path, const Options& opts,
                         std::vector<Finding>* out) {
  if (!RuleEnabled(opts, kUncheckedParse) || !InCliScope(path)) {
    return;
  }
  static const std::regex kAto(R"((^|[^\w.>])(ato(i|ll|l|f))\s*\()");
  for (size_t i = 0; i < code_lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(code_lines[i], m, kAto) ||
        Suppressed(allowed, i, kUncheckedParse)) {
      continue;
    }
    out->push_back({path, static_cast<int>(i) + 1, kUncheckedParse,
                    m[2].str() +
                        "() turns a malformed value into 0 and wraps an "
                        "out-of-range one silently; parse with the checked "
                        "parsers of app/config.h (ToInt<T>, ToCount, "
                        "ToDouble, ToPositive), whose errors name the flag"});
  }
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {kRawRand,
       "no rand()/srand()/std::random_device/mt19937/time()/clock() in sim "
       "code; use core/random.h streams"},
      {kUnorderedIter,
       "no iteration over std::unordered_map/unordered_set (hash order is "
       "nondeterministic)"},
      {kDirectDeposit,
       "behaviors deposit via SimContext::DepositSubstance, never "
       "DiffusionGrid::IncreaseConcentrationBy directly"},
      {kFpOmpReduction,
       "no OpenMP reduction clauses / omp atomic / atomic<float|double>; "
       "write per-chunk partials and merge them in chunk order"},
      {kUncheckedIo,
       "every fwrite/fread result is checked (checkpoint truncation must "
       "fail loudly)"},
      {kHotLoopVirtual,
       "no dynamic_cast/typeid/std::function/virtual inside "
       "BIOSIM_HOT_LOOP regions"},
      {kCrossShardWrite,
       "no direct domain-global writes (IncreaseConcentrationBy, "
       "AddAgent/RemoveAgent) inside BIOSIM_SHARD_SCOPE regions"},
      {kTempPathLiteral,
       "tests build scratch paths with testutil::TempPath, never TempDir() "
       "joined to a string literal (ctest -j runs cases concurrently)"},
      {kUncheckedParse,
       "no std::atoi/atol/atoll/atof under tools/, bench/, examples/ or "
       "src/app/; parse flags with app/config.h's checked parsers"},
  };
  return kRules;
}

bool RuleEnabled(const Options& opts, const std::string& rule) {
  return opts.rules.empty() || opts.rules.count(rule) != 0;
}

std::vector<std::string> StripCommentsAndStrings(const std::string& content) {
  std::string out;
  out.reserve(content.size());
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for kRawString: ")delim"
  size_t i = 0;
  const size_t n = content.size();
  while (i < n) {
    char c = content[i];
    char next = i + 1 < n ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          i += 2;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          i += 2;
        } else if (c == '"') {
          // Raw string literal? (R"delim( ... )delim")
          if (i > 0 && content[i - 1] == 'R' &&
              (i < 2 || !IsIdent(content[i - 2]))) {
            size_t j = i + 1;
            std::string delim;
            while (j < n && content[j] != '(' && j - i - 1 < 20) {
              delim.push_back(content[j]);
              ++j;
            }
            if (j < n && content[j] == '(') {
              raw_delim = ")" + delim + "\"";
              state = State::kRawString;
              for (size_t k = i; k <= j; ++k) {
                out += content[k] == '\n' ? '\n' : ' ';
              }
              i = j + 1;
              break;
            }
          }
          state = State::kString;
          out += ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
          ++i;
        } else {
          out += c;
          ++i;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        ++i;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          i += 2;
        } else {
          out += c == '\n' ? '\n' : ' ';
          ++i;
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && i + 1 < n) {
          out += "  ";
          i += 2;
        } else if (c == quote) {
          state = State::kCode;
          out += ' ';
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
          ++i;
        }
        break;
      }
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 0; k < raw_delim.size(); ++k) {
            out += ' ';
          }
          i += raw_delim.size();
          state = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
          ++i;
        }
        break;
    }
  }
  return SplitLines(out);
}

std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content,
                              const Options& opts) {
  const std::vector<std::string> raw_lines = SplitLines(content);
  const std::vector<std::string> code_lines = StripCommentsAndStrings(content);
  const std::vector<std::set<std::string>> allowed =
      AllowedRulesPerLine(raw_lines);

  // Joined code view + line offsets for the multi-line checks.
  std::string code;
  std::vector<size_t> line_starts;
  for (const std::string& l : code_lines) {
    line_starts.push_back(code.size());
    code += l;
    code += '\n';
  }

  std::vector<Finding> out;
  CheckLinePatterns(code_lines, allowed, path, opts, &out);
  CheckUnorderedIteration(code, code_lines, allowed, path, opts, &out);
  CheckUncheckedIo(code, line_starts, allowed, path, opts, &out);
  CheckHotLoops(code_lines, allowed, path, opts, &out);
  CheckShardScopes(code_lines, allowed, path, opts, &out);
  CheckTempPathLiterals(raw_lines, code_lines, allowed, path, opts, &out);
  CheckUncheckedParse(code_lines, allowed, path, opts, &out);

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

bool LintPath(const std::string& path, const Options& opts,
              std::vector<Finding>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::vector<Finding> findings = LintFile(path, ss.str(), opts);
  out->insert(out->end(), findings.begin(), findings.end());
  return true;
}

std::vector<std::string> CompileCommandsFiles(const std::string& db_path) {
  std::ifstream in(db_path, std::ios::binary);
  if (!in.good()) {
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  std::vector<std::string> files;
  static const std::regex kFileKey(R"("file"\s*:\s*")");
  auto begin = std::sregex_iterator(text.begin(), text.end(), kFileKey);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    size_t p = static_cast<size_t>(it->position()) + it->length();
    std::string value;
    while (p < text.size() && text[p] != '"') {
      if (text[p] == '\\' && p + 1 < text.size()) {
        value.push_back(text[p + 1]);
        p += 2;
      } else {
        value.push_back(text[p]);
        ++p;
      }
    }
    files.push_back(std::move(value));
  }
  return files;
}

}  // namespace biosimlint
