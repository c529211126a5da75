// biosim-lint CLI. See lint.h and docs/static-analysis.md.
//
//   biosim-lint                       # lint src/ + tools/ via the compile db,
//                                     # tests/ for temp-path-literal only,
//                                     # bench/ + examples/ for
//                                     # unchecked-parse only
//   biosim-lint src/core tests/x.cc   # explicit files/directories
//   biosim-lint --rule=raw-rand src   # restrict to one rule
//   biosim-lint --list-rules
//
// Exit status: 0 clean, 1 findings, 2 usage/environment error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "lint.h"

namespace fs = std::filesystem;

namespace {

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".cxx" || ext == ".h" ||
         ext == ".hpp";
}

void CollectFromDir(const fs::path& dir, std::vector<std::string>* out) {
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      break;
    }
    if (it->is_regular_file(ec) && HasSourceExtension(it->path())) {
      out->push_back(it->path().string());
    }
  }
}

/// Repo-relative display form when the file lives under the current
/// directory; the canonical form keys deduplication.
std::string Relativize(const std::string& path) {
  std::error_code ec;
  fs::path rel = fs::relative(path, fs::current_path(), ec);
  if (ec || rel.empty() || rel.native().rfind("..", 0) == 0) {
    return path;
  }
  return rel.string();
}

/// True for the paths the determinism contract governs in the default
/// (compile-db driven) mode.
bool InDefaultScope(const std::string& path) {
  const std::string rel = Relativize(path);
  return (rel.rfind("src/", 0) == 0 || rel.rfind("tools/", 0) == 0) &&
         rel.find("/fixtures/") == std::string::npos;
}

/// Test sources sit outside the determinism contract, but concurrently
/// running test processes share one TempDir(): the default mode lints them
/// for temp-path-literal only.
bool InTestScope(const std::string& path) {
  const std::string rel = Relativize(path);
  return rel.rfind("tests/", 0) == 0 &&
         rel.find("/fixtures/") == std::string::npos;
}

/// Bench and example binaries sit outside the determinism contract too, but
/// parse command lines like tools/ does: the default mode lints them for
/// unchecked-parse only.
bool InBinaryScope(const std::string& path) {
  const std::string rel = Relativize(path);
  return (rel.rfind("bench/", 0) == 0 || rel.rfind("examples/", 0) == 0) &&
         rel.find("/fixtures/") == std::string::npos;
}

int Usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: biosim-lint [options] [files-or-dirs...]\n"
      "\n"
      "Project determinism/concurrency lint (docs/static-analysis.md).\n"
      "With no paths, lints every src/ and tools/ translation unit from the\n"
      "compile database plus the headers under src/ and tools/, the\n"
      "sources under tests/ for temp-path-literal, and the sources under\n"
      "bench/ and examples/ for unchecked-parse.\n"
      "\n"
      "options:\n"
      "  -p PATH, --compile-commands=PATH   compile database\n"
      "                                     (default: build/compile_commands.json)\n"
      "  --rule=ID                          restrict to rule ID (repeatable)\n"
      "  --list-rules                       print the rule table and exit\n"
      "  -h, --help                         this help\n"
      "\n"
      "Suppress one finding with a visible escape hatch:\n"
      "  offending_code();  // biosim-lint: allow(rule-id)\n");
  return to == stderr ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path = "build/compile_commands.json";
  biosimlint::Options opts;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      return Usage(stdout);
    }
    if (arg == "--list-rules") {
      for (const biosimlint::RuleInfo& r : biosimlint::Rules()) {
        std::printf("%-18s %s\n", r.id, r.summary);
      }
      return 0;
    }
    if (arg == "-p") {
      if (i + 1 >= argc) {
        return Usage(stderr);
      }
      db_path = argv[++i];
    } else if (arg.rfind("--compile-commands=", 0) == 0) {
      db_path = arg.substr(std::strlen("--compile-commands="));
    } else if (arg.rfind("--rule=", 0) == 0) {
      const std::string id = arg.substr(std::strlen("--rule="));
      bool known = false;
      for (const biosimlint::RuleInfo& r : biosimlint::Rules()) {
        known = known || id == r.id;
      }
      if (!known) {
        std::fprintf(stderr, "biosim-lint: unknown rule '%s'\n", id.c_str());
        return 2;
      }
      opts.rules.insert(id);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "biosim-lint: unknown option '%s'\n", arg.c_str());
      return Usage(stderr);
    } else {
      paths.push_back(arg);
    }
  }

  // Assemble the file list.
  std::vector<std::string> files;
  if (paths.empty()) {
    for (const std::string& f : biosimlint::CompileCommandsFiles(db_path)) {
      if (InDefaultScope(f)) {
        files.push_back(f);
      }
    }
    if (files.empty()) {
      std::fprintf(stderr,
                   "biosim-lint: no src/ or tools/ entries in '%s' — run the "
                   "tier-1 configure first (cmake -B build -S .) or pass "
                   "paths explicitly\n",
                   db_path.c_str());
      return 2;
    }
    // The compile database only lists translation units; headers carry the
    // same contract.
    for (const char* dir : {"src", "tools"}) {
      std::vector<std::string> extra;
      CollectFromDir(dir, &extra);
      for (std::string& f : extra) {
        if (fs::path(f).extension() != ".cc" && InDefaultScope(f)) {
          files.push_back(std::move(f));
        }
      }
    }
    if (biosimlint::RuleEnabled(opts, biosimlint::kTempPathLiteral)) {
      std::vector<std::string> tests;
      CollectFromDir("tests", &tests);
      for (std::string& f : tests) {
        if (InTestScope(f)) {
          files.push_back(std::move(f));
        }
      }
    }
    if (biosimlint::RuleEnabled(opts, biosimlint::kUncheckedParse)) {
      for (const char* dir : {"bench", "examples"}) {
        std::vector<std::string> binaries;
        CollectFromDir(dir, &binaries);
        for (std::string& f : binaries) {
          if (InBinaryScope(f)) {
            files.push_back(std::move(f));
          }
        }
      }
    }
  } else {
    for (const std::string& p : paths) {
      std::error_code ec;
      if (fs::is_directory(p, ec)) {
        CollectFromDir(p, &files);
      } else {
        files.push_back(p);
      }
    }
  }

  // Dedupe on canonical identity, lint in sorted display order.
  std::set<std::string> seen;
  std::vector<std::string> display;
  for (const std::string& f : files) {
    std::error_code ec;
    fs::path canon = fs::weakly_canonical(f, ec);
    const std::string key = ec ? f : canon.string();
    if (seen.insert(key).second) {
      display.push_back(Relativize(f));
    }
  }
  std::sort(display.begin(), display.end());

  biosimlint::Options test_opts;
  test_opts.rules = {biosimlint::kTempPathLiteral};
  biosimlint::Options binary_opts;
  binary_opts.rules = {biosimlint::kUncheckedParse};
  std::vector<biosimlint::Finding> findings;
  size_t scanned = 0;
  for (const std::string& f : display) {
    const biosimlint::Options* file_opts = &opts;
    if (paths.empty() && InTestScope(f)) {
      file_opts = &test_opts;
    } else if (paths.empty() && InBinaryScope(f)) {
      file_opts = &binary_opts;
    }
    if (biosimlint::LintPath(f, *file_opts, &findings)) {
      ++scanned;
    } else {
      std::fprintf(stderr, "biosim-lint: cannot read '%s'\n", f.c_str());
      return 2;
    }
  }

  std::set<std::string> files_with_findings;
  for (const biosimlint::Finding& f : findings) {
    std::printf("%s:%d: error: [%s] %s\n", f.file.c_str(), f.line,
                f.rule.c_str(), f.message.c_str());
    files_with_findings.insert(f.file);
  }
  if (findings.empty()) {
    std::printf("biosim-lint: clean (%zu files scanned)\n", scanned);
    return 0;
  }
  std::printf("biosim-lint: %zu finding(s) in %zu file(s) (%zu scanned)\n",
              findings.size(), files_with_findings.size(), scanned);
  return 1;
}
