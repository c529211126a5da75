#include "app/config.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace biosim::app {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

[[noreturn]] void Fail(size_t line, const std::string& what) {
  throw std::runtime_error("config line " + std::to_string(line) + ": " +
                           what);
}

// Checked value parsers. `ctx` names the value's source and key ("config
// line 7: threads", "--threads", "BIOSIM_THREADS") and starts every error
// message. A malformed value throws std::runtime_error; a well-formed value
// outside the key's own domain throws std::invalid_argument.

double ToDouble(const std::string& v, const std::string& ctx) {
  char* end = nullptr;
  double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    throw std::runtime_error(ctx + " must be a number, got '" + v + "'");
  }
  return d;
}

/// A non-negative integer that fits T, so nothing narrows silently.
template <typename T>
T ToInt(const std::string& v, const std::string& ctx) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  // 2^digits is exact as a double, and every integral d below it fits T.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (end == v.c_str() || *end != '\0' || !(d >= 0.0) || d >= limit ||
      d != std::floor(d)) {
    throw std::runtime_error(ctx + " must be an integer in 0.." +
                             std::to_string(std::numeric_limits<T>::max()) +
                             ", got '" + v + "'");
  }
  return static_cast<T>(d);
}

[[noreturn]] void Reject(const std::string& ctx, const std::string& rule,
                         const std::string& v) {
  throw std::invalid_argument(ctx + " must be " + rule + ", got '" + v + "'");
}

/// `parse`, then the key's own domain rule `ok`, described as `rule`.
template <typename Parse, typename Ok>
auto Checked(Parse parse, Ok ok, const char* rule) {
  return [=](const std::string& v, const std::string& ctx) {
    const auto x = parse(v, ctx);
    if (!ok(x)) {
      Reject(ctx, rule, v);
    }
    return x;
  };
}
const auto ToPositive =
    Checked(ToDouble, [](double d) { return d > 0.0; }, "positive");
const auto ToNonNegative =
    Checked(ToDouble, [](double d) { return d >= 0.0; }, "non-negative");
const auto ToCount =
    Checked(ToInt<uint64_t>, [](uint64_t n) { return n >= 1; }, ">= 1");

bool ToBool(const std::string& v, const std::string& ctx) {
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  throw std::runtime_error(ctx + " must be a boolean (true/false), got '" + v +
                           "'");
}

std::string Text(const std::string& v, const std::string&) { return v; }

/// The parser of an enum-valued key: the value must be one of `words`.
auto OneOf(std::vector<std::string> words) {
  std::string rule = "one of";
  for (const std::string& w : words) {
    rule += " " + w;
  }
  return [words, rule](const std::string& v, const std::string& ctx) {
    if (std::find(words.begin(), words.end(), v) == words.end()) {
      Reject(ctx, rule, v);
    }
    return v;
  };
}

/// Parses a value and stores it: (value, ctx) -> void.
using Setter = std::function<void(const std::string&, const std::string&)>;
/// section -> key -> setter writing into one RunConfig.
using Schema = std::map<std::string, std::map<std::string, Setter>>;

template <typename T, typename Parse>
Setter Into(T* field, Parse parse) {
  return [field, parse](const std::string& v, const std::string& ctx) {
    *field = parse(v, ctx);
  };
}

Schema MakeSchema(RunConfig& cfg) {
  return {
      {"simulation",
       {{"steps", Into(&cfg.steps, ToInt<uint64_t>)},
        {"seed", Into(&cfg.seed, ToInt<uint64_t>)},
        {"max_bound", Into(&cfg.max_bound, ToDouble)},
        {"timestep", Into(&cfg.timestep, ToDouble)},
        {"max_displacement", Into(&cfg.max_displacement, ToDouble)},
        {"boundary", Into(&cfg.boundary, OneOf({"clamp", "torus", "open"}))},
        {"threads", Into(&cfg.num_threads, ToInt<uint32_t>)},
        {"shards", Into(&cfg.shards, ToInt<uint32_t>)},
        {"shard_balance",
         Into(&cfg.shard_balance, OneOf({"static", "adaptive"}))}}},
      {"model",
       {{"type",
         Into(&cfg.model_type, OneOf({"cell_division", "random_cloud"}))},
        {"cells_per_dim", Into(&cfg.cells_per_dim, ToCount)},
        {"agents", Into(&cfg.agents, ToInt<size_t>)},
        {"density", Into(&cfg.density, ToPositive)},
        {"diameter", Into(&cfg.diameter, ToPositive)},
        {"divide_threshold", Into(&cfg.divide_threshold, ToPositive)},
        {"growth_rate", Into(&cfg.growth_rate, ToDouble)},
        {"substance_resolution",
         Into(&cfg.substance_resolution, ToInt<size_t>)},
        {"substance_diffusion",
         Into(&cfg.substance_diffusion, ToNonNegative)},
        {"substance_decay", Into(&cfg.substance_decay, ToNonNegative)},
        {"secretion_rate", Into(&cfg.secretion_rate, ToDouble)}}},
      {"backend",
       {{"type", Into(&cfg.backend_type, OneOf({"cpu", "gpu"}))},
        {"gpu_version", Into(&cfg.gpu_version, ToInt<int>)},
        {"gpu_device", Into(&cfg.gpu_device, OneOf({"1080ti", "v100"}))},
        {"meter_stride", Into(&cfg.meter_stride, ToInt<int>)},
        {"sanitize", Into(&cfg.sanitize, ToBool)},
        {"racy_grid_build", Into(&cfg.racy_grid_build, ToBool)}}},
      {"output",
       {{"timeseries", Into(&cfg.timeseries_path, Text)},
        {"vtk", Into(&cfg.vtk_path, Text)},
        {"csv", Into(&cfg.csv_path, Text)},
        {"checkpoint", Into(&cfg.checkpoint_path, Text)},
        {"trace", Into(&cfg.trace_path, Text)},
        {"metrics", Into(&cfg.metrics_path, Text)},
        {"metrics_every", Into(&cfg.metrics_every, ToCount)},
        {"report", Into(&cfg.report_path, Text)},
        {"perf_counters", Into(&cfg.perf_counters, ToBool)},
        {"flight_recorder", Into(&cfg.flight_recorder_path, Text)},
        {"flight_recorder_depth",
         Into(&cfg.flight_recorder_depth, ToCount)},
        {"progress", Into(&cfg.progress_seconds, ToNonNegative)}}},
  };
}

}  // namespace

void SetConfigValue(RunConfig* cfg, const std::string& section,
                    const std::string& key, const std::string& value,
                    const std::string& source) {
  Schema schema = MakeSchema(*cfg);
  auto keys = schema.find(section);
  if (keys == schema.end() || keys->second.count(key) == 0) {
    throw std::logic_error("no config key '" + key + "' in [" + section +
                           "]");
  }
  keys->second.at(key)(value, source);
}

RunConfig ParseConfigString(const std::string& text) {
  RunConfig cfg;
  Schema schema = MakeSchema(cfg);

  std::istringstream in(text);
  std::string raw;
  std::string section;
  size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = Trim(raw);
    // Strip trailing comments.
    size_t comment = line.find_first_of(";#");
    if (comment != std::string::npos) {
      line = Trim(line.substr(0, comment));
    }
    if (line.empty()) {
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']') {
        Fail(line_no, "unterminated section header");
      }
      section = Trim(line.substr(1, line.size() - 2));
      if (schema.find(section) == schema.end()) {
        Fail(line_no, "unknown section [" + section + "]");
      }
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      Fail(line_no, "expected key = value");
    }
    if (section.empty()) {
      Fail(line_no, "key outside any section");
    }
    std::string key = Trim(line.substr(0, eq));
    std::string value = Trim(line.substr(eq + 1));
    auto& keys = schema[section];
    auto it = keys.find(key);
    if (it == keys.end()) {
      Fail(line_no, "unknown key '" + key + "' in [" + section + "]");
    }
    it->second(value, "config line " + std::to_string(line_no) + ": " + key);
  }
  return cfg;
}

RunConfig ParseConfigFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open config file: " + path);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ParseConfigString(ss.str());
}

}  // namespace biosim::app
