#include "obs/perfrec.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/fs.h"

namespace jf::obs {

namespace {

// Build-configuration identity, stamped per-source by CMake (see the
// set_source_files_properties block in CMakeLists.txt). Fallbacks keep the
// file compiling outside the repo build.
#ifndef JF_BUILD_TYPE
#define JF_BUILD_TYPE ""
#endif
#ifndef JF_SANITIZE_CONFIG
#define JF_SANITIZE_CONFIG ""
#endif
#ifndef JF_CXX_FLAGS
#define JF_CXX_FLAGS ""
#endif

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// First "model name" entry of /proc/cpuinfo; empty when the file or the key
// is missing (non-Linux hosts). Reading is fine — only *writes* must go
// through common/fs.
std::string cpu_model_name() {
  const auto text = common::try_read_file("/proc/cpuinfo");
  if (!text) return {};
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") != 0) continue;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return {};
}

// Median with the even-count halves averaged (not nearest-rank: a two-repeat
// record should not pretend one of its samples is "the" median).
double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n == 0) return 0.0;
  if (n % 2 == 1) return xs[n / 2];
  return 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

json::Value fingerprint_to_json(const EnvFingerprint& fp) {
  json::Object o;
  o.emplace_back("compiler", fp.compiler);
  o.emplace_back("flags", fp.flags);
  o.emplace_back("build_type", fp.build_type);
  o.emplace_back("sanitizer", fp.sanitizer);
  o.emplace_back("hardware_concurrency", fp.hw_concurrency);
  o.emplace_back("cpu_model", fp.cpu_model);
  o.emplace_back("git_sha", fp.git_sha);
  return json::Value(std::move(o));
}

}  // namespace

EnvFingerprint current_fingerprint(std::string git_sha) {
  EnvFingerprint fp;
  fp.compiler = compiler_id();
  fp.flags = JF_CXX_FLAGS;
  fp.build_type = JF_BUILD_TYPE;
  fp.sanitizer = JF_SANITIZE_CONFIG;
  // detlint: ok(fingerprint metadata on a perf record, never a result path)
  fp.hw_concurrency = static_cast<int>(std::thread::hardware_concurrency());
  fp.cpu_model = cpu_model_name();
  fp.git_sha = std::move(git_sha);
  return fp;
}

bool fingerprints_comparable(const EnvFingerprint& a, const EnvFingerprint& b) {
  return a.compiler == b.compiler && a.flags == b.flags &&
         a.build_type == b.build_type && a.sanitizer == b.sanitizer &&
         a.hw_concurrency == b.hw_concurrency && a.cpu_model == b.cpu_model;
}

WallStats derive_wall_stats(const std::vector<double>& samples) {
  WallStats s;
  s.repeats = static_cast<int>(samples.size());
  if (samples.empty()) return s;
  s.min_seconds = *std::min_element(samples.begin(), samples.end());
  s.median_seconds = median_of(samples);
  std::vector<double> dev;
  dev.reserve(samples.size());
  for (double x : samples) dev.push_back(std::abs(x - s.median_seconds));
  s.mad_seconds = median_of(std::move(dev));
  return s;
}

std::vector<std::pair<std::string, std::int64_t>> snapshot_work(
    const std::vector<std::string>& names) {
  const MetricsSnapshot snap = collect_metrics();
  std::vector<std::pair<std::string, std::int64_t>> work;
  for (const std::string& name : names) {
    bool found = false;
    for (const auto& [n, v] : snap.counters) {
      if (n == name) {
        work.emplace_back(name, v);
        found = true;
      }
    }
    if (found) continue;
    for (const auto& [n, d] : snap.distributions) {
      if (n == name) {
        work.emplace_back(name + ".count", d.count);
        work.emplace_back(name + ".sum", d.sum);
        found = true;
      }
    }
    // Stable key set even when a subsystem never ran (e.g. no packet-sim
    // run in an MCF-only bench): absent names pin an explicit zero.
    if (!found) work.emplace_back(name, 0);
  }
  std::sort(work.begin(), work.end());
  return work;
}

PerfRecorder::PerfRecorder(std::string benchmark, EnvFingerprint fingerprint)
    : benchmark_(std::move(benchmark)), fingerprint_(std::move(fingerprint)) {}

void PerfRecorder::set_meta(const std::string& key, json::Value v) {
  for (auto& [k, old] : meta_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  meta_.emplace_back(key, std::move(v));
}

PerfPoint& PerfRecorder::add_point(std::string label, json::Object params) {
  for (const auto& p : points_) {
    if (p.label == label) {
      throw std::invalid_argument("PerfRecorder: duplicate point label '" + label + "'");
    }
  }
  PerfPoint& p = points_.emplace_back();
  p.label = std::move(label);
  p.params = std::move(params);
  return p;
}

json::Value PerfRecorder::to_json() const {
  json::Object root;
  root.emplace_back("schema_version", kPerfRecordSchemaVersion);
  root.emplace_back("benchmark", benchmark_);
  root.emplace_back("fingerprint", fingerprint_to_json(fingerprint_));
  root.emplace_back("meta", json::Value(meta_));
  json::Array points;
  for (const PerfPoint& p : points_) {
    json::Object o;
    o.emplace_back("label", p.label);
    o.emplace_back("params", json::Value(p.params));
    json::Array samples;
    for (double s : p.wall_seconds) samples.emplace_back(s);
    o.emplace_back("wall_seconds", json::Value(std::move(samples)));
    const WallStats ws = derive_wall_stats(p.wall_seconds);
    json::Object wall;
    wall.emplace_back("repeats", ws.repeats);
    wall.emplace_back("min_seconds", ws.min_seconds);
    wall.emplace_back("median_seconds", ws.median_seconds);
    wall.emplace_back("mad_seconds", ws.mad_seconds);
    o.emplace_back("wall", json::Value(std::move(wall)));
    json::Object work;
    for (const auto& [name, value] : p.work) work.emplace_back(name, value);
    o.emplace_back("work", json::Value(std::move(work)));
    if (!p.extra.empty()) o.emplace_back("extra", json::Value(p.extra));
    points.emplace_back(json::Value(std::move(o)));
  }
  root.emplace_back("points", json::Value(std::move(points)));
  return json::Value(std::move(root));
}

void PerfRecorder::write(const std::filesystem::path& path) const {
  common::write_file_atomic(path, to_json().dump(2) + "\n");
}

}  // namespace jf::obs
