// `bench_e2e compare BASE.json CAND.json` — one verdict per (workload,
// end-to-end metric), under the bounds the repo's BENCHMARK.json fixes.
//
// A row is `unresolved` when either side's IQR (as a share of its median)
// is wider than the bound and not every candidate run beats every base run;
// otherwise the median delta decides: worse by more than the bound is
// `regressed`, better by more than it `improved`, anything else
// `unchanged`. failed_frac has no relative bound: any increase regresses.
// The exact `work` blocks must match, checked by perfwatch. Records load
// through perfwatch_lib; the end-to-end samples other than run_s (the
// record's wall_seconds) come from each point's `extra.samples`, read from
// the same parsed document.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/json.h"
#include "e2e.h"
#include "perfwatch.h"

namespace jf::e2e {

namespace {

struct Loaded {
  json::Value doc;
  perfwatch::Record record;
};

Loaded load(const std::string& path) {
  Loaded l;
  l.doc = json::Value::parse(common::read_file(path));
  l.record = perfwatch::parse_record(l.doc, path);
  return l;
}

// Samples of `metric` at point index `i`.
std::vector<double> samples(const Loaded& l, std::size_t i, const std::string& metric) {
  if (metric == "run_s") return l.record.points[i].wall_seconds;
  std::vector<double> xs;
  const json::Value& point = l.doc.find("points")->as_array()[i];
  const json::Value* extra = point.find("extra");
  const json::Value* s = extra != nullptr ? extra->find("samples") : nullptr;
  const json::Value* arr = s != nullptr ? s->find(metric) : nullptr;
  if (arr == nullptr) {
    throw std::runtime_error(l.record.source + " point '" + l.record.points[i].label +
                             "': no samples for '" + metric + "'");
  }
  for (const json::Value& v : arr->as_array()) xs.push_back(v.as_number());
  return xs;
}

double failed_frac(const Loaded& l, std::size_t i) {
  const json::Value* extra = l.doc.find("points")->as_array()[i].find("extra");
  const json::Value* f = extra != nullptr ? extra->find("failed_frac") : nullptr;
  return f != nullptr ? f->as_number() : 0.0;
}

// End-to-end bounds by metric name, from BENCHMARK.json.
std::map<std::string, double> load_bounds() {
  const std::string path = JF_E2E_DIR "/../../BENCHMARK.json";
  const json::Value v = json::Value::parse(common::read_file(path));
  std::map<std::string, double> bounds;
  for (const json::Value& m : v.find("end_to_end")->as_array()) {
    bounds[m.find("name")->as_string()] = m.find("bound")->as_number();
  }
  return bounds;
}

std::string verdict(const std::vector<double>& base, const std::vector<double>& cand,
                    double bound) {
  if (base.empty() || cand.empty()) return "unresolved";
  const double mb = quartiles(base)[1];
  const double mc = quartiles(cand)[1];
  const bool every_run_better =
      *std::max_element(cand.begin(), cand.end()) < *std::min_element(base.begin(), base.end());
  if (!every_run_better && (relative_iqr(base) > bound || relative_iqr(cand) > bound)) {
    return "unresolved";
  }
  if (mb <= 0.0) return "unresolved";
  const double delta = (mc - mb) / mb;
  if (delta > bound) return "regressed";
  if (delta < -bound) return "improved";
  return "unchanged";
}

}  // namespace

int run_compare(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: bench_e2e compare BASE.json CAND.json\n";
    return 2;
  }
  const Loaded base = load(argv[0]);
  const Loaded cand = load(argv[1]);
  const std::map<std::string, double> bounds = load_bounds();
  int regressed = 0, unresolved = 0, rows = 0;

  std::printf("%-17s %-12s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "cand",
              "delta", "bound", "verdict");
  for (std::size_t i = 0; i < base.record.points.size(); ++i) {
    const std::string& label = base.record.points[i].label;
    std::size_t j = 0;
    while (j < cand.record.points.size() && cand.record.points[j].label != label) ++j;
    if (j == cand.record.points.size()) continue;  // reported by the work check below
    for (const MetricDef& m : e2e_metrics()) {
      auto it = bounds.find(m.name);
      if (it == bounds.end()) {
        throw std::runtime_error(std::string("BENCHMARK.json has no bound for ") + m.name);
      }
      const std::vector<double> b = samples(base, i, m.name);
      const std::vector<double> c = samples(cand, j, m.name);
      const std::string v = verdict(b, c, it->second);
      const double mb = quartiles(b)[1], mc = quartiles(c)[1];
      std::printf("%-17s %-12s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n", label.c_str(), m.name, mb,
                  mc, mb > 0.0 ? 100.0 * (mc - mb) / mb : 0.0, 100.0 * it->second, v.c_str());
      regressed += v == "regressed" ? 1 : 0;
      unresolved += v == "unresolved" ? 1 : 0;
      ++rows;
    }
    const double fb = failed_frac(base, i), fc = failed_frac(cand, j);
    const char* v = fc > fb ? "regressed" : fc < fb ? "improved" : "unchanged";
    std::printf("%-17s %-12s %12.6g %12.6g %8s %6s  %s\n", label.c_str(), "failed_frac", fb, fc,
                "", "0", v);
    regressed += fc > fb ? 1 : 0;
    ++rows;
  }

  // Work counts: exact equality, and every base workload present.
  perfwatch::CompareOptions wall_ignored;
  wall_ignored.wall_advisory = true;
  int drift = 0;
  for (const perfwatch::PointVerdict& pv :
       perfwatch::compare(base.record, cand.record, wall_ignored).points) {
    if (pv.verdict == perfwatch::Verdict::kWorkRegression ||
        pv.verdict == perfwatch::Verdict::kMissingPoint) {
      std::printf("work %s: %s\n", pv.label.c_str(), pv.detail.c_str());
      ++drift;
    }
  }
  std::printf("bench_e2e compare: %d rows, %d regressed, %d unresolved, %d work drift -> %s\n",
              rows, regressed, unresolved, drift, regressed + drift > 0 ? "FAIL" : "ok");
  return regressed + drift > 0 ? 1 : 0;
}

}  // namespace jf::e2e
