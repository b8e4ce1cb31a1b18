// bench_e2e — end-to-end benchmark of the evaluation pipeline (README.md in
// this directory has the metric catalogue and the reason for each workload).
//
// Declarations shared by the three roles one binary plays:
//   - the orchestrator (main.cc): forks one child per (repeat, workload),
//     reads its CPU time from wait4, checks report digests, and
//     writes one schema-v1 perf record;
//   - the child (child.cc): runs one workload through the same public
//     library calls `jf_eval run` makes, optionally traced, with probes into
//     the layers that have no internal counters;
//   - compare (compare.cc): per-(workload, metric) verdicts between two
//     records under the bounds in the repo's BENCHMARK.json.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eval/sweep.h"

namespace jf::e2e {

// The global worker budget of every run. A constant, not a flag: at 4
// threads the run-to-run spread on a shared 4-vCPU host doubles.
inline constexpr int kThreads = 2;

struct Workload {
  const char* name;
  // Runs against a copy of a template result store holding every other
  // seed's cells, so the run both reads and writes the store.
  bool uses_store;
  // SHA-256 of the report's samples at --seed 1 (result_digest in child.cc).
  const char* seed1_digest;
};

// The six workloads, in run order.
const std::vector<Workload>& workloads();
const Workload& find_workload(std::string_view name);  // throws on unknown names

// Loads bench/e2e/workloads/<name>.json and rebases its seed list to start at
// `seed` (offsets between seeds are kept), so the library only ever sees the
// generated scenario.
eval::SweepSpec load_workload(const Workload& w, std::uint64_t seed);

// A metric as printed and recorded: name plus unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, gated by BENCHMARK.json bounds (all lower-is-better).
// failed_frac is reported beside them but is usually 0, so it is gated as
// "any increase" by compare instead of by a relative bound.
const std::vector<MetricDef>& e2e_metrics();

// Per-layer metrics of the traced run, in print order.
const std::vector<MetricDef>& layer_metrics();

// Exact counts copied into each point's blocking `work` block.
const std::vector<std::string>& work_metrics();

// Child entry point (`bench_e2e --run-one W ...`); returns the exit code.
int run_child(int argc, char** argv);

// `bench_e2e compare BASE CAND`; returns the exit code.
int run_compare(int argc, char** argv);

// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method):
// {q1, median, q3}. One sample yields it three times.
std::vector<double> quartiles(std::vector<double> xs);

// (q3 - q1) / median; 0 for fewer than two samples or a zero median.
double relative_iqr(const std::vector<double>& xs);

}  // namespace jf::e2e
