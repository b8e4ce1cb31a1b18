// MCF within-solve scaling benchmark — the perf trajectory for the parallel
// Garg-Könemann solver.
//
// Solves one large single-point MCF instance (the shape that dominates
// fig02c-style capacity searches and that cell-level parallelism cannot
// touch) at several worker-budget sizes, verifies the results are
// bit-identical, and emits a schema-v1 perf record (src/obs/perfrec.h) with
// every repeat's wall time and the solver's deterministic work counters.
// Run from the repo root:
//
//   ./build/bench_mcf_scaling [--switches N] [--degree R] [--repeats K]
//                             [--git-sha SHA] [--out BENCH_mcf.json]
//
// Wall times are only as real as the machine: the record's environment
// fingerprint carries the core count and compiler identity, so a 1-core CI
// box reporting ~1x is distinguishable from a genuine scaling regression on
// a wide machine. The work counters (mcf.solves/phases/rounds/searches/
// settled) are exact on any machine — perfwatch gates on them with zero
// noise, so a search kernel that settles nodes in another order shows up as
// a moved mcf.settled.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "flow/mcf.h"
#include "obs/metrics.h"
#include "obs/perfrec.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace {

using namespace jf;

// The deterministic work block: schedule-independent counters only (never
// the *_ns timing distributions or parallel.* scheduling counters).
const std::vector<std::string> kWorkMetrics = {"mcf.solves", "mcf.phases", "mcf.rounds",
                                               "mcf.searches", "mcf.settled"};

double solve_seconds(const graph::Graph& g, const std::vector<traffic::Commodity>& cs,
                     const flow::McfOptions& opts, int threads, flow::McfResult& out) {
  obs::WallTimer timer;
  if (threads <= 1) {
    out = flow::max_concurrent_flow(g, cs, opts);
  } else {
    parallel::WorkBudget budget(threads - 1);
    out = flow::max_concurrent_flow(g, cs, opts, &budget);
  }
  return timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  int switches = 200;
  int degree = 12;
  int repeats = 3;
  std::string git_sha;
  std::string out_path = "BENCH_mcf.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bench_mcf_scaling: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--switches") {
      switches = bench::int_arg("bench_mcf_scaling", arg, value(), 1);
    } else if (arg == "--degree") {
      degree = bench::int_arg("bench_mcf_scaling", arg, value(), 1);
    } else if (arg == "--repeats") {
      repeats = bench::int_arg("bench_mcf_scaling", arg, value(), 1);
    } else if (arg == "--git-sha") {
      git_sha = value();
    } else if (arg == "--out") {
      out_path = value();
    } else {
      std::cerr << "usage: bench_mcf_scaling [--switches N] [--degree R] [--repeats K]"
                   " [--git-sha SHA] [--out FILE]\n";
      return 2;
    }
  }

  try {
    obs::set_metrics_enabled(true);
    Rng rng(1);
    auto topo = topo::build_jellyfish({.num_switches = switches,
                                       .ports_per_switch = degree + 4,
                                       .network_degree = degree},
                                      rng);
    auto tm = traffic::random_permutation(topo.num_servers(), rng);
    auto cs = traffic::to_switch_commodities(topo, tm);
    flow::McfOptions opts;

    std::cerr << "instance: " << switches << " switches, degree " << degree << ", "
              << cs.size() << " commodities, " << topo.switches().num_edges()
              << " edges\n";

    obs::PerfRecorder rec("mcf_scaling",
                          obs::current_fingerprint(bench::resolve_git_sha(git_sha)));
    rec.set_meta("switches", json::Value(switches));
    rec.set_meta("network_degree", json::Value(degree));
    rec.set_meta("commodities", json::Value(static_cast<std::int64_t>(cs.size())));
    rec.set_meta("repeats", json::Value(repeats));

    flow::McfResult reference;
    double serial_median = 0.0;
    for (int threads : {1, 2, 4, 8}) {
      json::Object params;
      params.emplace_back("threads", threads);
      obs::PerfPoint& point =
          rec.add_point("threads=" + std::to_string(threads), std::move(params));
      flow::McfResult res;
      for (int k = 0; k < repeats; ++k) {
        obs::reset_metrics();
        point.wall_seconds.push_back(solve_seconds(topo.switches(), cs, opts, threads, res));
        auto work = obs::snapshot_work(kWorkMetrics);
        if (k == 0) {
          point.work = std::move(work);
        } else if (work != point.work) {
          std::cerr << "bench_mcf_scaling: work counters drifted across repeats at "
                    << threads << " threads — determinism bug\n";
          return 1;
        }
      }
      if (threads == 1) {
        reference = res;
        serial_median = obs::derive_wall_stats(point.wall_seconds).median_seconds;
      } else if (res.lambda != reference.lambda ||
                 res.lambda_upper != reference.lambda_upper ||
                 res.phases != reference.phases) {
        std::cerr << "bench_mcf_scaling: results diverged at " << threads
                  << " threads — determinism bug\n";
        return 1;
      }
      const obs::WallStats ws = obs::derive_wall_stats(point.wall_seconds);
      const double speedup =
          ws.median_seconds > 0 ? serial_median / ws.median_seconds : 0.0;
      std::cerr << "threads " << threads << ": median " << ws.median_seconds
                << " s, min " << ws.min_seconds << " s  (speedup " << speedup
                << "x, lambda " << res.lambda << ", " << res.phases << " phases)\n";
      point.extra.emplace_back("speedup_vs_serial", speedup);
      point.extra.emplace_back("lambda", res.lambda);
      point.extra.emplace_back("lambda_upper", res.lambda_upper);
      point.extra.emplace_back("phases", res.phases);
    }

    rec.write(out_path);
    std::cerr << "wrote " << out_path << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_mcf_scaling: error: " << e.what() << "\n";
    return 1;
  }
}
