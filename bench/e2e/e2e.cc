#include "e2e.h"

#include <algorithm>
#include <stdexcept>

#include "eval/serialize.h"

namespace jf::e2e {

const std::vector<Workload>& workloads() {
  // Digests change only when a change alters computed results; update them
  // from the failure message together with the change that does.
  static const std::vector<Workload> kWorkloads = {
      {"fluid_mcf", false,
       "fda03c3e79803284d66a50692864c614ae67bb9c882cc05d157ec6289a537d5f"},
      {"ksp_routed", false,
       "a7c1262ee6c4281cc4984a65424cce173620cfbab32e0fdfa3039c81e5e1a312"},
      {"sim_serial", false,
       "924d4bef8c1d83bf23d0ebf4adcb2cb5bb906c0dc08cc97ffbdc38fbd93b9ab1"},
      {"sim_sharded", false,
       "924d4bef8c1d83bf23d0ebf4adcb2cb5bb906c0dc08cc97ffbdc38fbd93b9ab1"},
      {"growth_bisection", false,
       "da33f6c54ee59de5b2cd69f0123f216688145449f86c559ac75fdc5bb4459547"},
      {"sweep_resume", true,
       "3b59f830e529f0f9d9e380a71e91464b7dd021a4fa9fcdbb0b09755f1d4f14cb"},
  };
  return kWorkloads;
}

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

eval::SweepSpec load_workload(const Workload& w, std::uint64_t seed) {
  eval::SweepSpec spec =
      eval::load_sweep_file(std::string(JF_E2E_DIR "/workloads/") + w.name + ".json");
  std::vector<std::uint64_t>& seeds = spec.base.seeds;
  const std::uint64_t first = seeds.front();
  for (std::uint64_t& s : seeds) s = seed + (s - first);
  return spec;
}

const std::vector<MetricDef>& e2e_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"run_s", "s"},
      {"cpu_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"eval.load_s", "s"},
      {"eval.pre_cells_s", "s"},
      {"eval.warm_s", "s"},
      {"eval.cell_solve_s", "s"},
      {"eval.queue_wait_s", "s"},
      {"eval.render_s", "s"},
      {"eval.cells", "count"},
      {"eval.cells_solved", "count"},
      {"eval.memo_hits", "count"},
      {"eval.report_bytes", "B"},
      {"flow.mcf_solves", "count"},
      {"flow.mcf_phases", "count"},
      {"flow.mcf_rounds", "count"},
      {"flow.mcf_sweep_s", "s"},
      {"flow.mcf_apply_s", "s"},
      {"flow.restricted_s", "s"},
      {"routing.warm_s", "s"},
      {"routing.pairs", "count"},
      {"routing.paths", "count"},
      {"sim.run_s", "s"},
      {"sim.runs", "count"},
      {"sim.rounds", "count"},
      {"sim.events", "count"},
      {"sim.handoffs", "count"},
      {"sim.events_per_round", "events/round"},
      {"sim.barrier_wait_s", "s"},
      {"expansion.plan_s", "s"},
      {"expansion.bisection_s", "s"},
      {"topo.build_s", "s"},
      {"topo.builds", "count"},
      {"graph.path_stats_s", "s"},
      {"store.open_s", "s"},
      {"store.hits", "count"},
      {"store.misses", "count"},
      {"store.puts", "count"},
      {"store.hit_ratio", "ratio"},
      {"store.get_s", "s"},
      {"store.put_s", "s"},
      {"store.bytes_read", "B"},
      {"store.bytes_written", "B"},
      {"common.team_busy_s", "s"},
      {"common.team_idle_s", "s"},
      {"common.worker_util", "ratio"},
      {"common.budget_granted", "count"},
      {"common.budget_denied", "count"},
      {"trace_overhead_pct", "%"},
  };
  return kMetrics;
}

const std::vector<std::string>& work_metrics() {
  static const std::vector<std::string> kWork = {
      "eval.cells",   "eval.cells_solved", "eval.store_hits", "flow.mcf_phases",
      "flow.mcf_rounds", "sim.events",     "sim.rounds",      "sim.handoffs",
      "store.puts",   "topo.builds",       "routing.paths",   "eval.report_bytes",
  };
  return kWork;
}

std::vector<double> quartiles(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const int n = static_cast<int>(xs.size());
  if (n == 0) return {0.0, 0.0, 0.0};
  if (n == 1) return {xs[0], xs[0], xs[0]};
  const int m = n + 1;
  std::vector<double> q;
  for (int i = 1; i < 4; ++i) {
    const int j = std::clamp(i * m / 4, 1, n - 1);
    const int delta = i * m - j * 4;
    q.push_back((xs[static_cast<std::size_t>(j - 1)] * (4 - delta) +
                 xs[static_cast<std::size_t>(j)] * delta) /
                4.0);
  }
  return q;
}

double relative_iqr(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const std::vector<double> q = quartiles(xs);
  return q[1] != 0.0 ? (q[2] - q[0]) / q[1] : 0.0;
}

}  // namespace jf::e2e
