// One workload run in a fresh process (`bench_e2e --run-one W ...`).
//
// The timed path is exactly what `jf_eval run` does, through public library
// calls: load_sweep_file -> seed rebasing -> ResultStore open -> run_sweep ->
// sweep_report_to_json().dump(). A traced run adds obs metrics and spans,
// then probes: direct, timed calls into the layers that have no internal
// counters yet, over the workload's own cells. The metrics snapshot is taken
// before the probes, so the metrics dump describes the engine run alone;
// the trace holds both.
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/digest.h"
#include "common/fs.h"
#include "common/json.h"
#include "e2e.h"
#include "eval/engine.h"
#include "eval/serialize.h"
#include "eval/topology_factory.h"
#include "flow/restricted.h"
#include "obs/metrics.h"
#include "obs/perfrec.h"
#include "obs/trace.h"
#include "store/result_store.h"
#include "traffic/traffic.h"

namespace jf::e2e {

namespace {

// A hung run must not hold the benchmark past its time limit: SIGALRM's
// default action ends the child, and the parent counts a failed run.
constexpr unsigned kChildTimeoutSeconds = 150;

// Rng streams of the probes' own draws (topology builds, traffic samples).
constexpr std::uint64_t kProbeTopoStream = 101;
constexpr std::uint64_t kProbeTrafficStream = 202;

struct Setup {
  eval::SweepSpec spec;
  std::unique_ptr<store::ResultStore> store;
};

Setup set_up(const Workload& w, std::uint64_t seed, const std::string& store_dir) {
  obs::Span span("bench.setup", "bench");
  Setup s;
  {
    obs::Span load("bench.load", "bench");
    s.spec = load_workload(w, seed);
  }
  if (!store_dir.empty()) {
    obs::Span open("bench.store_open", "bench");
    s.store = std::make_unique<store::ResultStore>(store_dir);
  }
  return s;
}

bool has_metric(const eval::Scenario& s, eval::Metric m) {
  return std::find(s.metrics.begin(), s.metrics.end(), m) != s.metrics.end();
}

bool any_metric(const eval::Scenario& s, bool (*pred)(eval::Metric)) {
  return std::any_of(s.metrics.begin(), s.metrics.end(), pred);
}

bool is_growth_metric(eval::Metric m) {
  return m == eval::Metric::kExpansionCost || m == eval::Metric::kRewiredCables ||
         m == eval::Metric::kExpansionBisection;
}

bool builds_topology(eval::Metric m) {
  return eval::metric_needs_routing(m) || eval::metric_needs_build(m);
}

// Growth planning with and without KL bisection scoring, per (topology, seed)
// cell. The engine lends its idle worker to the scoring; the probe runs it
// serially, so bisection_s is an upper bound on the engine's share.
void probe_growth(const eval::Scenario& s, int t) {
  {
    obs::Span span("bench.probe.growth_plan", "bench");
    for (std::uint64_t seed : s.seeds) eval::Engine::growth_plan(s, t, seed, false);
  }
  obs::Span span("bench.probe.growth_scored", "bench");
  for (std::uint64_t seed : s.seeds) eval::Engine::growth_plan(s, t, seed, true);
}

// Routing: a fresh provider per (topology, routing, seed) cell, asked for the
// paths of every pair of the cell's permutation samples. Restricted MCF then
// runs over the warmed providers, so its time excludes path enumeration.
void probe_routes(const eval::Scenario& s, const std::vector<topo::Topology>& built) {
  std::vector<std::vector<traffic::TrafficMatrix>> tms(built.size());
  for (std::size_t i = 0; i < built.size(); ++i) {
    for (int k = 0; k < s.samples_per_seed; ++k) {
      Rng rng = Rng(s.seeds[i]).fork(kProbeTrafficStream + static_cast<std::uint64_t>(k));
      tms[i].push_back(s.traffic.sample(built[i].num_servers(), rng));
    }
  }
  for (const routing::RoutingSpec& r : s.routings) {
    std::vector<std::unique_ptr<routing::PathProvider>> providers;
    {
      obs::Span span("bench.probe.routing", "bench");
      std::int64_t pairs = 0;
      std::int64_t paths = 0;
      for (std::size_t i = 0; i < built.size(); ++i) {
        providers.push_back(routing::make_path_provider(built[i].switches(), r));
        for (const traffic::TrafficMatrix& tm : tms[i]) {
          for (const traffic::Flow& f : tm.flows) {
            paths += static_cast<std::int64_t>(
                providers.back()
                    ->paths(built[i].server_switch(f.src_server),
                            built[i].server_switch(f.dst_server))
                    .size());
            ++pairs;
          }
        }
      }
      span.arg("pairs", pairs);
      span.arg("paths", paths);
    }
    if (!has_metric(s, eval::Metric::kRoutedThroughput)) continue;
    obs::Span span("bench.probe.restricted", "bench");
    for (std::size_t i = 0; i < built.size(); ++i) {
      for (const traffic::TrafficMatrix& tm : tms[i]) {
        const auto commodities = traffic::to_switch_commodities(built[i], tm);
        flow::restricted_max_concurrent_flow(built[i].switches(), commodities, *providers[i],
                                             s.mcf);
      }
    }
  }
}

// Probes over every cell of every sweep point, one span per (point,
// topology, layer) so the trace stays small even for sweeps of thousands of
// cells.
void run_probes(const eval::SweepSpec& spec) {
  for (const eval::SweepPoint& point : eval::expand_sweep(spec)) {
    const eval::Scenario& s = point.scenario;
    for (int t = 0; t < static_cast<int>(s.topologies.size()); ++t) {
      if (any_metric(s, is_growth_metric)) probe_growth(s, t);
      if (!any_metric(s, builds_topology)) continue;
      std::vector<topo::Topology> built;
      {
        obs::Span span("bench.probe.topo", "bench");
        for (std::uint64_t seed : s.seeds) {
          Rng rng = Rng(seed).fork(kProbeTopoStream + static_cast<std::uint64_t>(t));
          built.push_back(eval::build_topology(s.topologies[static_cast<std::size_t>(t)], rng));
        }
        span.arg("builds", static_cast<std::int64_t>(built.size()));
      }
      if (has_metric(s, eval::Metric::kPathStats)) {
        obs::Span span("bench.probe.path_stats", "bench");
        for (const topo::Topology& topo : built) eval::Engine::path_stats(topo);
      }
      if (any_metric(s, eval::metric_needs_routing)) probe_routes(s, built);
    }
  }
}

// Totals of a Chrome trace by span name: seconds, and each integer arg as
// "<span>.<arg>".
struct SpanTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, double> args;

  explicit SpanTotals(const json::Value& trace) {
    for (const json::Value& ev : trace.find("traceEvents")->as_array()) {
      const std::string& name = ev.find("name")->as_string();
      seconds[name] += ev.find("dur")->as_number() / 1e6;
      if (const json::Value* a = ev.find("args")) {
        for (const auto& [key, v] : a->as_object()) args[name + "." + key] += v.as_number();
      }
    }
  }
  double secs(const std::string& name) const {
    auto it = seconds.find(name);
    return it == seconds.end() ? 0.0 : it->second;
  }
  double arg(const std::string& key) const {
    auto it = args.find(key);
    return it == args.end() ? 0.0 : it->second;
  }
};

// Reads counters and distribution sums from a metrics_to_json dump; absent
// names (a layer that never ran) read as 0.
struct MetricsDump {
  const json::Value& v;

  double counter(const char* name) const {
    const json::Value* c = v.find("counters")->find(name);
    return c != nullptr ? c->as_number() : 0.0;
  }
  double dist_seconds(const char* name) const {
    const json::Value* d = v.find("distributions")->find(name);
    return d != nullptr ? d->find("sum")->as_number() / 1e9 : 0.0;
  }
  double dist_mean_seconds(const char* name) const {
    const json::Value* d = v.find("distributions")->find(name);
    return d != nullptr ? d->find("mean")->as_number() / 1e9 : 0.0;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Every per-layer metric (except trace_overhead_pct, which needs the
// untraced runs) plus the work-only eval.store_hits, derived from the two
// dumps the traced run writes.
json::Object derive_layers(const json::Value& trace, const json::Value& metrics) {
  const SpanTotals spans(trace);
  const MetricsDump m{metrics};
  const double warm = m.dist_seconds("engine.phase_warm_ns");
  const double cells = m.dist_seconds("engine.phase_cells_ns");
  const double busy = m.counter("parallel.team_busy_ns") / 1e9;
  const double idle = m.counter("parallel.team_idle_ns") / 1e9;
  const double hits = m.counter("store.hits");
  const double misses = m.counter("store.misses");
  const double plan = spans.secs("bench.probe.growth_plan");
  json::Object o;
  o.emplace_back("eval.load_s", spans.secs("bench.load"));
  o.emplace_back("eval.pre_cells_s", spans.secs("bench.run") - warm - cells);
  o.emplace_back("eval.warm_s", warm);
  o.emplace_back("eval.cell_solve_s", m.dist_seconds("engine.cell_solve_ns"));
  // Each cell records its start offset into the cell phase; their sum grows
  // with the square of the cell count, so the mean is the comparable value.
  o.emplace_back("eval.queue_wait_s", m.dist_mean_seconds("engine.cell_queue_wait_ns"));
  o.emplace_back("eval.render_s", spans.secs("bench.render"));
  o.emplace_back("eval.cells", m.counter("engine.cells"));
  o.emplace_back("eval.cells_solved", m.counter("engine.cells_solved"));
  o.emplace_back("eval.memo_hits", m.counter("engine.cell_memo_hits"));
  o.emplace_back("eval.store_hits", m.counter("engine.cell_store_hits"));
  o.emplace_back("eval.report_bytes", spans.arg("bench.render.bytes"));
  o.emplace_back("flow.mcf_solves", m.counter("mcf.solves"));
  o.emplace_back("flow.mcf_phases", m.counter("mcf.phases"));
  o.emplace_back("flow.mcf_rounds", m.counter("mcf.rounds"));
  o.emplace_back("flow.mcf_sweep_s", m.dist_seconds("mcf.sweep_ns"));
  o.emplace_back("flow.mcf_apply_s", m.dist_seconds("mcf.apply_ns"));
  o.emplace_back("flow.restricted_s", spans.secs("bench.probe.restricted"));
  o.emplace_back("routing.warm_s", spans.secs("bench.probe.routing"));
  o.emplace_back("routing.pairs", spans.arg("bench.probe.routing.pairs"));
  o.emplace_back("routing.paths", spans.arg("bench.probe.routing.paths"));
  o.emplace_back("sim.run_s", spans.secs("sim.workload"));
  o.emplace_back("sim.runs", m.counter("sim.runs"));
  o.emplace_back("sim.rounds", m.counter("sim.rounds"));
  o.emplace_back("sim.events", m.counter("sim.events"));
  o.emplace_back("sim.handoffs", m.counter("sim.handoffs"));
  o.emplace_back("sim.events_per_round", ratio(m.counter("sim.events"), m.counter("sim.rounds")));
  o.emplace_back("sim.barrier_wait_s", m.dist_seconds("sim.barrier_wait_ns"));
  o.emplace_back("expansion.plan_s", plan);
  o.emplace_back("expansion.bisection_s", spans.secs("bench.probe.growth_scored") - plan);
  o.emplace_back("topo.build_s", spans.secs("bench.probe.topo"));
  o.emplace_back("topo.builds", spans.arg("bench.probe.topo.builds"));
  o.emplace_back("graph.path_stats_s", spans.secs("bench.probe.path_stats"));
  o.emplace_back("store.open_s", spans.secs("bench.store_open"));
  o.emplace_back("store.hits", hits);
  o.emplace_back("store.misses", misses);
  o.emplace_back("store.puts", m.counter("store.puts"));
  o.emplace_back("store.hit_ratio", ratio(hits, hits + misses));
  o.emplace_back("store.get_s", m.dist_seconds("store.get_ns"));
  o.emplace_back("store.put_s", m.dist_seconds("store.put_ns"));
  o.emplace_back("store.bytes_read", m.counter("store.bytes_read"));
  o.emplace_back("store.bytes_written", m.counter("store.bytes_written"));
  o.emplace_back("common.team_busy_s", busy);
  o.emplace_back("common.team_idle_s", idle);
  o.emplace_back("common.worker_util", ratio(busy, busy + idle));
  o.emplace_back("common.budget_granted", m.counter("parallel.budget_granted_slots"));
  o.emplace_back("common.budget_denied", m.counter("parallel.budget_denied"));
  return o;
}

// SHA-256 over every point's samples, in point order. The samples are what
// the engine computed; the rest of a report echoes the spec or is derived
// from the samples, so sim_serial and sim_sharded share this digest although
// their echoed `sim.shards` differ.
std::string result_digest(const eval::SweepReport& report) {
  std::string bytes;
  for (const eval::SweepPointResult& p : report.points) {
    bytes += eval::samples_to_json(p.report.samples).dump();
    bytes += '\n';
  }
  return common::sha256_hex(bytes);
}

// This process's peak resident set in MB (VmHWM). Not wait4's ru_maxrss:
// the kernel folds the forked parent's image into that at exec, so it can
// never read below the orchestrator's own footprint.
double peak_rss_mb() {
  const std::string status = common::read_file("/proc/self/status");
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string::npos) throw std::runtime_error("no VmHWM in /proc/self/status");
  return std::stod(status.substr(at + 6)) / 1024.0;  // kB
}

}  // namespace

int run_child(int argc, char** argv) {
  alarm(kChildTimeoutSeconds);
  std::string name, result_path, store_dir, trace_dir;
  std::uint64_t seed = 1;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--run-one") {
      name = value;
    } else if (arg == "--seed") {
      seed = std::stoull(value);
    } else if (arg == "--result") {
      result_path = value;
    } else if (arg == "--store") {
      store_dir = value;
    } else if (arg == "--trace-dir") {
      trace_dir = value;
    } else {
      throw std::invalid_argument("unknown child option '" + arg + "'");
    }
  }
  const Workload& w = find_workload(name);
  const bool traced = !trace_dir.empty();
  obs::set_metrics_enabled(traced);
  obs::set_trace_enabled(traced);

  // One cold set-up, as `jf_eval run` pays it in every fresh process; the
  // orchestrator takes the median over the run's processes. Warm repeats in
  // one process would hide first-touch costs and are no steadier: on a shared
  // host the per-process level, not the in-process repeat, is what varies.
  obs::WallTimer setup_timer;
  const Setup setup = set_up(w, seed, store_dir);
  const double setup_s = setup_timer.seconds();

  eval::EngineOptions opts;
  opts.threads = kThreads;
  opts.store = setup.store.get();
  obs::WallTimer timer;
  eval::SweepReport report;
  {
    obs::Span span("bench.run", "bench");
    report = eval::run_sweep(setup.spec, opts);
  }
  std::string rendered;
  {
    obs::Span span("bench.render", "bench");
    rendered = eval::sweep_report_to_json(report).dump();
    span.arg("bytes", static_cast<std::int64_t>(rendered.size()));
  }
  const double run_s = timer.seconds();

  // Built from a list: emplace_back's realloc path draws a gcc 12
  // -Warray-bounds misfire here (GCC PR 105329).
  json::Object result = {
      {"setup_s", json::Value(setup_s)},
      {"run_s", json::Value(run_s)},
      {"peak_rss_mb", json::Value(peak_rss_mb())},
      {"report_sha256", json::Value(common::sha256_hex(rendered))},
      {"result_sha256", json::Value(result_digest(report))},
  };
  if (traced) {
    const json::Value metrics = obs::metrics_to_json(obs::collect_metrics());
    {
      obs::Span span("bench.probes", "bench");
      run_probes(setup.spec);
    }
    const json::Value trace = obs::trace_to_json();
    const std::filesystem::path dir(trace_dir);
    common::write_file_atomic(dir / (std::string(w.name) + ".trace.json"), trace.dump() + "\n");
    common::write_file_atomic(dir / (std::string(w.name) + ".metrics.json"),
                              metrics.dump(2) + "\n");
    result.emplace_back("layers", json::Value(derive_layers(trace, metrics)));
  }
  common::write_file_atomic(result_path, json::Value(std::move(result)).dump() + "\n");
  return 0;
}

}  // namespace jf::e2e
