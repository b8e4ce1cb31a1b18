#include "eval/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "common/check.h"
#include "common/digest.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "eval/serialize.h"
#include "store/result_store.h"
#include "eval/topology_factory.h"
#include "expansion/cost_model.h"
#include "expansion/schedule.h"
#include "flow/bisection.h"
#include "flow/restricted.h"
#include "flow/throughput.h"
#include "layout/cabling.h"
#include "routing/diversity.h"
#include "topo/fattree.h"
#include "traffic/traffic.h"

namespace jf::eval {

namespace {

// RNG stream tags. Cells fork every stream from Rng(seed) with a tag mixed
// with the cell indices, which is what makes results independent of the
// cell-to-thread assignment.
constexpr std::uint64_t kTopoStream = 0x1000'0000ULL;
constexpr std::uint64_t kTrafficStream = 0x2000'0000ULL;
constexpr std::uint64_t kBisectionStream = 0x3000'0000ULL;
constexpr std::uint64_t kSimStream = 0x4000'0000ULL;
constexpr std::uint64_t kCapacityStream = 0x5000'0000ULL;
constexpr std::uint64_t kGrowthStream = 0x6000'0000ULL;

// Traffic for sample `k` of (seed, topo) — deliberately independent of the
// routing index so every routing scheme sees identical matrices.
Rng traffic_rng(std::uint64_t seed, int topo_idx, int k) {
  return Rng(seed).fork(kTrafficStream + static_cast<std::uint64_t>(topo_idx) * 4096 +
                        static_cast<std::uint64_t>(k));
}

// Failure robustness (Fig. 8) shared by both fluid-throughput metrics: a
// commodity whose endpoints are in different components counts as a
// zero-throughput flow — the solver runs on the reachable commodities and
// the resulting rate is scaled by their demand share — instead of zeroing
// the whole concurrent allocation. On connected topologies every commodity
// survives and the scale factor is exactly 1, so this is the identity
// there. `solve` maps the live commodity set to a lambda.
template <typename Solver>
double failure_robust_throughput(const topo::Topology& topo,
                                 const std::vector<traffic::Commodity>& commodities,
                                 const Solver& solve) {
  const auto comp = graph::connected_components(topo.switches());
  double total_demand = 0.0, reachable_demand = 0.0;
  std::vector<traffic::Commodity> live;
  live.reserve(commodities.size());
  for (const auto& c : commodities) {
    total_demand += c.demand;
    if (comp[static_cast<std::size_t>(c.src_switch)] ==
        comp[static_cast<std::size_t>(c.dst_switch)]) {
      live.push_back(c);
      reachable_demand += c.demand;
    }
  }
  if (live.empty() || total_demand <= 0.0) return 0.0;
  return std::min(1.0, solve(live)) * (reachable_demand / total_demand);
}

double fluid_throughput(const topo::Topology& topo, const traffic::TrafficMatrix& tm,
                        const flow::McfOptions& mcf, parallel::WorkBudget* budget) {
  return failure_robust_throughput(
      topo, traffic::to_switch_commodities(topo, tm),
      [&](const std::vector<traffic::Commodity>& live) {
        return flow::max_concurrent_flow(topo.switches(), live, mcf, budget).lambda;
      });
}

double routed_fluid_throughput(const topo::Topology& topo, const traffic::TrafficMatrix& tm,
                               routing::PathProvider& routes, const flow::McfOptions& mcf) {
  // The restricted solver would otherwise hard-zero the allocation on the
  // first pair the scheme cannot route.
  return failure_robust_throughput(
      topo, traffic::to_switch_commodities(topo, tm),
      [&](const std::vector<traffic::Commodity>& live) {
        return flow::restricted_max_concurrent_flow(topo.switches(), live, routes, mcf)
            .lambda;
      });
}

// One (topology[, routing], seed) work unit.
struct Cell {
  int topo = 0;
  int routing = -1;  // -1: evaluates the routing-independent metrics
  std::uint64_t seed = 0;
};

// A cell evaluates the routing-dependent metrics iff it has a routing.
bool cell_evaluates(const Cell& cell, Metric m) {
  return metric_needs_routing(m) == (cell.routing >= 0);
}

// Per-topology resources built once and shared read-only across seed cells
// when the family is deterministic (see prepare_shared).
struct SharedTopology {
  std::optional<topo::Topology> topology;
  // One fully warmed provider per routing index; null entries mean the cell
  // builds its own (no requested metric reads that scheme's paths).
  std::vector<std::unique_ptr<routing::PathProvider>> providers;
};

bool requests(const Scenario& s, Metric m) {
  return std::ranges::find(s.metrics, m) != s.metrics.end();
}

// True when some requested metric's evaluator reads `input`.
bool reads(const Scenario& s, MetricInput input) {
  return std::ranges::any_of(s.metrics,
                             [&](Metric m) { return metric_info(m).reads == input; });
}

// One packet-sim run, read by both kPacketSim and kFlowStats.
struct SimRun {
  sim::WorkloadResult res;
  sim::TelemetryDataset data;
};

// What one cell's evaluators read. Each input is built on first use and then
// shared by every metric of the cell, so a cell whose metrics are all
// spec-only never builds its topology, and two sim metrics share one run.
struct CellInputs {
  CellInputs(const Scenario& s, const Cell& cell, const SharedTopology& shared,
             parallel::WorkBudget* budget, bool collect_telemetry)
      : s(s),
        cell(cell),
        spec(s.topologies[static_cast<std::size_t>(cell.topo)]),
        budget(budget),
        sim_runs(static_cast<std::size_t>(s.samples_per_seed)),
        shared_(shared),
        // The recorder rides along when some consumer — the kFlowStats
        // metrics or an EngineOptions::telemetry collector — will read it;
        // recording is observational, so the WorkloadResult (and thus every
        // emitted sample) is byte-identical with it on or off.
        record_sim_(collect_telemetry || requests(s, Metric::kFlowStats)) {}

  const Scenario& s;
  const Cell& cell;
  const TopologySpec& spec;
  parallel::WorkBudget* budget;
  std::vector<Sample> out;
  // One slot per sample k; a slot stays empty until some metric reads it.
  std::vector<std::optional<SimRun>> sim_runs;

  // Stream `tag` of this cell's topology row.
  Rng rng(std::uint64_t tag) const {
    return Rng(cell.seed).fork(tag + static_cast<std::uint64_t>(cell.topo));
  }

  // Sample k's traffic matrix: the same for every routing scheme.
  traffic::TrafficMatrix traffic(int k) {
    Rng tr = traffic_rng(cell.seed, cell.topo, k);
    return s.traffic.sample(topology().num_servers(), tr);
  }

  // Deterministic families reuse the shared build.
  const topo::Topology& topology() {
    if (shared_.topology) return *shared_.topology;
    if (!topology_) {
      Rng topo_rng = rng(kTopoStream);
      topology_.emplace(build_topology(spec, topo_rng));
    }
    return *topology_;
  }

  // One growth plan per cell, however many expansion metrics read it;
  // bisection is scored only when some metric reads it.
  const expansion::GrowthPlan& growth() {
    if (!growth_) {
      growth_ = Engine::growth_plan(s, cell.topo, cell.seed,
                                    requests(s, Metric::kExpansionBisection), budget);
    }
    return *growth_;
  }

  routing::PathProvider& routes() {
    const auto r = static_cast<std::size_t>(cell.routing);
    if (r < shared_.providers.size() && shared_.providers[r]) return *shared_.providers[r];
    if (!routes_) routes_ = routing::make_path_provider(topology().switches(), s.routings[r]);
    return *routes_;
  }

  // The RNG forks depend only on the cell indices and k, so which metric
  // triggers the run cannot change the stream.
  const SimRun& sim_run(int k) {
    auto& slot = sim_runs[static_cast<std::size_t>(k)];
    if (!slot) {
      const auto tm = traffic(k);
      Rng sim_rng = Rng(cell.seed).fork(kSimStream +
                                        static_cast<std::uint64_t>(cell.topo) * 262144 +
                                        static_cast<std::uint64_t>(cell.routing) * 4096 +
                                        static_cast<std::uint64_t>(k));
      slot.emplace();
      // Like the MCF cells, packet-sim cells lend the batch's idle workers
      // to their own engine (the sharded event loop when s.sim.shards > 1).
      if (record_sim_) {
        sim::Telemetry rec(sim::TelemetryConfig{s.sim.telemetry_epoch_ns});
        slot->res = sim::run_workload(topology(), tm, s.sim, routes(), sim_rng, budget, &rec);
        slot->data = rec.take_dataset();
      } else {
        slot->res = sim::run_workload(topology(), tm, s.sim, routes(), sim_rng, budget);
      }
    }
    return *slot;
  }

 private:
  const SharedTopology& shared_;
  const bool record_sim_;
  std::optional<topo::Topology> topology_;
  std::optional<expansion::GrowthPlan> growth_;
  std::unique_ptr<routing::PathProvider> routes_;
};

// The one evaluator: emits metric m's samples for the cell behind `in`, each
// by its position in m's sample column (MetricInfo::samples).
void evaluate(Metric m, CellInputs& in) {
  const Scenario& s = in.s;
  const TopologySpec& spec = in.spec;
  // Emits the row of the series at position `series` in m's column, at
  // traffic sample or growth step `at` (0 for a per-cell series).
  const std::span<const SampleSeries> column = metric_info(m).samples;
  auto emit = [&](std::size_t series, double v, int at = 0) {
    ensure(series < column.size(), "evaluate: position past the metric's sample column");
    in.out.push_back({in.cell.topo, in.cell.routing, in.cell.seed, at,
                      sample_name(column[series], at), v});
  };
  switch (m) {
    case Metric::kPathStats: {
      auto stats = Engine::path_stats(in.topology());
      emit(0, stats.mean);
      emit(1, static_cast<double>(stats.diameter));
      break;
    }
    case Metric::kServerCdf: {
      auto cdf = Engine::server_path_cdf(in.topology());
      for (int len = 2; len <= 6; ++len) {
        double v = 0.0;
        for (const auto& [l, f] : cdf) {
          if (l <= len) v = f;
        }
        emit(static_cast<std::size_t>(len - 2), v);
      }
      break;
    }
    case Metric::kThroughput: {
      for (int k = 0; k < s.samples_per_seed; ++k) {
        emit(0, fluid_throughput(in.topology(), in.traffic(k), s.mcf, in.budget), k);
      }
      break;
    }
    case Metric::kBisection: {
      Rng br = in.rng(kBisectionStream);
      emit(0, Engine::bisection_bandwidth(in.topology(), br));
      break;
    }
    case Metric::kRoutedThroughput: {
      for (int k = 0; k < s.samples_per_seed; ++k) {
        emit(0, routed_fluid_throughput(in.topology(), in.traffic(k), in.routes(), s.mcf), k);
      }
      break;
    }
    case Metric::kLinkDiversity: {
      const topo::Topology& topo = in.topology();
      flow::LinkIndex links(topo.switches());
      for (int k = 0; k < s.samples_per_seed; ++k) {
        const auto tm = in.traffic(k);
        std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
        pairs.reserve(tm.flows.size());
        for (const auto& f : tm.flows) {
          pairs.emplace_back(topo.server_switch(f.src_server), topo.server_switch(f.dst_server));
        }
        auto counts = routing::link_path_counts(links, pairs, in.routes());
        auto r = routing::ranked(counts);
        double mean = 0.0;
        for (int c : r) mean += c;
        mean /= static_cast<double>(r.empty() ? 1 : r.size());
        emit(0, routing::fraction_at_or_below(counts, 2), k);
        emit(1, mean, k);
        if (!r.empty()) {
          emit(2, static_cast<double>(r[r.size() / 2]), k);
          emit(3, static_cast<double>(r[r.size() * 9 / 10]), k);
          emit(4, static_cast<double>(r.back()), k);
          for (std::size_t decile = 0; decile <= 10; ++decile) {
            const std::size_t idx = std::min(r.size() - 1, r.size() * decile / 10);
            emit(5 + decile, static_cast<double>(r[idx]), k);
          }
        }
      }
      break;
    }
    case Metric::kPacketSim: {
      for (int k = 0; k < s.samples_per_seed; ++k) {
        const sim::WorkloadResult& res = in.sim_run(k).res;
        emit(0, res.mean_flow_throughput, k);
        emit(1, res.jain_fairness, k);
        emit(2, static_cast<double>(res.packet_drops), k);
      }
      break;
    }
    case Metric::kFlowStats: {
      for (int k = 0; k < s.samples_per_seed; ++k) {
        const SimRun& run = in.sim_run(k);
        const auto fct = sim::flow_completion_seconds(run.data);
        emit(0, percentile(fct, 50.0), k);
        emit(1, percentile(fct, 99.0), k);
        // Per-flow throughput spread — the paper's Figs. 10-12 compare
        // these flow-by-flow across routings over the *same* matrices
        // (traffic_rng is routing-independent), so min/percentile gaps
        // are paired comparisons, not independent draws.
        emit(2, summarize(run.res.per_flow).min, k);
        emit(3, percentile(run.res.per_flow, 10.0), k);
        emit(4, percentile(run.res.per_flow, 50.0), k);
        emit(5, percentile(run.res.per_flow, 90.0), k);
        std::int64_t completed = 0;
        for (const auto& f : run.data.flows) completed += f.completed ? 1 : 0;
        emit(6, static_cast<double>(completed), k);
        std::vector<double> util;
        util.reserve(run.data.links.size());
        double hot_drops = 0.0;
        for (const auto& link : run.data.links) {
          util.push_back(sim::link_run_utilization(link, run.data.t_end_ns));
          std::int64_t drops = 0;
          for (const auto& e : link.epochs) drops += e.drops;
          hot_drops = std::max(hot_drops, static_cast<double>(drops));
        }
        emit(7, summarize(util).mean, k);
        emit(8, percentile(util, 99.0), k);
        emit(9, summarize(util).max, k);
        emit(10, hot_drops, k);
      }
      break;
    }
    case Metric::kCabling: {
      const topo::Topology& topo = in.topology();
      auto placement = layout::place(topo, s.cabling_placement);
      auto stats = layout::analyze_cabling(topo, placement, expansion::CostModel{});
      emit(0, static_cast<double>(stats.switch_cables));
      emit(1, static_cast<double>(stats.server_cables));
      emit(2, stats.total_length_m);
      emit(3, stats.mean_switch_cable_m);
      emit(4, stats.optical_fraction);
      emit(5, static_cast<double>(stats.bundles));
      emit(6, stats.material_cost);
      break;
    }
    case Metric::kMinPorts: {
      std::size_t ports = 0;
      if (spec.family == "fattree") {
        check(spec.fattree_k >= 2, "kMinPorts: fattree needs fattree_k >= 2");
        const int servers =
            spec.servers > 0 ? spec.servers : topo::fattree_servers(spec.fattree_k);
        ports = flow::fattree_min_ports_full_bisection(servers, {&spec.fattree_k, 1});
      } else if (spec.family == "jellyfish") {
        check(spec.servers > 0 && spec.ports > 0,
              "kMinPorts: jellyfish needs servers and ports");
        ports = flow::jellyfish_min_ports_full_bisection(spec.servers, spec.ports);
      } else {
        check(false, "kMinPorts: only jellyfish and fattree families are supported");
      }
      emit(0, static_cast<double>(ports));
      break;
    }
    case Metric::kCapacity: {
      if (spec.family == "fattree") {
        check(spec.fattree_k >= 2, "kCapacity: fattree needs fattree_k >= 2");
        emit(0, static_cast<double>(topo::fattree_servers(spec.fattree_k)));
      } else if (spec.family == "jellyfish") {
        check(spec.switches >= 2 && spec.ports >= 1,
              "kCapacity: jellyfish needs switches and ports");
        Rng cr = in.rng(kCapacityStream);
        emit(0, static_cast<double>(flow::max_servers_at_full_capacity(
                    spec.switches, spec.ports, cr, s.capacity, in.budget)));
      } else {
        check(false, "kCapacity: only jellyfish and fattree families are supported");
      }
      break;
    }
    // The expansion metrics report one growth plan per cell: per-step
    // sub-results (step 0 = initial build), plus a headline value for the
    // whole schedule.
    case Metric::kExpansionCost: {
      const expansion::GrowthPlan& plan = in.growth();
      for (const auto& r : plan.steps) {
        emit(0, r.cumulative_cost, r.step);
        emit(1, static_cast<double>(r.switches), r.step);
        emit(2, static_cast<double>(r.servers), r.step);
      }
      emit(3, plan.steps.back().cumulative_cost);
      break;
    }
    case Metric::kRewiredCables: {
      const expansion::GrowthPlan& plan = in.growth();
      double rewired = 0.0, touched = 0.0;
      for (const auto& r : plan.steps) {
        emit(0, static_cast<double>(r.cables_rewired), r.step);
        emit(1, static_cast<double>(r.cables_touched), r.step);
        rewired += r.cables_rewired;
        touched += r.cables_touched;
      }
      emit(2, rewired);
      emit(3, touched);
      break;
    }
    case Metric::kExpansionBisection: {
      const expansion::GrowthPlan& plan = in.growth();
      for (const auto& r : plan.steps) emit(0, r.normalized_bisection, r.step);
      emit(1, plan.steps.back().normalized_bisection);
      break;
    }
  }
}

std::vector<Sample> run_cell(const Scenario& s, const Cell& cell,
                             const SharedTopology& shared, parallel::WorkBudget* budget,
                             std::vector<CellTelemetry>* telem) {
  CellInputs in(s, cell, shared, budget, telem != nullptr);
  for (Metric m : s.metrics) {
    if (!cell_evaluates(cell, m)) continue;
    const std::size_t first = in.out.size();
    evaluate(m, in);
    for (std::size_t i = first; i < in.out.size(); ++i) {
      ensure(metric_emits(m, in.out[i].metric, in.out[i].sample, s, cell.topo),
             "run_cell: emitted a row outside its metric's sample column");
    }
  }
  // Hand the full datasets to the batch collector, in ascending sample
  // order. Runs land here already finalized; untriggered samples (possible
  // only if neither sim metric was requested) stay absent.
  if (telem != nullptr) {
    for (int k = 0; k < s.samples_per_seed; ++k) {
      auto& slot = in.sim_runs[static_cast<std::size_t>(k)];
      if (!slot) continue;
      telem->push_back({cell.topo, cell.routing, cell.seed, k, std::move(slot->data)});
    }
  }
  return std::move(in.out);
}

// Per-scenario state for one batch entry: canonical cells, shared read-only
// resources, and per-cell result slots.
struct PreparedScenario {
  const Scenario* s = nullptr;
  std::vector<Cell> cells;
  std::vector<SharedTopology> shared;
  // Switch pairs each shared provider must be warmed with (indexed by
  // topology); alive until warming finished.
  std::vector<std::vector<std::pair<graph::NodeId, graph::NodeId>>> query_pairs;
  std::vector<std::pair<int, int>> warm_jobs;  // (topology, routing)
  std::vector<std::vector<Sample>> results;
  // Per-cell telemetry slots (parallel to `results`; filled only when the
  // batch has a collector), concatenated in canonical cell order on return.
  std::vector<std::vector<CellTelemetry>> cell_telemetry;
  int cells_left = 0;   // guarded by the batch completion mutex
  bool done = false;    // report assembled + ready to emit
};

// True when no element of `v` repeats.
template <typename T>
bool distinct(std::vector<T> v) {
  std::ranges::sort(v);
  return std::ranges::adjacent_find(v) == v.end();
}

}  // namespace

// Scenario errors reach users through jf_eval, so they name the scenario's
// fields and never a source location.
void validate_scenario(const Scenario& s) {
  auto fail = [](const std::string& msg) { throw std::invalid_argument(msg); };
  if (s.topologies.empty()) fail("scenario needs >= 1 topology");
  if (s.seeds.empty()) fail("scenario needs >= 1 seed");
  if (s.samples_per_seed < 1) fail("samples_per_seed must be >= 1");
  if (s.metrics.empty()) fail("scenario needs >= 1 metric");
  // A repeat would count its samples twice in every aggregate.
  if (!distinct(s.metrics)) fail("a metric is listed twice");
  if (!distinct(s.seeds)) fail("a seed is listed twice");
  flow::check_mcf_options(s.mcf);
  const auto routed_metric = std::ranges::find_if(s.metrics, metric_needs_routing);
  if (routed_metric != s.metrics.end() && s.routings.empty()) {
    fail(std::string(metric_info(*routed_metric).name) + " needs >= 1 routing spec");
  }
  const bool has_expansion_metrics = reads(s, MetricInput::kGrowth);
  const bool builds = std::ranges::any_of(s.metrics, metric_needs_build);
  const auto sim_metric = std::ranges::find_if(
      s.metrics, [](Metric m) { return metric_info(m).reads == MetricInput::kSim; });
  for (std::size_t t = 0; t < s.topologies.size(); ++t) {
    const TopologySpec& spec = s.topologies[t];
    // A row the cells build must be one its family's factory accepts.
    if (builds) {
      try {
        check_topology_spec(spec);
      } catch (const std::invalid_argument& e) {
        fail("scenario.topologies[" + std::to_string(t) + "]: " + e.what());
      }
    }
    // The packet simulator requires a route for every flow; a failure
    // fraction that disconnects a pair would abort the batch mid-run, so
    // refuse the combination up front (fluid metrics degrade gracefully).
    if (sim_metric != s.metrics.end() && spec.fail_links > 0.0) {
      fail(std::string(metric_info(*sim_metric).name) +
           " does not support fail_links (topology '" + spec.display() +
           "'); use the fluid throughput metrics");
    }
    if (!has_expansion_metrics) continue;
    // Dry-run the schedule under this row's policy override so a bad
    // combination — possibly introduced by a swept growth field — fails
    // here instead of aborting the batch from a worker thread.
    try {
      expansion::resolve_growth_steps(row_schedule(s.growth, spec.growth_policy));
    } catch (const std::invalid_argument& e) {
      fail("topology '" + spec.display() + "': " + e.what());
    }
  }
}

namespace {

// Canonical cell order: per topology, the routing-free cell block first,
// then one block per routing scheme; seeds vary fastest.
std::vector<Cell> build_cells(const Scenario& s) {
  const bool has_topo_metrics = !std::ranges::all_of(s.metrics, metric_needs_routing);
  const bool has_routing_metrics = std::ranges::any_of(s.metrics, metric_needs_routing);
  std::vector<Cell> cells;
  for (int t = 0; t < static_cast<int>(s.topologies.size()); ++t) {
    if (has_topo_metrics) {
      for (std::uint64_t seed : s.seeds) cells.push_back({t, -1, seed});
    }
    if (has_routing_metrics) {
      for (int r = 0; r < static_cast<int>(s.routings.size()); ++r) {
        for (std::uint64_t seed : s.seeds) cells.push_back({t, r, seed});
      }
    }
  }
  return cells;
}

// Deterministic families (fattree): build the topology once and enumerate
// each routing scheme's paths once, instead of per seed (a warmed provider
// is safe to share; see PathProvider). Fills shared/query_pairs/warm_jobs;
// the warming itself (PathProvider::warm, on the batch's borrowed workers)
// is the caller's job, once per batch.
void prepare_shared(PreparedScenario& p) {
  const Scenario& s = *p.s;
  p.shared.resize(s.topologies.size());
  p.query_pairs.resize(s.topologies.size());
  const bool any_build = std::ranges::any_of(s.metrics, metric_needs_build);
  if (s.seeds.size() <= 1 || !any_build) return;

  const bool has_routing_metrics = std::ranges::any_of(s.metrics, metric_needs_routing);
  const bool wants_path_metrics = reads(s, MetricInput::kPaths);
  const bool wants_sim = reads(s, MetricInput::kSim);

  for (int t = 0; t < static_cast<int>(s.topologies.size()); ++t) {
    const auto& spec = s.topologies[static_cast<std::size_t>(t)];
    if (!topology_family_deterministic(spec.family)) continue;
    // Random link failures make even deterministic builds per-seed random.
    if (spec.fail_links > 0.0) continue;
    // The factory ignores its Rng for deterministic families, so any seed
    // yields the per-cell build.
    Rng rng = Rng(s.seeds.front()).fork(kTopoStream + static_cast<std::uint64_t>(t));
    auto& st = p.shared[static_cast<std::size_t>(t)];
    st.topology.emplace(build_topology(spec, rng));
    if (!has_routing_metrics) continue;
    // Construction is cheap (caches fill lazily); keep only providers
    // whose cache some requested metric will actually read —
    // routed-throughput/diversity always read paths(), packet sim only
    // through providers that route via enumerated paths (KSP, not ECMP).
    st.providers.resize(s.routings.size());
    for (int r = 0; r < static_cast<int>(s.routings.size()); ++r) {
      auto provider = routing::make_path_provider(
          st.topology->switches(), s.routings[static_cast<std::size_t>(r)]);
      if (!wants_path_metrics && !(wants_sim && provider->routes_via_paths())) continue;
      st.providers[static_cast<std::size_t>(r)] = std::move(provider);
    }
  }
  // The exact switch pairs this scenario's cells will query: every path
  // consumer (restricted MCF commodities, diversity accounting, packet-sim
  // routing) derives its endpoints from the deterministic per-(seed,
  // sample) traffic matrices, so warming their union makes the shared
  // cache read-only afterwards. Warming this union — rather than all n^2
  // pairs — bounds the warm cost by what unshared cells would have
  // computed anyway, while pairs repeated across seeds/samples (always,
  // for all-to-all and hotspot traffic) are enumerated once. A metric
  // that queried paths outside the traffic-derived pair set would need to
  // extend this collection before sharing could stay safe.
  for (int t = 0; t < static_cast<int>(s.topologies.size()); ++t) {
    auto& st = p.shared[static_cast<std::size_t>(t)];
    const bool any_provider =
        std::any_of(st.providers.begin(), st.providers.end(),
                    [](const auto& pr) { return pr != nullptr; });
    if (!any_provider) continue;
    std::set<std::uint64_t> seen;
    for (std::uint64_t seed : s.seeds) {
      for (int k = 0; k < s.samples_per_seed; ++k) {
        Rng tr = traffic_rng(seed, t, k);
        auto tm = s.traffic.sample(st.topology->num_servers(), tr);
        for (const auto& f : tm.flows) {
          const graph::NodeId a = st.topology->server_switch(f.src_server);
          const graph::NodeId b = st.topology->server_switch(f.dst_server);
          const std::uint64_t key =
              (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
              static_cast<std::uint32_t>(b);
          if (seen.insert(key).second) {
            p.query_pairs[static_cast<std::size_t>(t)].emplace_back(a, b);
          }
        }
      }
    }
  }
  for (int t = 0; t < static_cast<int>(s.topologies.size()); ++t) {
    const auto& st = p.shared[static_cast<std::size_t>(t)];
    for (int r = 0; r < static_cast<int>(st.providers.size()); ++r) {
      if (st.providers[static_cast<std::size_t>(r)]) p.warm_jobs.emplace_back(t, r);
    }
  }
}

// Everything a cell's samples can depend on: the spec slice run_cell reads
// (this cell's topology and routing specs, traffic, metrics, solver/sim
// options, the growth schedule) plus the topology/routing indices and the
// seed — the cell's RNG streams are derived from exactly those. Two cells
// with equal keys therefore produce byte-identical samples, which is what
// licenses cross-point memoization. Serialized through the canonical
// scenario writer so every config field participates.
std::string cell_key(const Scenario& s, const Cell& cell) {
  Scenario slice;
  slice.name.clear();
  slice.topologies = {s.topologies[static_cast<std::size_t>(cell.topo)]};
  if (cell.routing >= 0) slice.routings = {s.routings[static_cast<std::size_t>(cell.routing)]};
  slice.traffic = s.traffic;
  slice.metrics = s.metrics;
  slice.seeds = {cell.seed};
  slice.samples_per_seed = s.samples_per_seed;
  slice.mcf = s.mcf;
  slice.sim = s.sim;
  slice.capacity = s.capacity;
  slice.cabling_placement = s.cabling_placement;
  slice.growth = s.growth;
  return scenario_to_json(slice).dump() + "|" + std::to_string(cell.topo) + "," +
         std::to_string(cell.routing) + "," + std::to_string(cell.seed);
}

// --- persistent store glue ---
//
// The store maps sha256(schema version + full cell key) to a JSON payload
// {"schema", "key", "samples"}. The digest mixes in kReportSchemaVersion so
// a format/semantics bump makes every old entry unreachable (it ages out
// via LRU), and loads verify the echoed schema and full key anyway — a
// digest collision or a corrupt/foreign blob degrades to a miss and a
// recompute, never to spliced-in wrong samples.

std::string cell_digest(const std::string& key) {
  return common::sha256_hex("jf-cell/v" + std::to_string(kReportSchemaVersion) + "\n" + key);
}

std::string cell_payload(const std::string& key, const std::vector<Sample>& samples) {
  json::Object o;
  o.emplace_back("schema", kReportSchemaVersion);
  o.emplace_back("key", key);
  o.emplace_back("samples", samples_to_json(samples));
  return json::Value(std::move(o)).dump();
}

std::optional<std::vector<Sample>> load_cached_cell(store::ResultStore& store,
                                                    const std::string& key, const Scenario& s,
                                                    const Cell& cell) {
  const std::string digest = cell_digest(key);
  auto bytes = store.get(digest);
  if (!bytes) return std::nullopt;
  // Every row must name this cell: a payload with the right key whose row
  // names another topology would make Report::aggregates() throw at render,
  // and one naming another seed would be averaged in silently. It must also
  // be a row some metric this cell evaluates can emit, or a foreign name or
  // sample index would reach the aggregates. The ids and the index are
  // compared as stored, before samples_from_json narrows them to int.
  auto cell_emits = [&](const json::Value& row_v) {
    const json::Array& row = row_v.as_array();
    if (row.size() < 5 || row[0].as_int() != cell.topo || row[1].as_int() != cell.routing ||
        row[2].as_uint() != cell.seed) {
      return false;
    }
    const std::int64_t index = row[3].as_int();
    const std::string& name = row[4].as_string();
    return index >= 0 && index <= std::numeric_limits<int>::max() &&
           std::ranges::any_of(s.metrics, [&](Metric m) {
             return cell_evaluates(cell, m) &&
                    metric_emits(m, name, static_cast<int>(index), s, cell.topo);
           });
  };
  try {
    const json::Value v = json::Value::parse(*bytes);
    const json::Value* schema = v.find("schema");
    const json::Value* stored_key = v.find("key");
    const json::Value* samples = v.find("samples");
    if (schema != nullptr && schema->as_int() == kReportSchemaVersion &&
        stored_key != nullptr && stored_key->as_string() == key && samples != nullptr &&
        std::ranges::all_of(samples->as_array(), cell_emits)) {
      return samples_from_json(*samples);
    }
  } catch (const std::exception&) {
  }
  // Torn, truncated, stale-schema, colliding or foreign-row entry: drop it
  // and let the caller recompute (which re-puts a good entry).
  store.erase(digest);
  return std::nullopt;
}

Report assemble_report(const Scenario& s, std::vector<std::vector<Sample>>& results) {
  Report report;
  report.scenario = s.name;
  // Duplicate display labels (e.g. the same family listed twice without
  // explicit labels) get a "#i" suffix so aggregate rows stay
  // distinguishable. Generated suffixes also dodge explicit labels (e.g.
  // user topologies ["a", "a", "a#2"] become ["a", "a#3", "a#2"]).
  std::set<std::string> original_labels;
  for (const auto& t : s.topologies) original_labels.insert(t.display());
  std::map<std::string, int> label_uses;
  std::set<std::string> assigned;
  for (const auto& t : s.topologies) {
    const std::string base = t.display();
    int n = ++label_uses[base];
    std::string label = n == 1 ? base : base + "#" + std::to_string(n);
    while (assigned.contains(label) ||
           (label != base && original_labels.contains(label))) {
      label = base + "#" + std::to_string(++n);
    }
    assigned.insert(label);
    report.topology_labels.push_back(label);
  }
  for (const auto& r : s.routings) report.routing_labels.push_back(r.label());
  for (auto& cell_samples : results) {
    for (auto& sample : cell_samples) report.samples.push_back(std::move(sample));
  }
  return report;
}

}  // namespace

Report Engine::run(const Scenario& s) const {
  return std::move(run_batch({&s, 1}).front());
}

std::vector<Report> Engine::run_batch(
    std::span<const Scenario> scenarios,
    const std::function<void(std::size_t, Report&)>& on_done) const {
  // Batch telemetry (all purely observational — see obs/metrics.h; counts
  // mirror BatchStats so metrics dumps are self-contained).
  static obs::Counter& obs_batches = obs::counter("engine.batches");
  static obs::Counter& obs_cells = obs::counter("engine.cells");
  static obs::Counter& obs_solved = obs::counter("engine.cells_solved");
  static obs::Counter& obs_memo_hits = obs::counter("engine.cell_memo_hits");
  static obs::Counter& obs_store_hits = obs::counter("engine.cell_store_hits");
  static obs::Distribution& obs_warm_ns = obs::distribution("engine.phase_warm_ns");
  static obs::Distribution& obs_cells_ns = obs::distribution("engine.phase_cells_ns");
  static obs::Distribution& obs_queue_wait_ns =
      obs::distribution("engine.cell_queue_wait_ns");
  static obs::Distribution& obs_solve_ns = obs::distribution("engine.cell_solve_ns");
  static obs::Distribution& obs_store_load_ns = obs::distribution("engine.store_load_ns");
  static obs::Distribution& obs_store_save_ns = obs::distribution("engine.store_save_ns");
  obs_batches.increment();
  obs::Span batch_span("engine.run_batch", "engine");
  batch_span.arg("scenarios", static_cast<std::int64_t>(scenarios.size()));

  // Validate everything up front so a malformed later scenario cannot abort
  // a batch that already spent hours on earlier ones.
  for (const Scenario& s : scenarios) validate_scenario(s);
  // A store hit skips the simulation that produces the telemetry dataset,
  // and stored samples carry no telemetry to splice — refuse the
  // combination instead of returning a silently incomplete collection.
  check(!(opts_.store != nullptr && opts_.telemetry != nullptr),
        "Engine::run_batch: telemetry collection is incompatible with the result store");

  std::vector<PreparedScenario> runs(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    auto& p = runs[i];
    p.s = &scenarios[i];
    p.cells = build_cells(*p.s);
    p.results.resize(p.cells.size());
    p.cell_telemetry.resize(p.cells.size());
    p.cells_left = static_cast<int>(p.cells.size());
    prepare_shared(p);
  }

  // One budget for the whole batch: the calling thread is free, so a global
  // --threads of T leaves T - 1 borrowable slots. Cell-level workers hold a
  // slot each while they run; a cell's MCF solves borrow whatever is left.
  parallel::WorkBudget budget(parallel::resolve_threads(opts_.threads) - 1);
  obs::gauge("parallel.budget_total_slots").set(budget.total());

  // Phase 1 — warm shared providers, one job after another, each spreading
  // its pairs over every worker the budget holds (one big job, the shared
  // fat-tree KSP cache, dominates; per-pair slots balance it far better
  // than one worker per job would).
  {
    obs::ScopedTimer warm_timer(obs_warm_ns);
    obs::Span warm_span("engine.warm_providers", "engine");
    std::int64_t jobs = 0;
    for (auto& p : runs) {
      for (const auto& [t, r] : p.warm_jobs) {
        auto& st = p.shared[static_cast<std::size_t>(t)];
        st.providers[static_cast<std::size_t>(r)]->warm(
            p.query_pairs[static_cast<std::size_t>(t)], &budget);
        ++jobs;
      }
    }
    warm_span.arg("jobs", jobs);
  }

  // Phase 2 — every cell of every scenario on one dynamic queue. The queue
  // order (scenario-major) only biases which work starts first; results land
  // in per-cell slots, so assembly is order-blind. Completed scenarios are
  // assembled immediately and emitted strictly in index order.
  //
  // Cross-point memoization: cells whose full config key matches an earlier
  // cell (byte-identical spec slice + indices + seed — see cell_key) do not
  // enter the queue; the leader cell splices its samples into their slots
  // when it finishes. Sweeps with a fixed reference row collapse that row
  // to one evaluation. The leader's key is also its store key.
  struct CellRef {
    std::size_t run;
    int cell;
  };
  std::vector<CellRef> queue;
  std::vector<std::vector<CellRef>> followers;  // duplicates of queue[i]'s key
  std::vector<std::string> keys;                // queue[i]'s cell key
  {
    std::map<std::string, std::size_t> leader_of;  // key -> queue index
    for (std::size_t i = 0; i < runs.size(); ++i) {
      for (int c = 0; c < static_cast<int>(runs[i].cells.size()); ++c) {
        std::string key = cell_key(*runs[i].s, runs[i].cells[static_cast<std::size_t>(c)]);
        auto [it, inserted] = leader_of.try_emplace(std::move(key), queue.size());
        if (inserted) {
          queue.push_back({i, c});
          followers.emplace_back();
          keys.push_back(it->first);
        } else {
          followers[it->second].push_back({i, c});
        }
      }
    }
  }

  std::vector<Report> reports(scenarios.size());
  std::atomic<int> solved_count{0};
  std::atomic<int> store_hit_count{0};
  std::mutex done_mu;  // guards cells_left/done/next_emit and serializes on_done
  std::size_t next_emit = 0;
  const bool obs_on = obs::metrics_enabled();
  const std::int64_t phase_cells_t0 = obs_on ? obs::monotonic_ns() : 0;
  parallel::parallel_for(static_cast<int>(queue.size()), &budget, [&](int i) {
    // Queue wait: how long this cell sat behind earlier queue entries
    // before a worker picked it up (offset from the phase start).
    if (obs_on) obs_queue_wait_ns.record(obs::monotonic_ns() - phase_cells_t0);
    const CellRef ref = queue[static_cast<std::size_t>(i)];
    auto& p = runs[ref.run];
    const Cell& cell = p.cells[static_cast<std::size_t>(ref.cell)];
    auto& slot = p.results[static_cast<std::size_t>(ref.cell)];
    auto* telem_slot = opts_.telemetry != nullptr
                           ? &p.cell_telemetry[static_cast<std::size_t>(ref.cell)]
                           : nullptr;
    obs::Span cell_span("engine.cell", "engine");
    cell_span.arg("topo", cell.topo);
    cell_span.arg("routing", cell.routing);
    // A leader cell is a verified store hit or one solve (then one put).
    // A hit splices exactly like the duplicates below — same slot, same
    // bytes — because stored samples round-trip bit-exactly through the
    // JSON shortest-round-trip number format.
    const std::string& key = keys[static_cast<std::size_t>(i)];
    std::optional<std::vector<Sample>> cached;
    if (opts_.store != nullptr) {
      obs::ScopedTimer load_timer(obs_store_load_ns);
      cached = load_cached_cell(*opts_.store, key, *p.s, cell);
    }
    if (cached) {
      slot = std::move(*cached);
      store_hit_count.fetch_add(1, std::memory_order_relaxed);
    } else {
      {
        obs::ScopedTimer solve_timer(obs_solve_ns);
        slot = run_cell(*p.s, cell, p.shared[static_cast<std::size_t>(cell.topo)], &budget,
                        telem_slot);
      }
      solved_count.fetch_add(1, std::memory_order_relaxed);
      if (opts_.store != nullptr) {
        obs::ScopedTimer save_timer(obs_store_save_ns);
        opts_.store->put(cell_digest(key), cell_payload(key, slot));
      }
    }
    // Splice into every duplicate cell's slot. No lock needed: each
    // follower slot is written exactly once, by this leader, before any
    // counter below can reach zero. Key equality implies identical cell
    // indices and seed, so the leader's telemetry applies verbatim.
    for (const CellRef& f : followers[static_cast<std::size_t>(i)]) {
      runs[f.run].results[static_cast<std::size_t>(f.cell)] =
          p.results[static_cast<std::size_t>(ref.cell)];
      if (opts_.telemetry != nullptr) {
        runs[f.run].cell_telemetry[static_cast<std::size_t>(f.cell)] =
            p.cell_telemetry[static_cast<std::size_t>(ref.cell)];
      }
    }

    std::unique_lock<std::mutex> lock(done_mu);
    std::vector<std::size_t> finished;
    auto account = [&](std::size_t run) {
      if (--runs[run].cells_left == 0) finished.push_back(run);
    };
    account(ref.run);
    for (const CellRef& f : followers[static_cast<std::size_t>(i)]) account(f.run);
    if (finished.empty()) return;
    // Assemble outside the lock: only a scenario's last cell reaches this
    // point, so the assembly itself is single-threaded, and other workers
    // should not queue behind an O(samples) merge just to decrement their
    // counters.
    lock.unlock();
    for (std::size_t run : finished) {
      reports[run] = assemble_report(*runs[run].s, runs[run].results);
    }
    lock.lock();
    for (std::size_t run : finished) runs[run].done = true;
    while (next_emit < runs.size() && runs[next_emit].done) {
      if (on_done) on_done(next_emit, reports[next_emit]);
      ++next_emit;
    }
  });
  if (obs_on) obs_cells_ns.record(obs::monotonic_ns() - phase_cells_t0);
  // Assemble the telemetry collection in canonical cell order — the same
  // order the Report's samples use — so the dump is byte-identical at any
  // thread count.
  if (opts_.telemetry != nullptr) {
    opts_.telemetry->assign(scenarios.size(), ScenarioTelemetry{});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      auto& dest = (*opts_.telemetry)[i].cells;
      for (auto& per_cell : runs[i].cell_telemetry) {
        for (auto& c : per_cell) dest.push_back(std::move(c));
      }
    }
  }
  // Persist the store's index eagerly: the entries themselves are already
  // durable (atomic per-cell writes), this just saves their LRU order.
  if (opts_.store != nullptr) opts_.store->flush();
  BatchStats st;
  for (const auto& p : runs) st.cells += static_cast<int>(p.cells.size());
  st.solved = solved_count.load();
  st.store_hits = store_hit_count.load();
  st.memo_hits = st.cells - static_cast<int>(queue.size());
  obs_cells.add(st.cells);
  obs_solved.add(st.solved);
  obs_memo_hits.add(st.memo_hits);
  obs_store_hits.add(st.store_hits);
  batch_span.arg("cells", st.cells);
  if (opts_.stats != nullptr) *opts_.stats = st;
  return reports;
}

expansion::GrowthPlan Engine::growth_plan(const Scenario& s, int topo_idx, std::uint64_t seed,
                                          bool score_bisection, parallel::WorkBudget* budget) {
  check(topo_idx >= 0 && topo_idx < static_cast<int>(s.topologies.size()),
        "Engine::growth_plan: topology index out of range");
  const TopologySpec& spec = s.topologies[static_cast<std::size_t>(topo_idx)];
  Rng rng = Rng(seed).fork(kGrowthStream + static_cast<std::uint64_t>(topo_idx));
  expansion::GrowthPlanOptions opts;
  opts.score_bisection = score_bisection;
  opts.budget = budget;
  return expansion::plan_growth(row_schedule(s.growth, spec.growth_policy),
                                expansion::CostModel{}, rng, opts);
}

graph::PathLengthStats Engine::path_stats(const topo::Topology& t) {
  return graph::path_length_stats(t.switches());
}

double Engine::bisection_bandwidth(const topo::Topology& t, Rng& rng) {
  // Uniform network degree: use the analytic RRG bound; otherwise fall back
  // to the KL heuristic cut.
  const auto& g = t.switches();
  bool uniform = true;
  const int r0 = g.num_nodes() > 0 ? g.degree(0) : 0;
  for (topo::NodeId v = 1; v < g.num_nodes(); ++v) {
    if (g.degree(v) != r0) {
      uniform = false;
      break;
    }
  }
  if (uniform && g.num_nodes() >= 2 && t.num_servers() > 0) {
    return flow::rrg_normalized_bisection(g.num_nodes(), r0, t.num_servers());
  }
  return flow::estimated_normalized_bisection(t, rng, /*restarts=*/5);
}

std::map<int, double> Engine::server_path_cdf(const topo::Topology& t) {
  std::map<int, double> hist;  // server path length -> weighted pair count
  double total = 0.0;
  for (topo::NodeId s = 0; s < t.num_switches(); ++s) {
    if (t.servers_at(s) == 0) continue;
    auto dist = graph::bfs_distances(t.switches(), s);
    for (topo::NodeId v = 0; v < t.num_switches(); ++v) {
      if (dist[v] == graph::kUnreachable) continue;
      double pairs = static_cast<double>(t.servers_at(s)) * t.servers_at(v);
      if (s == v) pairs = static_cast<double>(t.servers_at(s)) * (t.servers_at(s) - 1);
      if (pairs <= 0) continue;
      hist[dist[v] + 2] += pairs;  // +2 for the two server-ToR hops
      total += pairs;
    }
  }
  std::map<int, double> cdf;
  double cum = 0.0;
  for (const auto& [len, cnt] : hist) {
    cum += cnt;
    cdf[len] = cum / total;
  }
  return cdf;
}

}  // namespace jf::eval
