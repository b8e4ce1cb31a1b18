// Declarative experiment descriptions for the jf::eval engine.
//
// Every figure in the paper is one experiment shape: build topologies, pick
// routing schemes, sample traffic, evaluate metrics over many seeds. A
// Scenario captures that shape as data; Engine::run executes it (in
// parallel across seeds) and returns a Report. Example — Figure 9 / Table 1
// territory in one call:
//
//   jf::eval::Scenario s;
//   s.name = "jellyfish vs fat-tree";
//   s.topologies = {{.family = "fattree", .fattree_k = 8},
//                   {.family = "jellyfish", .switches = 80, .ports = 8,
//                    .servers = 128}};
//   s.routings = {{"ecmp", 8}, {"ksp", 8}};
//   s.metrics = {Metric::kPathStats, Metric::kThroughput,
//                Metric::kRoutedThroughput};
//   s.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
//   auto report = jf::eval::Engine().run(s);
//   report.to_table().print(std::cout);
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expansion/schedule.h"
#include "flow/mcf.h"
#include "flow/throughput.h"
#include "layout/placement.h"
#include "routing/path_provider.h"
#include "sim/workload.h"
#include "traffic/traffic.h"

namespace jf::eval {

// Topology family reference resolved by build_topology
// (eval/topology_factory.h). Each family reads the fields it needs and
// ignores the rest; unused fields may stay zero.
struct TopologySpec {
  std::string family = "jellyfish";  // one of topology_families()
  std::string label;                 // report row label; family if empty

  // jellyfish: switches x ports hosting `servers` total (evenly spread).
  int switches = 0;
  int ports = 0;
  int servers = 0;

  // fattree: the k parameter (sets switches/ports/servers itself).
  int fattree_k = 0;

  // swdc-*: total network degree and servers per switch (plus switches/ports
  // above; the switch count snaps to the nearest lattice-feasible size).
  int degree = 6;
  int servers_per_switch = 0;

  // twolayer: container structure and the local-link fraction (plus ports
  // and servers_per_switch above).
  int containers = 0;
  int switches_per_container = 0;
  int network_degree = 0;
  double local_fraction = 0.5;

  // jellyfish-incr: built at `grow_from` switches, then incrementally
  // expanded (§4.2) in batches of `grow_step` up to `switches` (plus ports
  // and network_degree above; servers per switch = ports - network_degree).
  int grow_from = 0;
  int grow_step = 1;

  // Fraction of switch-switch links removed uniformly at random after the
  // build (failure resilience, Fig. 8). Applies to every family; a nonzero
  // value makes even deterministic families per-seed random.
  double fail_links = 0.0;

  // Expansion metrics only: overrides Scenario::growth.policy for this row,
  // so one scenario can compare "jellyfish" and "clos" growth side by side.
  // Empty uses the schedule's policy.
  std::string growth_policy;

  const std::string& display() const { return label.empty() ? family : label; }
};

// Traffic model applied per (topology, seed, sample).
struct TrafficSpec {
  enum class Kind {
    kPermutation,  // the paper's standard: random server derangement
    kAllToAll,
    kHotspot,
  };
  Kind kind = Kind::kPermutation;
  double demand = 1.0;
  int num_hot = 0;  // hotspot only
  int fan_in = 0;   // hotspot only

  traffic::TrafficMatrix sample(int num_servers, Rng& rng) const;
};

enum class Metric {
  kPathStats,         // mean_path, diameter — switch-level, routing-free
  kServerCdf,         // server_cdf_le{2..6}: server-pair path-length CDF
  kThroughput,        // fluid MCF under optimal routing
  kBisection,         // normalized bisection bandwidth
  kRoutedThroughput,  // fluid MCF restricted to the scheme's path sets
  kLinkDiversity,     // div_frac_le2, div_mean, div_p50, div_p90, div_max
  kPacketSim,         // sim_goodput, sim_fairness, sim_drops
  kFlowStats,         // per-flow telemetry: fct_p50/p99, flow_tput_*, link_util_*
  kCabling,           // §6 cable counts/lengths/costs via layout/cabling
  kMinPorts,          // Fig. 2(b): min total ports at full bisection (analytic)
  kCapacity,          // Fig. 2(c): max servers at full capacity (search)
  kExpansionCost,     // §6/Fig. 7: cumulative cost + size per growth step
  kRewiredCables,     // §6/Fig. 7: cables moved/touched per growth step
  kExpansionBisection,  // §6/Fig. 7: normalized bisection per growth step
};

// True for metrics evaluated once per (topology, routing, seed) cell; false
// for metrics evaluated once per (topology, seed) regardless of routing.
bool metric_needs_routing(Metric m);

// False for design-space metrics (kMinPorts, kCapacity) computed from the
// TopologySpec alone; cells skip building the topology when every requested
// routing-free metric is spec-only.
bool metric_needs_build(Metric m);

// Metric enum -> stable name prefix used in Sample::metric.
std::string metric_name(Metric m);

// One-line human description (jf_eval list, docs).
std::string metric_description(Metric m);

// Inverse of metric_name; throws std::invalid_argument for unknown names.
Metric metric_from_name(const std::string& name);

// Every Metric, in enum order (for CLIs and serialization).
const std::vector<Metric>& all_metrics();

struct Scenario {
  std::string name = "scenario";

  std::vector<TopologySpec> topologies;
  // Routing schemes compared by routing-dependent metrics. May be empty when
  // only routing-free metrics are requested.
  std::vector<routing::RoutingSpec> routings;
  TrafficSpec traffic;
  std::vector<Metric> metrics = {Metric::kPathStats, Metric::kThroughput};
  // One topology build + evaluation per seed; the batch runner spreads seeds
  // (and topologies/routings) across worker threads.
  std::vector<std::uint64_t> seeds = {1};
  // Traffic matrices evaluated per seed for traffic-driven metrics.
  int samples_per_seed = 1;

  flow::McfOptions mcf;
  // Transport/timing settings for kPacketSim. The routing field inside is
  // ignored: each cell routes through its own RoutingSpec's provider.
  sim::WorkloadConfig sim;
  // Binary-search settings for kCapacity (jellyfish rows only; fat-tree rows
  // are analytic).
  flow::CapacitySearchOptions capacity;
  // Physical placement model for kCabling rows (§6.2 switch cluster is the
  // paper's recommendation; kToRInRack is the naive baseline).
  layout::PlacementStyle cabling_placement = layout::PlacementStyle::kCentralCluster;
  // Expansion schedule evaluated by the kExpansion* metrics. Those metrics
  // grow their own network from the schedule's initial build — the
  // TopologySpec rows contribute only a label and an optional growth_policy
  // override — with per-step sub-results recorded in the Report (metric
  // names suffixed "_s<step>"). Costs use the default expansion::CostModel.
  expansion::GrowthSchedule growth;
};

}  // namespace jf::eval
