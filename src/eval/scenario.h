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
#include <span>
#include <string>
#include <string_view>
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
  kPathStats,
  kServerCdf,
  kThroughput,
  kBisection,
  kRoutedThroughput,
  kLinkDiversity,
  kPacketSim,
  kFlowStats,
  kCabling,
  kMinPorts,
  kCapacity,
  kExpansionCost,
  kRewiredCables,
  kExpansionBisection,
};

// What a metric's evaluator reads, which fixes the cells it runs in and the
// shared state the engine prepares for it. Ordered by how much of a cell it
// needs: the first two never build the cell's topology, the last two run
// once per routing scheme.
enum class MetricInput : std::uint8_t {
  kSpec,      // the TopologySpec alone (design-space metrics)
  kGrowth,    // Scenario::growth, which grows its own network
  kTopology,  // the built topology
  kPaths,     // the routing scheme's path sets
  kSim,       // a packet-sim run routed by the scheme
};

// How a sample series sets the Sample::sample index of the rows it emits.
enum class SampleIndex : std::uint8_t {
  kCell,     // one row per cell, index 0
  kTraffic,  // one row per traffic sample k, index k < samples_per_seed
  kStep,     // one row per growth step, named by sample_name, index = step
};

// One named series of sample rows a metric emits.
struct SampleSeries {
  std::string_view name;
  SampleIndex index;
};

// One row of the metric table.
struct MetricInfo {
  Metric metric;
  std::string_view name;         // in scenario files and jf_eval list
  std::string_view description;  // one line for jf_eval list
  MetricInput reads;
  // Every series the evaluator emits, in emission order within one index:
  // the only place a sample name is spelled.
  std::span<const SampleSeries> samples;
};

// Every metric, one row each, in enum order.
std::span<const MetricInfo> metric_table();

inline const MetricInfo& metric_info(Metric m) {
  return metric_table()[static_cast<std::size_t>(m)];
}

// True for metrics evaluated once per (topology, routing, seed) cell; false
// for metrics evaluated once per (topology, seed) regardless of routing.
inline bool metric_needs_routing(Metric m) {
  return metric_info(m).reads >= MetricInput::kPaths;
}

// False for metrics that never read the cell's built topology.
inline bool metric_needs_build(Metric m) {
  return metric_info(m).reads >= MetricInput::kTopology;
}

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
  // override — with per-step sub-results recorded in the Report (named by
  // sample_name). Costs use the default expansion::CostModel.
  expansion::GrowthSchedule growth;
};

// Scenario::growth as a topology row with this growth_policy plans it: a
// non-empty policy replaces the schedule's own. The loader dry-runs it
// through resolve_growth_steps for every row, validate_scenario whenever
// expansion metrics read it, and Engine::growth_plan plans it.
expansion::GrowthSchedule row_schedule(const expansion::GrowthSchedule& growth,
                                       const std::string& policy);

// The Sample::metric name of `series`' row at `index`: "<name>_s<index>" for
// a per-step series, the series name otherwise.
std::string sample_name(const SampleSeries& series, int index);

// Claims select rows by name alone: metric_emits at this index ignores it.
inline constexpr int kAnyIndex = -1;

// Can metric m emit the sample row (name, index) in a cell of topology row
// `topo` of scenario s? A per-traffic-sample series takes the indices below
// s.samples_per_seed and a per-step series the steps of the row's growth
// schedule (0 = the initial build). At kAnyIndex only the name is checked,
// and s and topo are not read.
bool metric_emits(Metric m, std::string_view name, int index, const Scenario& s, int topo);

}  // namespace jf::eval
