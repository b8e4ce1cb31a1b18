#include "eval/scenario.h"

#include "common/check.h"

namespace jf::eval {

traffic::TrafficMatrix TrafficSpec::sample(int num_servers, Rng& rng) const {
  switch (kind) {
    case Kind::kPermutation:
      return traffic::random_permutation(num_servers, rng, demand);
    case Kind::kAllToAll:
      return traffic::all_to_all(num_servers, demand, /*normalize=*/true);
    case Kind::kHotspot:
      return traffic::hotspot(num_servers, num_hot, fan_in, rng, demand);
  }
  check(false, "TrafficSpec::sample: unknown traffic kind");
  return {};
}

namespace {

using In = MetricInput;

constexpr MetricInfo kMetricRows[] = {
    {Metric::kPathStats, "path_stats",
     "mean inter-switch path length and diameter (routing-free)", In::kTopology},
    {Metric::kServerCdf, "server_cdf",
     "server-pair path-length CDF, server_cdf_le{2..6} (Fig. 1c)", In::kTopology},
    {Metric::kThroughput, "throughput",
     "fluid MCF throughput under optimal routing (failure-robust)", In::kTopology},
    {Metric::kBisection, "bisection",
     "normalized bisection bandwidth (analytic RRG bound or KL cut)", In::kTopology},
    {Metric::kRoutedThroughput, "routed_throughput",
     "fluid MCF restricted to the routing scheme's path sets", In::kPaths},
    {Metric::kLinkDiversity, "link_diversity", "paths-per-link distribution, div_* (Fig. 9)",
     In::kPaths},
    {Metric::kPacketSim, "packet_sim", "packet-level sim_goodput/sim_fairness/sim_drops",
     In::kSim},
    {Metric::kFlowStats, "flow_stats",
     "per-flow telemetry: fct_p50/p99, flow_tput_*, link_util_* (Figs. 10-12)", In::kSim},
    {Metric::kCabling, "cabling", "cable counts, lengths, and material cost via layout (§6)",
     In::kTopology},
    {Metric::kMinPorts, "min_ports", "min total ports at full bisection, spec-only (Fig. 2b)",
     In::kSpec},
    {Metric::kCapacity, "capacity",
     "max servers at full capacity via binary search (Fig. 2c)", In::kSpec},
    {Metric::kExpansionCost, "expansion_cost",
     "growth schedule: cumulative cost/switches/servers per step (Fig. 7)", In::kGrowth},
    {Metric::kRewiredCables, "rewired_cables",
     "growth schedule: cables moved and touched per step (§6)", In::kGrowth},
    {Metric::kExpansionBisection, "expansion_bisection",
     "growth schedule: normalized bisection after every step (Fig. 7)", In::kGrowth},
};

constexpr bool rows_in_enum_order() {
  if (std::size(kMetricRows) != static_cast<std::size_t>(Metric::kExpansionBisection) + 1) {
    return false;
  }
  for (std::size_t i = 0; i < std::size(kMetricRows); ++i) {
    if (kMetricRows[i].metric != static_cast<Metric>(i)) return false;
  }
  return true;
}
static_assert(rows_in_enum_order(), "metric_info indexes the table by enum value");

}  // namespace

std::span<const MetricInfo> metric_table() { return kMetricRows; }

expansion::GrowthSchedule row_schedule(const expansion::GrowthSchedule& growth,
                                       const std::string& policy) {
  expansion::GrowthSchedule g = growth;
  if (!policy.empty()) g.policy = policy;
  return g;
}

}  // namespace jf::eval
