#include "eval/scenario.h"

#include <charconv>

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
using Idx = SampleIndex;

constexpr SampleSeries kPathStatsSamples[] = {{"mean_path", Idx::kCell},
                                              {"diameter", Idx::kCell}};
constexpr SampleSeries kServerCdfSamples[] = {
    {"server_cdf_le2", Idx::kCell}, {"server_cdf_le3", Idx::kCell},
    {"server_cdf_le4", Idx::kCell}, {"server_cdf_le5", Idx::kCell},
    {"server_cdf_le6", Idx::kCell}};
constexpr SampleSeries kThroughputSamples[] = {{"throughput", Idx::kTraffic}};
constexpr SampleSeries kBisectionSamples[] = {{"bisection", Idx::kCell}};
constexpr SampleSeries kRoutedThroughputSamples[] = {{"routed_throughput", Idx::kTraffic}};
// The div_rank_p* series sample the ranked paths-per-link curve at deciles
// (Fig. 9's x-axis is link rank).
constexpr SampleSeries kLinkDiversitySamples[] = {
    {"div_frac_le2", Idx::kTraffic}, {"div_mean", Idx::kTraffic},
    {"div_p50", Idx::kTraffic},      {"div_p90", Idx::kTraffic},
    {"div_max", Idx::kTraffic},      {"div_rank_p0", Idx::kTraffic},
    {"div_rank_p10", Idx::kTraffic}, {"div_rank_p20", Idx::kTraffic},
    {"div_rank_p30", Idx::kTraffic}, {"div_rank_p40", Idx::kTraffic},
    {"div_rank_p50", Idx::kTraffic}, {"div_rank_p60", Idx::kTraffic},
    {"div_rank_p70", Idx::kTraffic}, {"div_rank_p80", Idx::kTraffic},
    {"div_rank_p90", Idx::kTraffic}, {"div_rank_p100", Idx::kTraffic}};
constexpr SampleSeries kPacketSimSamples[] = {{"sim_goodput", Idx::kTraffic},
                                              {"sim_fairness", Idx::kTraffic},
                                              {"sim_drops", Idx::kTraffic}};
constexpr SampleSeries kFlowStatsSamples[] = {
    {"fct_p50", Idx::kTraffic},        {"fct_p99", Idx::kTraffic},
    {"flow_tput_min", Idx::kTraffic},  {"flow_tput_p10", Idx::kTraffic},
    {"flow_tput_p50", Idx::kTraffic},  {"flow_tput_p90", Idx::kTraffic},
    {"flows_completed", Idx::kTraffic}, {"link_util_mean", Idx::kTraffic},
    {"link_util_p99", Idx::kTraffic},  {"link_util_max", Idx::kTraffic},
    {"hot_link_drops", Idx::kTraffic}};
constexpr SampleSeries kCablingSamples[] = {
    {"cable_switch_count", Idx::kCell},  {"cable_server_count", Idx::kCell},
    {"cable_total_m", Idx::kCell},       {"cable_mean_switch_m", Idx::kCell},
    {"cable_optical_frac", Idx::kCell},  {"cable_bundles", Idx::kCell},
    {"cable_cost", Idx::kCell}};
constexpr SampleSeries kMinPortsSamples[] = {{"min_ports", Idx::kCell}};
constexpr SampleSeries kCapacitySamples[] = {{"max_servers", Idx::kCell}};
// The growth metrics emit their per-step series first, then an unsuffixed
// headline value for the whole schedule.
constexpr SampleSeries kExpansionCostSamples[] = {
    {"expansion_cost", Idx::kStep},
    {"expansion_switches", Idx::kStep},
    {"expansion_servers", Idx::kStep},
    {"expansion_cost", Idx::kCell}};
constexpr SampleSeries kRewiredCablesSamples[] = {{"rewired_cables", Idx::kStep},
                                                  {"cables_touched", Idx::kStep},
                                                  {"rewired_cables", Idx::kCell},
                                                  {"cables_touched", Idx::kCell}};
constexpr SampleSeries kExpansionBisectionSamples[] = {{"expansion_bisection", Idx::kStep},
                                                       {"expansion_bisection", Idx::kCell}};

constexpr MetricInfo kMetricRows[] = {
    {Metric::kPathStats, "path_stats",
     "mean inter-switch path length and diameter (routing-free)", In::kTopology,
     kPathStatsSamples},
    {Metric::kServerCdf, "server_cdf", "server-pair path-length CDF (Fig. 1c)", In::kTopology,
     kServerCdfSamples},
    {Metric::kThroughput, "throughput",
     "fluid MCF throughput under optimal routing (failure-robust)", In::kTopology,
     kThroughputSamples},
    {Metric::kBisection, "bisection",
     "normalized bisection bandwidth (analytic RRG bound or KL cut)", In::kTopology,
     kBisectionSamples},
    {Metric::kRoutedThroughput, "routed_throughput",
     "fluid MCF restricted to the routing scheme's path sets", In::kPaths,
     kRoutedThroughputSamples},
    {Metric::kLinkDiversity, "link_diversity", "paths-per-link distribution (Fig. 9)",
     In::kPaths, kLinkDiversitySamples},
    {Metric::kPacketSim, "packet_sim", "packet-level goodput, fairness and drops", In::kSim,
     kPacketSimSamples},
    {Metric::kFlowStats, "flow_stats",
     "per-flow telemetry: completion times, throughput spread, link load (Figs. 10-12)",
     In::kSim, kFlowStatsSamples},
    {Metric::kCabling, "cabling", "cable counts, lengths, and material cost via layout (§6)",
     In::kTopology, kCablingSamples},
    {Metric::kMinPorts, "min_ports", "min total ports at full bisection, spec-only (Fig. 2b)",
     In::kSpec, kMinPortsSamples},
    {Metric::kCapacity, "capacity",
     "max servers at full capacity via binary search (Fig. 2c)", In::kSpec, kCapacitySamples},
    {Metric::kExpansionCost, "expansion_cost",
     "growth schedule: cumulative cost/switches/servers per step (Fig. 7)", In::kGrowth,
     kExpansionCostSamples},
    {Metric::kRewiredCables, "rewired_cables",
     "growth schedule: cables moved and touched per step (§6)", In::kGrowth,
     kRewiredCablesSamples},
    {Metric::kExpansionBisection, "expansion_bisection",
     "growth schedule: normalized bisection after every step (Fig. 7)", In::kGrowth,
     kExpansionBisectionSamples},
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

std::string sample_name(const SampleSeries& series, int index) {
  std::string name(series.name);
  if (series.index == SampleIndex::kStep) name += "_s" + std::to_string(index);
  return name;
}

bool metric_emits(Metric m, std::string_view name, int index, const Scenario& s, int topo) {
  for (const SampleSeries& series : metric_info(m).samples) {
    if (series.index != SampleIndex::kStep) {
      if (name != series.name) continue;
      if (index == kAnyIndex) return true;
      if (series.index == SampleIndex::kCell ? index == 0
                                             : index >= 0 && index < s.samples_per_seed) {
        return true;
      }
      continue;
    }
    // A per-step name ends in its step number; sample_name must rebuild it
    // exactly, which also refuses leading zeros and signs.
    const std::size_t digits = name.find_last_not_of("0123456789") + 1;
    int step = 0;
    const auto [end, ec] = std::from_chars(name.data() + digits, name.data() + name.size(), step);
    if (digits == name.size() || ec != std::errc() || end != name.data() + name.size() ||
        name != sample_name(series, step)) {
      continue;
    }
    if (index == kAnyIndex) return true;
    const auto& spec = s.topologies[static_cast<std::size_t>(topo)];
    const auto steps = expansion::resolve_growth_steps(row_schedule(s.growth, spec.growth_policy));
    if (index == step && step <= static_cast<int>(steps.size())) return true;
  }
  return false;
}

expansion::GrowthSchedule row_schedule(const expansion::GrowthSchedule& growth,
                                       const std::string& policy) {
  expansion::GrowthSchedule g = growth;
  if (!policy.empty()) g.policy = policy;
  return g;
}

}  // namespace jf::eval
