// eval/sweep: axis expansion (cartesian, zipped, filtered), label
// auto-suffixing, run_sweep determinism at any thread count, the shared
// PathCache fast path for deterministic topology families, and paper claims
// checked against hand-built reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "eval/serialize.h"
#include "eval/sweep.h"
#include "eval/topology_factory.h"

namespace jf {
namespace {

eval::SweepSpec two_axis_spec() {
  eval::SweepSpec spec;
  spec.base.name = "grid";
  spec.base.topologies = {
      {.family = "jellyfish", .switches = 12, .ports = 5, .servers = 12}};
  spec.base.routings = {{"ksp", 4}};
  spec.base.metrics = {eval::Metric::kPathStats};
  spec.base.seeds = {1, 2};
  spec.axes = {
      {{{"topology.servers", "", {12, 18, 24}}}},
      {{{"routing.width", "", {2, 4}}}},
  };
  return spec;
}

TEST(Sweep, CartesianExpansionOrderAndCoords) {
  const auto points = eval::expand_sweep(two_axis_spec());
  ASSERT_EQ(points.size(), 6u);
  // First axis slowest: (12,2), (12,4), (18,2), (18,4), (24,2), (24,4).
  const double expected[][2] = {{12, 2}, {12, 4}, {18, 2}, {18, 4}, {24, 2}, {24, 4}};
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(points[i].coords.size(), 2u);
    EXPECT_EQ(points[i].coords[0].first, "topology.servers");
    EXPECT_EQ(points[i].coords[0].second, expected[i][0]);
    EXPECT_EQ(points[i].coords[1].second, expected[i][1]);
    EXPECT_EQ(points[i].scenario.topologies[0].servers, static_cast<int>(expected[i][0]));
    EXPECT_EQ(points[i].scenario.routings[0].width, static_cast<int>(expected[i][1]));
  }
  EXPECT_EQ(points[2].label, "grid [servers=18 routing.width=2]");
  // Expansion is deterministic: a second expansion is identical.
  const auto again = eval::expand_sweep(two_axis_spec());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].label, again[i].label);
    EXPECT_EQ(points[i].coords, again[i].coords);
  }
}

TEST(Sweep, TopologyLabelsAutoSuffixed) {
  const auto points = eval::expand_sweep(two_axis_spec());
  EXPECT_EQ(points[0].scenario.topologies[0].display(), "jellyfish/servers=12");
  EXPECT_EQ(points[4].scenario.topologies[0].display(), "jellyfish/servers=24");
}

TEST(Sweep, ZippedAxisAdvancesEntriesInLockstep) {
  eval::SweepSpec spec;
  spec.base.topologies = {{.family = "fattree", .label = "ft", .fattree_k = 4},
                          {.family = "jellyfish", .label = "jf", .switches = 20,
                           .ports = 4, .servers = 16}};
  spec.base.metrics = {eval::Metric::kPathStats};
  spec.axes = {{{
      {"topology.fattree_k", "fattree", {4, 6}},
      {"topology.switches", "jf", {20, 45}},
  }}};
  const auto points = eval::expand_sweep(spec);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[1].scenario.topologies[0].fattree_k, 6);
  EXPECT_EQ(points[1].scenario.topologies[1].switches, 45);
  // The filter leaves the other topology untouched.
  EXPECT_EQ(points[1].scenario.topologies[0].switches, 0);
  // Labels: one suffix per axis per topology, from the first applicable entry.
  EXPECT_EQ(points[1].scenario.topologies[0].display(), "ft/fattree_k=6");
  EXPECT_EQ(points[1].scenario.topologies[1].display(), "jf/switches=45");
}

TEST(Sweep, ApplyErrors) {
  eval::Scenario s;
  s.topologies = {{.family = "jellyfish", .switches = 8, .ports = 4, .servers = 8}};
  // Unknown field.
  EXPECT_THROW(eval::apply_sweep_value(s, {"topology.bogus", "", {}}, 1.0),
               std::invalid_argument);
  // Filter matching nothing.
  EXPECT_THROW(eval::apply_sweep_value(s, {"topology.servers", "fattree", {}}, 16.0),
               std::invalid_argument);
  // Integer field given a fractional value.
  EXPECT_THROW(eval::apply_sweep_value(s, {"topology.servers", "", {}}, 16.5),
               std::invalid_argument);
  // routing.width with no routings configured.
  EXPECT_THROW(eval::apply_sweep_value(s, {"routing.width", "", {}}, 4.0),
               std::invalid_argument);
  // 'only' on a non-topology field.
  EXPECT_THROW(eval::apply_sweep_value(s, {"traffic.demand", "jellyfish", {}}, 0.5),
               std::invalid_argument);
}

TEST(Sweep, CountFieldsRejectNonPositiveValues) {
  eval::Scenario s;
  s.topologies = {{.family = "jellyfish", .switches = 8, .ports = 4, .servers = 8}};
  s.routings = {{"ksp", 4}};
  // Zero and negative counts fail up front with the field path in the
  // message, instead of an opaque factory error (or a silently degenerate
  // topology) much later.
  for (double bad : {0.0, -8.0}) {
    EXPECT_THROW(eval::apply_sweep_value(s, {"topology.switches", "", {}}, bad),
                 std::invalid_argument);
    EXPECT_THROW(eval::apply_sweep_value(s, {"topology.servers", "", {}}, bad),
                 std::invalid_argument);
    EXPECT_THROW(eval::apply_sweep_value(s, {"routing.width", "", {}}, bad),
                 std::invalid_argument);
    EXPECT_THROW(eval::apply_sweep_value(s, {"samples_per_seed", "", {}}, bad),
                 std::invalid_argument);
    EXPECT_THROW(eval::apply_sweep_value(s, {"sim.subflows", "", {}}, bad),
                 std::invalid_argument);
  }
  try {
    eval::apply_sweep_value(s, {"topology.switches", "", {}}, -8.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("topology.switches"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-8"), std::string::npos);
  }
  // traffic.demand is a rate, not a count: zero stays legal.
  eval::apply_sweep_value(s, {"traffic.demand", "", {}}, 0.0);
  EXPECT_EQ(s.traffic.demand, 0.0);
}

TEST(Sweep, FractionFieldsRejectValuesOutsideUnitInterval) {
  eval::Scenario s;
  s.topologies = {{.family = "twolayer", .ports = 8, .servers_per_switch = 2,
                   .containers = 2, .switches_per_container = 4, .network_degree = 6}};
  // Out-of-range fractions fail up front with the field path in the
  // message, not later inside the topology builder.
  for (const char* field : {"topology.local_fraction", "topology.fail_links"}) {
    for (double bad : {-0.25, 1.5}) {
      try {
        eval::apply_sweep_value(s, {field, "", {}}, bad);
        FAIL() << field << " accepted " << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
      }
    }
    eval::apply_sweep_value(s, {field, "", {}}, 1.0);
  }
  EXPECT_EQ(s.topologies[0].local_fraction, 1.0);
  EXPECT_EQ(s.topologies[0].fail_links, 1.0);
}

TEST(Sweep, SweepsReportsSweptFields) {
  const auto spec = two_axis_spec();
  EXPECT_TRUE(spec.sweeps("topology.servers"));
  EXPECT_TRUE(spec.sweeps("routing.width"));
  EXPECT_FALSE(spec.sweeps("sim.shards"));
}

TEST(Sweep, RunSweepByteIdenticalAcrossThreadCounts) {
  const auto spec = two_axis_spec();
  eval::SweepSpec small = spec;
  small.base.metrics = {eval::Metric::kPathStats, eval::Metric::kRoutedThroughput};
  const auto serial = eval::run_sweep(small, {.threads = 1});
  const auto parallel = eval::run_sweep(small, {.threads = 4});
  EXPECT_EQ(eval::sweep_report_to_json(serial).dump(2),
            eval::sweep_report_to_json(parallel).dump(2));
  ASSERT_EQ(serial.points.size(), 6u);
  for (const auto& p : serial.points) EXPECT_FALSE(p.report.samples.empty());
}

TEST(Sweep, ProgressFiresOncePerPoint) {
  const auto spec = two_axis_spec();
  int calls = 0;
  int last_done = 0;
  eval::run_sweep(spec, {.threads = 2},
                  [&](int done, int total, const eval::SweepPointResult& point, double) {
                    ++calls;
                    EXPECT_EQ(done, calls);
                    EXPECT_EQ(total, 6);
                    EXPECT_FALSE(point.label.empty());
                    last_done = done;
                  });
  EXPECT_EQ(calls, 6);
  EXPECT_EQ(last_done, 6);
}

// Cells from every point run interleaved on one shared budget, but progress
// must still stream strictly in point order with each point's report already
// attached — at every thread count.
TEST(Sweep, InterleavedSchedulerKeepsProgressCanonical) {
  const auto spec = two_axis_spec();
  for (int threads : {1, 3, 8}) {
    std::vector<std::string> labels;
    const auto report = eval::run_sweep(
        spec, {.threads = threads},
        [&](int done, int total, const eval::SweepPointResult& point, double) {
          EXPECT_EQ(done, static_cast<int>(labels.size()) + 1);
          EXPECT_EQ(total, 6);
          EXPECT_FALSE(point.report.samples.empty());  // report attached at emission
          labels.push_back(point.label);
        });
    ASSERT_EQ(labels.size(), 6u) << threads;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      EXPECT_EQ(labels[i], report.points[i].label) << threads;
    }
  }
}

// Engine::run_batch is run_sweep's engine-level contract: batch execution
// equals point-at-a-time execution, and ordered callbacks see the same
// reports the batch returns.
TEST(Sweep, RunBatchMatchesIndividualRuns) {
  const auto points = eval::expand_sweep(two_axis_spec());
  std::vector<eval::Scenario> scenarios;
  for (const auto& p : points) scenarios.push_back(p.scenario);

  std::vector<std::string> solo;
  for (const auto& s : scenarios) {
    solo.push_back(eval::report_to_json(eval::Engine({.threads = 1}).run(s)).dump());
  }
  std::vector<std::size_t> emitted;
  const auto batch = eval::Engine({.threads = 4}).run_batch(
      scenarios, [&](std::size_t i, eval::Report&) { emitted.push_back(i); });
  ASSERT_EQ(batch.size(), scenarios.size());
  ASSERT_EQ(emitted.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(emitted[i], i);
    EXPECT_EQ(eval::report_to_json(batch[i]).dump(), solo[i]);
  }
}

// The shared-PathCache fast path (deterministic families build topology +
// warmed provider once per routing and share across seed cells) must be
// invisible in the results.
TEST(Sweep, SharedPathCacheMatchesPerCellBuilds) {
  eval::Scenario s;
  s.name = "shared-cache";
  s.topologies = {{.family = "fattree", .fattree_k = 4},
                  {.family = "jellyfish", .switches = 20, .ports = 4, .servers = 16}};
  s.routings = {{"ecmp", 4}, {"ksp", 4}};
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kRoutedThroughput,
               eval::Metric::kLinkDiversity};
  s.seeds = {1, 2, 3, 4};

  const auto with_sharing = eval::Engine({.threads = 4, .share_path_cache = true}).run(s);
  const auto without_sharing =
      eval::Engine({.threads = 4, .share_path_cache = false}).run(s);
  EXPECT_EQ(eval::report_to_json(with_sharing).dump(),
            eval::report_to_json(without_sharing).dump());
}

TEST(Sweep, DuplicateTopologyLabelsDisambiguated) {
  eval::Scenario s;
  s.topologies = {{.family = "jellyfish", .switches = 8, .ports = 4, .servers = 8},
                  {.family = "jellyfish", .switches = 10, .ports = 4, .servers = 10}};
  s.metrics = {eval::Metric::kPathStats};
  s.seeds = {1};
  const auto report = eval::Engine({.threads = 1}).run(s);
  ASSERT_EQ(report.topology_labels.size(), 2u);
  EXPECT_EQ(report.topology_labels[0], "jellyfish");
  EXPECT_EQ(report.topology_labels[1], "jellyfish#2");

  // A generated suffix must not collide with an explicit user label.
  s.topologies.push_back(
      {.family = "jellyfish", .label = "jellyfish#2", .switches = 8, .ports = 4,
       .servers = 8});
  const auto report2 = eval::Engine({.threads = 1}).run(s);
  ASSERT_EQ(report2.topology_labels.size(), 3u);
  EXPECT_EQ(report2.topology_labels[0], "jellyfish");
  EXPECT_EQ(report2.topology_labels[1], "jellyfish#3");
  EXPECT_EQ(report2.topology_labels[2], "jellyfish#2");
}

TEST(Sweep, SpecOnlyMetricsSkipTopologyBuild) {
  // switches = 0 would make build_topology throw; kMinPorts never builds.
  // 3000 servers fit the k = 24 fat-tree (3456 max), so both rows are
  // feasible and comparable.
  eval::Scenario s;
  s.topologies = {{.family = "jellyfish", .ports = 24, .servers = 3000},
                  {.family = "fattree", .servers = 3000, .fattree_k = 24}};
  s.metrics = {eval::Metric::kMinPorts};
  s.seeds = {1};
  const auto report = eval::Engine({.threads = 1}).run(s);
  ASSERT_EQ(report.samples.size(), 2u);
  EXPECT_EQ(report.samples[0].metric, "min_ports");
  EXPECT_GT(report.samples[0].value, 0.0);
  EXPECT_GT(report.samples[1].value, 0.0);
  // Paper shape: jellyfish needs fewer ports than the fat-tree at equal k.
  EXPECT_LT(report.samples[0].value, report.samples[1].value);
}

TEST(Sweep, FattreeServersOverrideRepacksEdgeLayer) {
  // Fig. 2(a)'s fat-tree server ramp: undersubscribe the edge layer evenly.
  eval::TopologySpec spec{.family = "fattree", .servers = 10, .fattree_k = 4};
  Rng rng(1);
  auto topo = eval::build_topology(spec, rng);
  EXPECT_EQ(topo.num_servers(), 10);
  topo.validate();
  // Beyond the k^3/4 design capacity the edge layer runs out of ports.
  spec.servers = 17;
  EXPECT_THROW(eval::build_topology(spec, rng), std::invalid_argument);
}

// ECMP routes by hashing on the graph and never reads the path cache, so a
// packet-sim-only scenario must skip its warm yet still produce identical
// results; KSP packet sim does read the cache through route().
TEST(Sweep, PacketSimOnlySharingMatchesPerCellBuilds) {
  eval::Scenario s;
  s.name = "sim-share";
  s.topologies = {{.family = "fattree", .fattree_k = 4}};
  s.routings = {{"ecmp", 4}, {"ksp", 2}};
  s.metrics = {eval::Metric::kPacketSim};
  s.seeds = {1, 2};
  const auto with_sharing = eval::Engine({.threads = 2, .share_path_cache = true}).run(s);
  const auto without_sharing =
      eval::Engine({.threads = 2, .share_path_cache = false}).run(s);
  EXPECT_EQ(eval::report_to_json(with_sharing).dump(),
            eval::report_to_json(without_sharing).dump());
  EXPECT_FALSE(with_sharing.samples.empty());
}

TEST(Sweep, SweepReportTableHasPointColumn) {
  const auto report = eval::run_sweep(two_axis_spec(), {.threads = 2});
  std::ostringstream os;
  report.to_table().print(os);
  EXPECT_NE(os.str().find("point"), std::string::npos);
  EXPECT_NE(os.str().find("servers=24"), std::string::npos);
}

// --- paper claims, against hand-built reports ---

// One single-sample aggregate row: routing "-" is routing-free.
struct Row {
  std::string topology;
  std::string routing;
  std::string metric;
  double value;
};

int label_index(std::vector<std::string>& labels, const std::string& label) {
  auto it = std::ranges::find(labels, label);
  if (it == labels.end()) it = labels.insert(labels.end(), label);
  return static_cast<int>(it - labels.begin());
}

// One sweep point per entry of `points`.
eval::SweepReport hand_report(const std::vector<std::vector<Row>>& points) {
  eval::SweepReport report;
  report.name = "hand";
  for (const auto& rows : points) {
    eval::SweepPointResult& point = report.points.emplace_back();
    for (const Row& row : rows) {
      eval::Sample& s = point.report.samples.emplace_back();
      s.topology = label_index(point.report.topology_labels, row.topology);
      s.routing = row.routing == "-" ? -1 : label_index(point.report.routing_labels, row.routing);
      s.metric = row.metric;
      s.value = row.value;
    }
  }
  return report;
}

// a = 2, 3, 8 and b = 1, 1, 2 over three points: values 2, 3, 8; ratios
// 2, 3, 4; differences 1, 2, 6. Each series increases.
eval::SweepReport abc_report() {
  std::vector<std::vector<Row>> points;
  for (auto [a, b] : {std::pair{2.0, 1.0}, {3.0, 1.0}, {8.0, 2.0}}) {
    points.push_back({{"jf/x=1", "-", "tput", a}, {"ft/x=1", "-", "tput", b}});
  }
  return hand_report(points);
}

eval::Claim abc_claim(eval::Claim::Op op) {
  eval::Claim c{.text = "claim", .a = {"jf", "", "tput"}, .op = op};
  if (op != eval::Claim::Op::kValue) c.b = eval::ClaimSelector{"ft", "", "tput"};
  return c;
}

TEST(Claims, BoundsAndTrendsForEveryOp) {
  using Op = eval::Claim::Op;
  using Trend = eval::Claim::Trend;
  const eval::SweepReport report = abc_report();
  const std::pair<Op, std::vector<double>> series[] = {
      {Op::kValue, {2, 3, 8}}, {Op::kRatio, {2, 3, 4}}, {Op::kDifference, {1, 2, 6}}};
  for (const auto& [op, values] : series) {
    SCOPED_TRACE(static_cast<int>(op));
    const double lo = values.front();
    const double hi = values.back();
    auto check = [&](std::optional<double> min, std::optional<double> max, Trend trend) {
      eval::Claim c = abc_claim(op);
      c.min = min;
      c.max = max;
      c.trend = trend;
      const eval::ClaimResult r = eval::check_claim(c, report);
      EXPECT_EQ(r.values.size(), values.size());
      for (std::size_t i = 0; i < values.size() && i < r.values.size(); ++i) {
        EXPECT_EQ(r.values[i].value_or(-1), values[i]) << i;
      }
      EXPECT_FALSE(r.ambiguous);
      return r.pass;
    };
    // Bounds are inclusive.
    EXPECT_TRUE(check(lo, std::nullopt, Trend::kNone));
    EXPECT_FALSE(check(lo + 0.5, std::nullopt, Trend::kNone));
    EXPECT_TRUE(check(std::nullopt, hi, Trend::kNone));
    EXPECT_FALSE(check(std::nullopt, hi - 0.5, Trend::kNone));
    EXPECT_TRUE(check(lo, hi, Trend::kNone));
    EXPECT_TRUE(check(std::nullopt, std::nullopt, Trend::kIncreasing));
    EXPECT_FALSE(check(std::nullopt, std::nullopt, Trend::kDecreasing));
    // A trend and a bound must both hold.
    EXPECT_FALSE(check(lo + 0.5, std::nullopt, Trend::kIncreasing));
  }
}

TEST(Claims, TrendsAreNonStrict) {
  auto series = [](double x, double y, double z) {
    return hand_report({{{"jf", "-", "tput", x}}, {{"jf", "-", "tput", y}},
                        {{"jf", "-", "tput", z}}});
  };
  eval::Claim c = abc_claim(eval::Claim::Op::kValue);
  c.trend = eval::Claim::Trend::kDecreasing;
  EXPECT_TRUE(eval::check_claim(c, series(1.0, 1.0, 0.5)).pass);
  EXPECT_FALSE(eval::check_claim(c, series(0.5, 1.0, 1.0)).pass);
  c.trend = eval::Claim::Trend::kIncreasing;
  EXPECT_TRUE(eval::check_claim(c, series(0.5, 1.0, 1.0)).pass);
  EXPECT_FALSE(eval::check_claim(c, series(1.0, 1.0, 0.5)).pass);
}

TEST(Claims, NoEvaluatedPointFails) {
  eval::Claim c = abc_claim(eval::Claim::Op::kValue);
  c.a.metric = "missing";
  c.max = 100.0;
  const eval::ClaimResult r = eval::check_claim(c, abc_report());
  EXPECT_FALSE(r.pass);
  EXPECT_EQ(std::ranges::count(r.values, std::optional<double>()), 3);
  EXPECT_EQ(eval::claim_line("hand", c, r), "[claim] FAIL hand: claim: - - -");
}

TEST(Claims, AmbiguousSelectorFails) {
  // Both routings carry the metric at the first point: an empty routing
  // prefix matches two rows there, and one at the second point.
  const eval::SweepReport report = hand_report({{{"jf", "ecmp", "goodput", 0.5},
                                                 {"jf", "ksp", "goodput", 0.9},
                                                 {"jf", "-", "tput", 1.0}},
                                                {{"jf", "ksp", "goodput", 0.9},
                                                 {"jf", "-", "tput", 1.0}}});
  eval::Claim c{.text = "claim", .a = {"jf", "", "goodput"}, .max = 1.0};
  eval::ClaimResult r = eval::check_claim(c, report);
  EXPECT_FALSE(r.pass);
  EXPECT_TRUE(r.ambiguous);
  EXPECT_FALSE(r.values[0].has_value());
  EXPECT_EQ(r.values[1].value_or(-1), 0.9);
  EXPECT_EQ(eval::claim_line("hand", c, r),
            "[claim] FAIL hand: claim: - 0.9 (a selector matches more than one row)");
  // A routing prefix picks one, and an empty one matches a routing-free row.
  c.a.routing = "ksp";
  c.b = eval::ClaimSelector{"jf", "", "tput"};
  c.op = eval::Claim::Op::kRatio;
  r = eval::check_claim(c, report);
  EXPECT_TRUE(r.pass);
  EXPECT_EQ(r.values[0].value_or(-1), 0.9);
  // An ambiguous b fails the claim too.
  c.b->metric = "goodput";
  EXPECT_TRUE(eval::check_claim(c, report).ambiguous);
  EXPECT_FALSE(eval::check_claim(c, report).pass);
}

TEST(Claims, RatioSkipsPointsWhereBIsNotPositive) {
  // fig02b-style: b is 0 where the fat-tree design point is infeasible.
  std::vector<std::vector<Row>> points;
  for (auto [a, b] : {std::pair{1.0, 2.0}, {1.0, 0.0}, {1.0, -1.0}, {3.0, 4.0}}) {
    points.push_back({{"jf", "-", "ports", a}, {"ft", "-", "ports", b}});
  }
  eval::Claim c{.text = "fewer ports",
                .a = {"jf", "", "ports"},
                .b = eval::ClaimSelector{"ft", "", "ports"},
                .op = eval::Claim::Op::kRatio,
                .max = 1.0};
  const eval::ClaimResult r = eval::check_claim(c, hand_report(points));
  EXPECT_TRUE(r.pass);
  ASSERT_EQ(r.values.size(), 4u);
  EXPECT_EQ(r.values[0].value_or(-1), 0.5);
  EXPECT_FALSE(r.values[1].has_value());
  EXPECT_FALSE(r.values[2].has_value());
  EXPECT_EQ(r.values[3].value_or(-1), 0.75);
  EXPECT_EQ(eval::claim_line("fig", c, r), "[claim] pass fig: fewer ports: 0.5 - - 0.75");
  // A difference has no such skip.
  c.op = eval::Claim::Op::kDifference;
  c.max = 0.0;
  EXPECT_TRUE(eval::check_claim(c, hand_report(points)).values[1].has_value());
  // Every point skipped is the zero-point failure.
  c.op = eval::Claim::Op::kRatio;
  c.max = 1.0;
  EXPECT_FALSE(eval::check_claim(c, hand_report({points[1], points[2]})).pass);
}

TEST(Claims, NanValueFailsItsBound) {
  const eval::SweepReport report = hand_report({{{"jf", "-", "tput", std::nan("")}}});
  eval::Claim c{.text = "claim", .a = {"jf", "", "tput"}, .trend = eval::Claim::Trend::kIncreasing};
  EXPECT_FALSE(eval::check_claim(c, report).pass);
}

TEST(Claims, RoutingPrefixSelectsTheRow) {
  // Two routings of one topology carry the metric: "ecmp-8" and "ecmp-64"
  // share the prefix "ecmp", so only the full label picks one of them.
  const eval::SweepReport report = hand_report({{{"jf", "ecmp-8", "div", 0.5},
                                                 {"jf", "ecmp-64", "div", 0.6},
                                                 {"jf", "ksp-8", "div", 0.1}}});
  auto value = [&](const std::string& routing) {
    const eval::Claim c{.text = "claim", .a = {"jf", routing, "div"}, .max = 1.0};
    return eval::check_claim(c, report).values.at(0);
  };
  EXPECT_EQ(value("ksp").value_or(-1), 0.1);
  EXPECT_EQ(value("ecmp-8").value_or(-1), 0.5);
  EXPECT_EQ(value("ecmp-64").value_or(-1), 0.6);
  EXPECT_FALSE(value("ecmp").has_value());
  EXPECT_FALSE(value("vlb").has_value());
}

}  // namespace
}  // namespace jf
