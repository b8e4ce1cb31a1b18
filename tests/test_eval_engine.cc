// jf::eval engine: scenario execution, thread-count determinism, failure and
// fluid-vs-packet sanity on single networks, and up-front scenario checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/stats.h"
#include "eval/engine.h"
#include "eval/serialize.h"
#include "flow/restricted.h"
#include "flow/throughput.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace jf {
namespace {

eval::Scenario small_scenario() {
  eval::Scenario s;
  s.name = "test";
  s.topologies = {
      {.family = "jellyfish", .switches = 16, .ports = 6, .servers = 32},
      {.family = "fattree", .fattree_k = 4},
  };
  s.routings = {{"ecmp", 4}, {"ksp", 4}};
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kThroughput,
               eval::Metric::kRoutedThroughput};
  s.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  return s;
}

// The acceptance bar for the batch runner: the same scenario + seed list
// yields an identical Report regardless of thread count.
TEST(EvalEngine, ReportIdenticalAcrossThreadCounts) {
  const auto s = small_scenario();
  const auto serial = eval::Engine({.threads = 1}).run(s);
  const auto parallel = eval::Engine({.threads = 4}).run(s);

  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  EXPECT_GT(serial.samples.size(), 0u);
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    const auto& a = serial.samples[i];
    const auto& b = parallel.samples[i];
    EXPECT_EQ(a.topology, b.topology);
    EXPECT_EQ(a.routing, b.routing);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.sample, b.sample);
    EXPECT_EQ(a.metric, b.metric);
    EXPECT_EQ(a.value, b.value);  // exact: identical RNG streams, bit-equal
  }
  EXPECT_EQ(serial.topology_labels, parallel.topology_labels);
  EXPECT_EQ(serial.routing_labels, parallel.routing_labels);
}

TEST(EvalEngine, RunsRepeatIdentically) {
  const auto s = small_scenario();
  const auto a = eval::Engine({.threads = 3}).run(s);
  const auto b = eval::Engine({.threads = 3}).run(s);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].value, b.samples[i].value);
  }
}

TEST(EvalEngine, CrossProductCoversEveryCell) {
  auto s = small_scenario();
  s.seeds = {5, 6};
  const auto report = eval::Engine({.threads = 2}).run(s);

  // Routing-free series: one value per seed per topology.
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(report.series(t, -1, "throughput").size(), 2u);
    EXPECT_EQ(report.series(t, -1, "mean_path").size(), 2u);
    // Routing-dependent series: one per (routing, seed).
    for (int r = 0; r < 2; ++r) {
      EXPECT_EQ(report.series(t, r, "routed_throughput").size(), 2u);
    }
  }
  // Aggregates exist for every (topology, routing, metric) combination.
  EXPECT_EQ(report.aggregates().size(),
            2u * (2u /*path_stats*/ + 1u /*throughput*/) + 2u * 2u /*routed*/);

  // Traffic matrices are shared across routing schemes, so a scheme offered
  // strictly more paths can't do worse than the optimum, and no scheme can
  // beat unrestricted MCF by more than solver tolerance.
  for (int t = 0; t < 2; ++t) {
    const auto optimal = report.series(t, -1, "throughput");
    for (int r = 0; r < 2; ++r) {
      const auto routed = report.series(t, r, "routed_throughput");
      for (std::size_t i = 0; i < routed.size(); ++i) {
        EXPECT_LE(routed[i], optimal[i] + 0.12);
      }
    }
  }
}

TEST(EvalEngine, SameTopologyAcrossRoutingCells) {
  // kPathStats is routing-free; the guarantee that routing cells rebuild the
  // *same* topology shows up as routed ksp-8 tracking optimal closely on a
  // well-provisioned jellyfish.
  eval::Scenario s;
  s.topologies = {{.family = "jellyfish", .switches = 16, .ports = 8, .servers = 16}};
  s.routings = {{"ksp", 8}};
  s.metrics = {eval::Metric::kThroughput, eval::Metric::kRoutedThroughput};
  s.seeds = {42};
  const auto report = eval::Engine({.threads = 1}).run(s);
  const double optimal = report.series(0, -1, "throughput").at(0);
  const double routed = report.series(0, 0, "routed_throughput").at(0);
  EXPECT_GT(optimal, 0.9);
  EXPECT_GT(routed, 0.75);
}

// Paper Fig. 8: failing 15% of a Jellyfish's links degrades throughput
// gracefully. Both rows share seeds, so they start from the same wiring.
TEST(EvalEngine, FailureInjection) {
  eval::Scenario s;
  s.topologies = {
      {.family = "jellyfish", .switches = 30, .ports = 10, .servers = 90},
      {.family = "jellyfish", .label = "failed", .switches = 30, .ports = 10, .servers = 90,
       .fail_links = 0.15},
  };
  s.metrics = {eval::Metric::kThroughput, eval::Metric::kCabling};
  s.seeds = {5};
  s.samples_per_seed = 2;
  const auto report = eval::Engine({.threads = 2}).run(s);
  EXPECT_LT(report.series(1, -1, "cable_switch_count").at(0),
            report.series(0, -1, "cable_switch_count").at(0));
  const double before = summarize(report.series(0, -1, "throughput")).mean;
  const double after = summarize(report.series(1, -1, "throughput")).mean;
  EXPECT_GT(after, before * 0.6);
  EXPECT_LE(after, before + 0.1);
}

// A well-provisioned network outperforms an oversubscribed one on the same
// switches under both the fluid optimum and the packet simulator.
TEST(EvalEngine, FluidAndPacketAgreeOnOrdering) {
  eval::Scenario s;
  s.topologies = {
      {.family = "jellyfish", .label = "rich", .switches = 12, .ports = 10, .servers = 24},
      {.family = "jellyfish", .label = "poor", .switches = 12, .ports = 10, .servers = 84},
  };
  s.routings = {{"ksp", 4}};
  s.metrics = {eval::Metric::kThroughput, eval::Metric::kPacketSim};
  s.seeds = {8};
  s.samples_per_seed = 2;
  s.sim.transport = sim::Transport::kMptcp;
  s.sim.subflows = 4;
  s.sim.warmup_ns = 2 * sim::kMillisecond;
  s.sim.measure_ns = 8 * sim::kMillisecond;
  const auto report = eval::Engine({.threads = 2}).run(s);
  EXPECT_GT(summarize(report.series(0, -1, "throughput")).mean,
            summarize(report.series(1, -1, "throughput")).mean);
  EXPECT_GT(summarize(report.series(0, 0, "sim_goodput")).mean,
            summarize(report.series(1, 0, "sim_goodput")).mean);
}

TEST(EvalEngine, FatTreeRowThroughput) {
  eval::Scenario s;
  s.topologies = {{.family = "fattree", .fattree_k = 4}};
  s.metrics = {eval::Metric::kThroughput};
  s.seeds = {3};
  const auto report = eval::Engine({.threads = 1}).run(s);
  EXPECT_GT(report.series(0, -1, "throughput").at(0), 0.5);
}

// A fat-tree row with several seeds builds one topology that every cell
// reads. With throughput alone nothing warms a path cache on the batch's
// thread first, so the cells are the first readers of its server index.
TEST(EvalEngine, SharedFatTreeThroughputOnlyAcrossThreads) {
  eval::Scenario s;
  s.topologies = {{.family = "fattree", .fattree_k = 4}};
  s.metrics = {eval::Metric::kThroughput};
  s.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto serial = eval::Engine({.threads = 1}).run(s);
  const auto parallel = eval::Engine({.threads = 4}).run(s);
  EXPECT_EQ(serial.series(0, -1, "throughput"), parallel.series(0, -1, "throughput"));
}

TEST(EvalEngine, UnknownFamilyAndSchemeThrow) {
  eval::Scenario s;
  s.topologies = {{.family = "hypercube"}};
  s.seeds = {1};
  EXPECT_THROW(eval::Engine({.threads = 1}).run(s), std::invalid_argument);

  eval::Scenario s2;
  s2.topologies = {{.family = "fattree", .fattree_k = 4}};
  s2.routings = {{"segment-routing", 4}};
  s2.metrics = {eval::Metric::kRoutedThroughput};
  s2.seeds = {1};
  EXPECT_THROW(eval::Engine({.threads = 1}).run(s2), std::invalid_argument);
}

// A scenario the engine cannot run fails before any cell of the batch runs,
// not partway through from a worker.
// The metric table's sample column is what the evaluators emit. Every
// metric runs alone at smoke size (the growth metrics over growth_smoke's
// schedule), and the emitted (name, index) pairs must equal the column's
// prediction. run_cell's ensure() only catches an emitted row outside the
// column; this also catches a stale or extra column entry.
TEST(EvalEngine, SampleColumnMatchesEmittedRows) {
  const eval::SweepSpec growth = eval::load_sweep_file(JF_SCENARIO_DIR "/growth_smoke.json");
  const int steps = static_cast<int>(expansion::resolve_growth_steps(growth.base.growth).size());
  ASSERT_GE(steps, 1);
  for (const eval::MetricInfo& info : eval::metric_table()) {
    SCOPED_TRACE(std::string(info.name));
    eval::Scenario s;
    s.topologies = {{.family = "jellyfish", .switches = 12, .ports = 6, .servers = 24}};
    s.routings = {{"ksp", 4}};
    s.metrics = {info.metric};
    s.samples_per_seed = 2;
    s.sim.warmup_ns = 1'000'000;
    s.sim.measure_ns = 4'000'000;
    s.growth = growth.base.growth;
    std::set<std::pair<std::string, int>> emitted;
    for (const eval::Sample& row : eval::Engine({.threads = 1}).run(s).samples) {
      emitted.emplace(row.metric, row.sample);
    }
    std::set<std::pair<std::string, int>> predicted;
    for (const eval::SampleSeries& series : info.samples) {
      const int count = series.index == eval::SampleIndex::kCell      ? 1
                        : series.index == eval::SampleIndex::kTraffic ? s.samples_per_seed
                                                                      : steps + 1;
      for (int i = 0; i < count; ++i) predicted.emplace(eval::sample_name(series, i), i);
    }
    EXPECT_EQ(emitted, predicted);
  }
}

TEST(EvalEngine, RejectsBadScenariosBeforeAnyCellRuns) {
  eval::Scenario good;
  good.topologies = {{.family = "fattree", .fattree_k = 4}};
  good.metrics = {eval::Metric::kPathStats};
  good.seeds = {1};

  // Both sim metrics need a route for every flow.
  eval::Scenario flow_stats = good;
  flow_stats.topologies = {{.family = "jellyfish", .switches = 16, .ports = 6, .servers = 32,
                            .fail_links = 0.6}};
  flow_stats.routings = {{"ksp", 4}};
  flow_stats.metrics = {eval::Metric::kFlowStats};
  // A repeat would count its samples twice in every aggregate.
  eval::Scenario repeated_metric = good;
  repeated_metric.metrics = {eval::Metric::kPathStats, eval::Metric::kPathStats};
  eval::Scenario repeated_seed = good;
  repeated_seed.seeds = {1, 1, 2};
  eval::Scenario no_routings = good;
  no_routings.metrics = {eval::Metric::kRoutedThroughput};
  // A built row its family's factory would refuse, named by its label.
  eval::Scenario too_many_servers = good;
  too_many_servers.topologies = {{.family = "jellyfish", .label = "tight", .switches = 8,
                                  .ports = 4, .servers = 100}};
  eval::Scenario swdc_too_small = good;
  swdc_too_small.topologies = {{.family = "swdc-ring", .switches = 2, .ports = 6}};

  for (const auto& [bad, needle] :
       {std::pair{flow_stats, "flow_stats does not support fail_links"},
        std::pair{repeated_metric, "a metric is listed twice"},
        std::pair{repeated_seed, "a seed is listed twice"},
        std::pair{no_routings, "routed_throughput needs >= 1 routing spec"},
        std::pair{too_many_servers,
                  "scenario.topologies[0]: topology 'tight': jellyfish needs servers <= "
                  "switches * (ports - 1)"},
        std::pair{swdc_too_small,
                  "scenario.topologies[0]: topology 'swdc-ring': swdc-ring needs switches >= 3"}}) {
    const eval::Scenario batch[] = {good, bad};
    int reports_done = 0;
    try {
      eval::Engine({.threads = 1}).run_batch(batch, [&](std::size_t, eval::Report&) {
        ++reports_done;
      });
      ADD_FAILURE() << "accepted: " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
      // Scenario errors speak of the scenario, never of this library's sources.
      EXPECT_EQ(std::string(e.what()).find(".cc:"), std::string::npos) << e.what();
    }
    EXPECT_EQ(reports_done, 0) << needle;
  }
}

TEST(RestrictedMcf, NeverBeatsUnrestrictedByMuchAndKspRecoversCapacity) {
  Rng rng(3);
  auto topo = topo::build_jellyfish_with_servers(20, 8, 40, rng);

  Rng tm_rng(17);
  const double optimal = flow::permutation_throughput(topo, tm_rng, {});

  auto ksp = routing::make_path_provider(topo.switches(), routing::RoutingSpec{"ksp", 8});
  Rng tm_rng2(17);
  const auto tm = traffic::random_permutation(topo.num_servers(), tm_rng2);
  const auto commodities = traffic::to_switch_commodities(topo, tm);
  const double restricted = std::min(
      1.0, flow::restricted_max_concurrent_flow(topo.switches(), commodities, *ksp).lambda);

  EXPECT_LE(restricted, optimal + 0.12);  // GK tolerance on both sides
  EXPECT_GT(restricted, 0.5 * optimal);   // 8 paths recover most capacity
}

}  // namespace
}  // namespace jf
