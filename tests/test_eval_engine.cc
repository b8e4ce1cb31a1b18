// jf::eval engine: scenario execution, thread-count determinism, failure and
// fluid-vs-packet sanity on single networks, and registry extensibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/stats.h"
#include "eval/engine.h"
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
