// Parameterized property sweeps for the packet simulator: conservation and
// efficiency invariants across queue depths, RTTs, and multiplexing levels.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "sim/sharded/sharded_sim.h"
#include "sim/workload.h"
#include "topo/jellyfish.h"

namespace jf::sim {
namespace {

// (queue_capacity, link_delay_us, subflows)
class SimSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SimSweep, ConservationAndSanity) {
  const auto [queue, delay_us, subflows] = GetParam();
  Rng rng(static_cast<std::uint64_t>(queue) * 131 + delay_us * 17 + subflows);
  auto topo = topo::build_jellyfish(
      {.num_switches = 10, .ports_per_switch = 8, .network_degree = 5}, rng);

  WorkloadConfig cfg;
  cfg.transport = subflows > 1 ? Transport::kMptcp : Transport::kTcp;
  cfg.subflows = subflows;
  cfg.sim.queue_capacity_pkts = queue;
  cfg.sim.link_delay_ns = delay_us * kMicrosecond;
  cfg.warmup_ns = 3 * kMillisecond;
  cfg.measure_ns = 10 * kMillisecond;
  auto routes = routing::make_path_provider(topo.switches(), {"ksp", 4});
  auto res = run_permutation_workload(topo, cfg, *routes, rng);

  // Per-flow goodput is bounded by the NIC (small window-edge skew allowed).
  for (double t : res.per_flow) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.05);
  }
  // The network moves real traffic under every configuration.
  EXPECT_GT(res.mean_flow_throughput, 0.15);
  // Fairness is meaningful (no total starvation collapse).
  EXPECT_GT(res.jain_fairness, 0.3);
}

INSTANTIATE_TEST_SUITE_P(Grid, SimSweep,
                         ::testing::Values(std::make_tuple(16, 1, 1),
                                           std::make_tuple(64, 5, 1),
                                           std::make_tuple(64, 5, 4),
                                           std::make_tuple(128, 5, 8),
                                           std::make_tuple(64, 20, 4),
                                           std::make_tuple(32, 10, 2)));

TEST(SimInvariants, LinkTxNeverExceedsCapacity) {
  Rng rng(9);
  auto topo = topo::build_jellyfish(
      {.num_switches = 8, .ports_per_switch = 8, .network_degree = 5}, rng);
  WorkloadConfig cfg;
  cfg.warmup_ns = 2 * kMillisecond;
  cfg.measure_ns = 6 * kMillisecond;
  // Run via the harness, then check per-link transmitted bytes against the
  // physical limit rate * elapsed.
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  // Rebuild the simulator manually to keep a handle on it.
  // (The workload API returns aggregates; this test drives the engine itself.)
  sharded::ShardedSimulator sim(cfg.sim, 1);
  int l0 = sim.add_link(0);
  int l1 = sim.add_link(0);
  int r0 = sim.add_link(0);
  int r1 = sim.add_link(0);
  int f = sim.add_flow(0, 1, false, 0, 0);
  sim.add_subflow(f, {l0, l1}, {r0, r1}, 0);
  sim.set_measure_window(0, 10 * kMillisecond);
  sim.run_until(10 * kMillisecond);
  const double elapsed_s = 10e-3;
  for (int l : {l0, l1, r0, r1}) {
    const auto& link = sim.link(l);
    EXPECT_LE(static_cast<double>(link.tx_bytes) * 8.0,
              cfg.sim.link_rate_bps * elapsed_s * 1.01)
        << "link " << l;
  }
  (void)tm;
}

TEST(SimInvariants, NoTrafficNoEvents) {
  SimConfig cfg;
  sharded::ShardedSimulator sim(cfg, 1);
  sim.add_link(0);
  sim.set_measure_window(0, kMillisecond);
  sim.run_until(kMillisecond);  // no flows: must terminate instantly
  EXPECT_EQ(sim.rounds(), 0);
  EXPECT_EQ(sim.total_drops(), 0);
}

TEST(SimInvariants, RetransmitsAccountedWhenQueuesTiny) {
  Rng rng(10);
  auto topo = topo::build_jellyfish(
      {.num_switches = 8, .ports_per_switch = 8, .network_degree = 4}, rng);
  WorkloadConfig cfg;
  cfg.sim.queue_capacity_pkts = 4;  // heavy loss regime
  cfg.warmup_ns = 2 * kMillisecond;
  cfg.measure_ns = 8 * kMillisecond;
  auto routes = routing::make_path_provider(topo.switches(), {"ksp", 4});
  auto res = run_permutation_workload(topo, cfg, *routes, rng);
  EXPECT_GT(res.packet_drops, 0);
  EXPECT_GT(res.total_retransmits, 0);
  EXPECT_GT(res.mean_flow_throughput, 0.05);  // survives, degraded
}

}  // namespace
}  // namespace jf::sim
