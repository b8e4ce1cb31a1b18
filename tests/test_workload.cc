// Tests for the workload harness: topology -> simulation wiring, routing
// schemes, transports, and result accounting.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "common/rng.h"
#include "sim/workload.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace jf::sim {
namespace {

WorkloadConfig fast_config() {
  WorkloadConfig cfg;
  cfg.transport = Transport::kTcp;
  cfg.warmup_ns = 2 * kMillisecond;
  cfg.measure_ns = 8 * kMillisecond;
  return cfg;
}

// The default routing of these tests: 4-shortest-path.
std::unique_ptr<routing::PathProvider> ksp4(const topo::Topology& topo) {
  return routing::make_path_provider(topo.switches(), {"ksp", 4});
}

TEST(Workload, PermutationOnSmallJellyfish) {
  Rng rng(1);
  auto topo = topo::build_jellyfish(
      {.num_switches = 12, .ports_per_switch = 8, .network_degree = 5}, rng);
  auto res = run_permutation_workload(topo, fast_config(), *ksp4(topo), rng);
  EXPECT_EQ(res.per_flow.size(), static_cast<std::size_t>(topo.num_servers()));
  EXPECT_GT(res.mean_flow_throughput, 0.3);
  EXPECT_LE(res.mean_flow_throughput, 1.0 + 1e-9);
  for (double t : res.per_flow) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0 + 1e-6);
  }
  EXPECT_GT(res.jain_fairness, 0.5);
}

TEST(Workload, PerServerMatchesPerFlowTotals) {
  Rng rng(2);
  auto topo = topo::build_jellyfish(
      {.num_switches = 10, .ports_per_switch = 8, .network_degree = 5}, rng);
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  auto res = run_workload(topo, tm, fast_config(), *ksp4(topo), rng);
  const double flow_sum = std::accumulate(res.per_flow.begin(), res.per_flow.end(), 0.0);
  const double server_sum =
      std::accumulate(res.per_server.begin(), res.per_server.end(), 0.0);
  EXPECT_NEAR(flow_sum, server_sum, 1e-9);
}

TEST(Workload, IntraRackFlowsBypassFabric) {
  Rng rng(3);
  auto topo = topo::build_jellyfish(
      {.num_switches = 4, .ports_per_switch = 10, .network_degree = 3}, rng);
  // Both endpoints on switch 0 (servers 0..6 live there).
  traffic::TrafficMatrix tm;
  tm.flows.push_back({0, 1, 1.0});
  auto res = run_workload(topo, tm, fast_config(), *ksp4(topo), rng);
  EXPECT_GT(res.per_flow[0], 0.9);  // NIC-limited only
}

TEST(Workload, ParallelConnectionsAggregate) {
  Rng rng(4);
  auto topo = topo::build_jellyfish(
      {.num_switches = 8, .ports_per_switch = 8, .network_degree = 5}, rng);
  traffic::TrafficMatrix tm;
  tm.flows.push_back({0, topo.num_servers() - 1, 1.0});
  auto cfg = fast_config();
  cfg.parallel_connections = 4;
  auto res = run_workload(topo, tm, cfg, *ksp4(topo), rng);
  EXPECT_EQ(res.per_flow.size(), 1u);
  EXPECT_GT(res.per_flow[0], 0.5);
  // NIC caps the aggregate (small skew allowance: reorder-buffer drains at
  // the measurement-window edge can credit pre-window packets).
  EXPECT_LE(res.per_flow[0], 1.03);
}

TEST(Workload, MptcpUsesSubflows) {
  Rng rng(5);
  auto topo = topo::build_jellyfish(
      {.num_switches = 12, .ports_per_switch = 8, .network_degree = 5}, rng);
  auto cfg = fast_config();
  cfg.transport = Transport::kMptcp;
  cfg.subflows = 4;
  auto res = run_permutation_workload(topo, cfg, *ksp4(topo), rng);
  EXPECT_GT(res.mean_flow_throughput, 0.3);
}

TEST(Workload, EcmpVsKspOnJellyfish) {
  // The paper's core §5 finding at miniature scale: k-shortest-path routing
  // sustains at least as much throughput as ECMP on Jellyfish.
  Rng rng(6);
  auto topo = topo::build_jellyfish(
      {.num_switches = 16, .ports_per_switch = 8, .network_degree = 5}, rng);
  auto cfg = fast_config();
  cfg.transport = Transport::kMptcp;
  cfg.subflows = 4;
  cfg.measure_ns = 12 * kMillisecond;

  Rng r1 = rng.fork(1), r2 = rng.fork(2);
  auto ecmp8 = routing::make_path_provider(topo.switches(), {"ecmp", 8});
  auto ksp8 = routing::make_path_provider(topo.switches(), {"ksp", 8});
  auto ecmp = run_permutation_workload(topo, cfg, *ecmp8, r1);
  auto ksp = run_permutation_workload(topo, cfg, *ksp8, r2);
  EXPECT_GE(ksp.mean_flow_throughput, ecmp.mean_flow_throughput * 0.95);
}

TEST(Workload, RejectsEmptyMatrix) {
  Rng rng(7);
  auto topo = topo::build_jellyfish(
      {.num_switches = 4, .ports_per_switch = 6, .network_degree = 3}, rng);
  traffic::TrafficMatrix tm;
  EXPECT_THROW(run_workload(topo, tm, fast_config(), *ksp4(topo), rng), std::invalid_argument);
}

TEST(Workload, FattreeEcmpWorksWell) {
  auto ft = topo::build_fattree(4);
  Rng rng(8);
  auto cfg = fast_config();
  cfg.transport = Transport::kMptcp;
  cfg.subflows = 4;
  auto ecmp8 = routing::make_path_provider(ft.switches(), {"ecmp", 8});
  auto res = run_permutation_workload(ft, cfg, *ecmp8, rng);
  // Full-bisection fat-tree with multipath: high utilization expected.
  EXPECT_GT(res.mean_flow_throughput, 0.6);
}

}  // namespace
}  // namespace jf::sim
