// Property sweeps for the max-concurrent-flow engine: primal feasibility,
// duality (for the optimal and the path-restricted solver), and symmetry
// invariants across random instances.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "flow/mcf.h"
#include "flow/restricted.h"
#include "flow/throughput.h"
#include "routing/path_provider.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace jf::flow {
namespace {

class McfOnRandomInstances : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(McfOnRandomInstances, PrimalDualSandwich) {
  const auto [n, k, r] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 31 + k * 7 + r);
  auto topo = topo::build_jellyfish(
      {.num_switches = n, .ports_per_switch = k, .network_degree = r}, rng);
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(topo, tm);
  auto res = max_concurrent_flow(topo.switches(), cs, {});

  // Primal is a certified feasible value; dual is a certified upper bound.
  EXPECT_GT(res.lambda, 0.0);
  EXPECT_LE(res.lambda, res.lambda_upper * (1.0 + 1e-9));
  // The solver converged to a reasonable gap.
  EXPECT_LT(res.lambda_upper / res.lambda, 1.25);
  // Lambda for a finite instance is finite and sane.
  EXPECT_LT(res.lambda, 100.0);

  // The restricted LP's feasible flows are feasible for the optimal LP too,
  // so a restricted solve's certified primal sits under its own dual bound
  // and under the optimal solve's. No gap ratio is asserted: ECMP's bracket
  // can stay wide.
  for (const routing::RoutingSpec& spec : {routing::RoutingSpec{"ksp", 8},
                                           routing::RoutingSpec{"ecmp", 8}}) {
    SCOPED_TRACE(spec.scheme);
    auto routes = routing::make_path_provider(topo.switches(), spec);
    const auto restricted = restricted_max_concurrent_flow(topo.switches(), cs, *routes, {});
    EXPECT_GT(restricted.lambda, 0.0);
    EXPECT_LE(restricted.lambda, restricted.lambda_upper * (1.0 + 1e-9));
    EXPECT_LE(restricted.lambda, res.lambda_upper * (1.0 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, McfOnRandomInstances,
                         ::testing::Values(std::make_tuple(12, 8, 5),
                                           std::make_tuple(20, 10, 6),
                                           std::make_tuple(30, 10, 7),
                                           std::make_tuple(40, 12, 7),
                                           std::make_tuple(24, 6, 4)));

TEST(McfScaling, ThroughputDecreasesWithLoad) {
  // Fixing equipment and adding servers monotonically loads the fabric.
  Rng rng(100);
  double prev = 2.0;
  for (int servers : {20, 40, 60, 80}) {
    Rng r = rng.fork(static_cast<std::uint64_t>(servers));
    auto topo = topo::build_jellyfish_with_servers(20, 10, servers, r);
    auto tm = traffic::random_permutation(topo.num_servers(), r);
    auto cs = traffic::to_switch_commodities(topo, tm);
    auto res = max_concurrent_flow(topo.switches(), cs, {});
    const double lam = std::min(1.0, res.lambda);
    EXPECT_LE(lam, prev + 0.1) << servers;  // allow sampling noise
    prev = lam;
  }
}

TEST(McfScaling, FattreeMatchesDesignPointAcrossK) {
  for (int k : {4, 6}) {
    auto ft = topo::build_fattree(k);
    Rng rng(static_cast<std::uint64_t>(k));
    auto tm = traffic::random_permutation(ft.num_servers(), rng);
    auto cs = traffic::to_switch_commodities(ft, tm);
    auto res = max_concurrent_flow(ft.switches(), cs, {});
    // Full-bisection design: lambda* = 1; GK primal lands close below.
    EXPECT_GT(res.lambda, 0.9) << k;
    EXPECT_GT(res.lambda_upper, 0.99) << k;
  }
}

TEST(McfScaling, JellyfishBeatsFattreeAtEqualEquipmentAndServers) {
  // The capacity core of the paper, as a regression test: same switches,
  // same servers, Jellyfish's lambda should be at least the fat-tree's.
  const int k = 6;
  auto ft = topo::build_fattree(k);
  Rng rng(606);
  auto jelly =
      topo::build_jellyfish_with_servers(ft.num_switches(), k, ft.num_servers(), rng);
  Rng r1 = rng.fork(1), r2 = rng.fork(2);
  const double ft_tput = mean_permutation_throughput(ft, r1, 2, {});
  const double jf_tput = mean_permutation_throughput(jelly, r2, 2, {});
  // Equal servers on equal equipment: Jellyfish is at least as good (up to
  // the GK solver's convergence tolerance).
  EXPECT_GE(jf_tput, ft_tput - 0.05);
}

}  // namespace
}  // namespace jf::flow
