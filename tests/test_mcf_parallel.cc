// flow/mcf: decision mode (decide_threshold certificates), disconnected
// commodities and edgeless graphs, the log-space initial-length fix for tiny
// epsilon, bit-identity of the parallel solver vs the serial path at several
// thread counts, golden results pinned as hex-float literals for the optimal
// and the path-restricted solver, and the exact search counter and span args.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "flow/mcf.h"
#include "flow/restricted.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/path_provider.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace jf::flow {
namespace {

McfResult solve_with_threads(const graph::Graph& g, const std::vector<Commodity>& cs,
                             const McfOptions& opts, int threads) {
  if (threads <= 1) return max_concurrent_flow(g, cs, opts);
  parallel::WorkBudget budget(threads - 1);
  return max_concurrent_flow(g, cs, opts, &budget);
}

// Metrics and tracing on for one test; both off again afterwards.
struct ObsOn {
  ObsOn() {
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    obs::reset_metrics();
    obs::reset_trace();
  }
  ~ObsOn() {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
  }
};

std::int64_t counter_value(const char* name) { return obs::counter(name).value(); }

TEST(McfParallel, BitIdenticalAcrossThreadCounts) {
  Rng rng(42);
  auto topo = topo::build_jellyfish(
      {.num_switches = 30, .ports_per_switch = 10, .network_degree = 6}, rng);
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(topo, tm);

  const auto serial = solve_with_threads(topo.switches(), cs, {}, 1);
  EXPECT_GT(serial.lambda, 0.0);
  for (int threads : {2, 8}) {
    const auto parallel = solve_with_threads(topo.switches(), cs, {}, threads);
    // Bit-for-bit: the epoch-batched round schedule is identical at any
    // worker count, so every floating-point operation happens in the same
    // order.
    EXPECT_EQ(serial.lambda, parallel.lambda) << threads;
    EXPECT_EQ(serial.lambda_upper, parallel.lambda_upper) << threads;
    EXPECT_EQ(serial.phases, parallel.phases) << threads;
    EXPECT_EQ(serial.decided_above, parallel.decided_above) << threads;
    EXPECT_EQ(serial.decided_below, parallel.decided_below) << threads;
  }
}

TEST(McfParallel, DecisionModeBitIdenticalAcrossThreadCounts) {
  auto ft = topo::build_fattree(4);
  Rng rng(7);
  auto tm = traffic::random_permutation(ft.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(ft, tm);
  McfOptions opts;
  opts.decide_threshold = 0.9;
  const auto serial = solve_with_threads(ft.switches(), cs, opts, 1);
  const auto parallel = solve_with_threads(ft.switches(), cs, opts, 8);
  EXPECT_EQ(serial.lambda, parallel.lambda);
  EXPECT_EQ(serial.phases, parallel.phases);
  EXPECT_EQ(serial.decided_above, parallel.decided_above);
  EXPECT_EQ(serial.decided_below, parallel.decided_below);
}

std::vector<Commodity> permutation_commodities(const topo::Topology& topo, Rng& rng) {
  const auto tm = traffic::random_permutation(topo.num_servers(), rng);
  return traffic::to_switch_commodities(topo, tm);
}

// A path 0 - 1 - 2 with both 0->2 and 1->2 at unit demand: arc 1->2 carries
// both commodities, so lambda* = 0.5 exactly.
TEST(McfDecision, DecidesAboveAndBelowWithCertificates) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<Commodity> cs = {{0, 2, 1.0}, {1, 2, 1.0}};

  McfOptions above;
  above.decide_threshold = 0.3;  // well under lambda* = 0.5
  auto res = max_concurrent_flow(g, cs, above);
  EXPECT_TRUE(res.decided_above);
  EXPECT_FALSE(res.decided_below);
  EXPECT_GE(res.lambda, 0.3);

  McfOptions below;
  below.decide_threshold = 0.9;  // well over lambda* = 0.5
  res = max_concurrent_flow(g, cs, below);
  EXPECT_TRUE(res.decided_below);
  EXPECT_FALSE(res.decided_above);
  EXPECT_LT(res.lambda_upper, 0.9);
  // The dual certificate stays a true upper bound on lambda* = 0.5.
  EXPECT_GE(res.lambda_upper, 0.5 - 1e-9);
}

TEST(McfDecision, ThresholdZeroDecidesAboveImmediately) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  std::vector<Commodity> cs = {{0, 1, 1.0}};
  McfOptions opts;
  opts.decide_threshold = 0.0;
  const auto res = max_concurrent_flow(g, cs, opts);
  EXPECT_TRUE(res.decided_above);
}

TEST(McfDisconnected, UnreachableCommodityYieldsZeroLambda) {
  graph::Graph g(4);  // two components: {0,1} and {2,3}
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  std::vector<Commodity> cs = {{0, 1, 1.0}, {0, 2, 1.0}};
  const auto res = max_concurrent_flow(g, cs, {});
  EXPECT_EQ(res.lambda, 0.0);
  EXPECT_EQ(res.lambda_upper, 0.0);
  EXPECT_FALSE(res.decided_below);  // no threshold: no decision claimed

  McfOptions decide;
  decide.decide_threshold = 0.5;
  const auto decided = max_concurrent_flow(g, cs, decide);
  EXPECT_EQ(decided.lambda, 0.0);
  EXPECT_TRUE(decided.decided_below);
  EXPECT_FALSE(decided.decided_above);

  // Also bit-identical under parallel execution (the disconnect is found
  // during a parallel sweep but reported from the canonical apply order).
  const auto parallel = solve_with_threads(g, cs, {}, 8);
  EXPECT_EQ(parallel.lambda, 0.0);
  EXPECT_EQ(parallel.lambda_upper, 0.0);
}

TEST(GkInitialLength, MatchesPowWherePowIsSafe) {
  const std::size_t m = 100;
  const double eps = 0.1;
  const double direct = std::pow(static_cast<double>(m) / (1.0 - eps), -1.0 / eps);
  EXPECT_NEAR(gk_initial_length(m, eps, 1.0), direct, direct * 1e-12);
  EXPECT_NEAR(gk_initial_length(m, eps, 4.0), direct / 4.0, direct * 1e-12);
}

TEST(GkInitialLength, SmallEpsilonOnLargeGraphsStaysPositive) {
  // The direct pow underflows to exactly 0 here; the log-space version must
  // stay a positive normal double.
  const std::size_t m = 4096;
  const double eps = 0.01;
  EXPECT_EQ(std::pow(static_cast<double>(m) / (1.0 - eps), -1.0 / eps), 0.0);
  const double len = gk_initial_length(m, eps, 1.0);
  EXPECT_GT(len, 0.0);
  EXPECT_GE(len, std::numeric_limits<double>::min());  // normal, not denormal
  EXPECT_THROW(gk_initial_length(0, eps, 1.0), std::invalid_argument);
  EXPECT_THROW(gk_initial_length(m, 0.6, 1.0), std::invalid_argument);
  EXPECT_THROW(gk_initial_length(m, eps, 0.0), std::invalid_argument);
}

TEST(McfSmallEpsilon, SolverSurvivesUnderflowRegime) {
  // 12 switches x degree 5 = 30 edges = 60 arcs; (60/0.995)^(-200)
  // underflows, so the old initializer zeroed every arc length and the dual
  // bound collapsed to D = 0. With log-space lengths the solve must produce
  // a positive certified primal under a finite, consistent dual.
  Rng rng(9);
  auto topo = topo::build_jellyfish(
      {.num_switches = 12, .ports_per_switch = 8, .network_degree = 5}, rng);
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  auto cs = traffic::to_switch_commodities(topo, tm);
  McfOptions opts;
  opts.epsilon = 0.005;
  opts.max_phases = 60;
  const auto res = max_concurrent_flow(topo.switches(), cs, opts);
  EXPECT_GT(res.lambda, 0.0);
  EXPECT_TRUE(std::isfinite(res.lambda_upper));
  EXPECT_GT(res.lambda_upper, 0.0);
  EXPECT_LE(res.lambda, res.lambda_upper * (1.0 + 1e-9));
}

// Both solvers validate their options in the shared driver: the restricted
// solver, too, refuses ranges it would otherwise answer wrongly.
TEST(McfOptionsChecks, RejectsDegenerateRanges) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  std::vector<Commodity> cs = {{0, 1, 1.0}};
  auto routes = routing::make_path_provider(g, {"ksp", 1});
  std::vector<McfOptions> cases(4);
  cases[0].max_phases = 0;
  cases[1].convergence_window = 0;
  cases[2].convergence_window = -5;
  cases[3].convergence_tol = -1.0;
  for (const McfOptions& opts : cases) {
    EXPECT_THROW(max_concurrent_flow(g, cs, opts), std::invalid_argument);
    EXPECT_THROW(restricted_max_concurrent_flow(g, cs, *routes, opts), std::invalid_argument);
  }
}

// --- golden results ---
//
// Exact results of the solver as it stood when every round ran one
// early-exit Dijkstra per commodity, recorded as hex-float literals. A sweep
// that runs one search per distinct source must settle every target with
// the same distance and parent arc, and the epoch-batched round schedule is
// the same at any worker count, so every floating-point operation happens
// in the same order: each result is bit-identical at every thread count.
// FatTreeK8FailedLinks and JellyfishDecideEveryPhase were recorded later,
// from the source-grouped solver over a lazy-deletion binary heap that ran
// a fresh sweep for every round and every dual bound. The settled totals
// were recorded over that heap once a phase's first round reused the dual
// sweep; a settle (a pop that is not stale) is the same event in any heap
// that pops in (dist, node) order, so they pin the search kernel too.
// McfScalingDefaultInstance and HubWithMoreThan64Arcs were recorded from
// the indexed 4-ary heap with branchy sift-down and arc-by-arc relaxation,
// before its branch-free rewrite.

struct Golden {
  double lambda;
  double lambda_upper;
  int phases;
  bool decided_above;
  bool decided_below;
  std::int64_t settled;  // mcf.settled: nodes the solve's searches settle
};

void expect_golden(const graph::Graph& g, const std::vector<Commodity>& cs,
                   const McfOptions& opts, const Golden& want) {
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ObsOn on;
    const McfResult got = solve_with_threads(g, cs, opts, threads);
    EXPECT_EQ(got.lambda, want.lambda);
    EXPECT_EQ(got.lambda_upper, want.lambda_upper);
    EXPECT_EQ(got.phases, want.phases);
    EXPECT_EQ(got.decided_above, want.decided_above);
    EXPECT_EQ(got.decided_below, want.decided_below);
    EXPECT_EQ(counter_value("mcf.settled"), want.settled);
    EXPECT_EQ(counter_value("mcf.undecided"), 0);
  }
}

McfOptions decide_at(double threshold) {
  McfOptions opts;
  opts.decide_threshold = threshold;
  return opts;
}

TEST(McfGolden, FatTreeK4Permutation) {
  const auto ft = topo::build_fattree(4);
  Rng rng(7);
  const auto cs = permutation_commodities(ft, rng);
  expect_golden(ft.switches(), cs, {},
                {0x1.f89467e2519f9p-1, 0x1.133c97c78fa42p+0, 70, false, false, 11519});
}

TEST(McfGolden, FatTreeK6Permutation) {
  const auto ft = topo::build_fattree(6);
  Rng rng(11);
  const auto cs = permutation_commodities(ft, rng);
  expect_golden(ft.switches(), cs, {},
                {0x1.ca1af286bca1bp-1, 0x1.287f940aa664ep+0, 30, false, false, 24067});
}

TEST(McfGolden, JellyfishPermutation) {
  Rng rng(42);
  const auto topo = topo::build_jellyfish(
      {.num_switches = 30, .ports_per_switch = 10, .network_degree = 6}, rng);
  const auto cs = permutation_commodities(topo, rng);
  expect_golden(topo.switches(), cs, {},
                {0x1.4f0f0f0f0f0f1p-1, 0x1.6baee258b43c5p-1, 100, false, false, 90344});
}

// Sources interleaved in the list, and (0, 3) listed twice: grouping must
// not assume sorted input and must count a repeated target once.
TEST(McfGolden, InterleavedSourcesAndRepeatedPair) {
  graph::Graph g(6);
  for (int v = 0; v < 6; ++v) g.add_edge(v, (v + 1) % 6);
  g.add_edge(0, 3);
  g.add_edge(1, 4);
  const std::vector<Commodity> cs = {{0, 3, 1.0}, {2, 5, 0.5}, {0, 4, 1.0}, {1, 3, 2.0},
                                     {2, 0, 1.0}, {0, 3, 1.0}, {5, 1, 1.5}, {1, 5, 1.0}};
  expect_golden(g, cs, {}, {0x1.38a65d38a65d3p-1, 0x1.48d441f700751p-1, 120, false, false, 3608});
}

TEST(McfGolden, DecideAbove) {
  const auto ft = topo::build_fattree(4);
  Rng rng(7);
  const auto cs = permutation_commodities(ft, rng);
  expect_golden(ft.switches(), cs, decide_at(0.9),
                {0x1.d1745d1745d17p-1, 0x1.1af60faf07999p+0, 10, true, false, 1596});
}

TEST(McfGolden, DecideBelow) {
  const auto ft = topo::build_fattree(4);
  Rng rng(7);
  const auto cs = permutation_commodities(ft, rng);
  expect_golden(ft.switches(), cs, decide_at(1.1),
                {0x1.ef7bdef7bdef8p-1, 0x1.17a3b76dc5262p+0, 30, false, true, 5009});
}

// The smoke instance `bench_mcf_scaling --switches 80 --degree 8` solves.
TEST(McfGolden, McfScalingSmokeInstance) {
  Rng rng(1);
  const auto topo = topo::build_jellyfish(
      {.num_switches = 80, .ports_per_switch = 12, .network_degree = 8}, rng);
  const auto cs = permutation_commodities(topo, rng);
  ASSERT_EQ(cs.size(), 312u);
  expect_golden(topo.switches(), cs, {},
                {0x1.7c93d9ab1f7c9p-1, 0x1.9be63ecca793ep-1, 140, false, false, 889533});
}

// The fluid_mcf fat-tree shape with 10% of its links failed: uneven
// degrees and many equal-length ties in the first phase, so the pop order
// among tied nodes decides the paths.
TEST(McfGolden, FatTreeK8FailedLinks) {
  auto ft = topo::build_fattree(8);
  Rng rng(3);
  ASSERT_EQ(topo::fail_random_links(ft, 0.1, rng), 25);
  const auto cs = permutation_commodities(ft, rng);
  McfOptions opts;
  opts.max_phases = 100;
  opts.convergence_tol = 0;
  expect_golden(ft.switches(), cs, opts,
                {0x1.79435e50d7943p-1, 0x1.bceb874646ab4p-1, 100, false, false, 266256});
}

// Decision mode evaluates the dual bound after every phase, so each phase
// but the first starts at lengths a full sweep has just searched.
TEST(McfGolden, JellyfishDecideEveryPhase) {
  Rng rng(42);
  const auto topo = topo::build_jellyfish(
      {.num_switches = 30, .ports_per_switch = 10, .network_degree = 6}, rng);
  const auto cs = permutation_commodities(topo, rng);
  expect_golden(topo.switches(), cs, decide_at(0.66),
                {0x1.522c3f35ba782p-1, 0x1.6a7860e40407ep-1, 107, true, false, 95768});
}

// The default instance `bench_mcf_scaling` solves (200 switches, degree
// 12), capped at 20 phases to keep the test short.
TEST(McfGolden, McfScalingDefaultInstance) {
  Rng rng(1);
  const auto topo = topo::build_jellyfish(
      {.num_switches = 200, .ports_per_switch = 16, .network_degree = 12}, rng);
  const auto cs = permutation_commodities(topo, rng);
  ASSERT_EQ(cs.size(), 788u);
  McfOptions opts;
  opts.max_phases = 20;
  expect_golden(topo.switches(), cs, opts,
                {0x1.6db6db6db6db7p-1, 0x1.2cb933c236c4ep+0, 20, false, false, 805678});
}

// A hub joined to 72 leaves that also form a ring: the hub has more than 64
// arcs, so relaxing it spans two 64-arc chunks.
TEST(McfGolden, HubWithMoreThan64Arcs) {
  constexpr int kLeaves = 72;
  graph::Graph g(kLeaves + 1);
  for (int v = 1; v <= kLeaves; ++v) g.add_edge(0, v);
  for (int v = 1; v <= kLeaves; ++v) g.add_edge(v, v % kLeaves + 1);
  std::vector<Commodity> cs;
  for (int v = 1; v <= kLeaves; ++v) cs.push_back({v, (v + 28) % kLeaves + 1, 1.0});
  cs.push_back({0, 37, 2.0});
  expect_golden(g, cs, {},
                {0x1.de3de3de3de3ep-1, 0x1.0cceefe81e7abp+0, 180, false, false, 732920});
}

// --- restricted golden results ---
//
// Exact results of the path-restricted solver, recorded as hex-float
// literals from the solver as it stood when it ran its own copy of the phase
// loop. Each case pins the result and the exact restricted.phases and
// restricted.path_evals counts, so a change to the stopping policy or to the
// pricing schedule shows here.

struct RestrictedGoldenCase {
  double lambda;
  double lambda_upper;
  int phases;
  bool decided_above;
  bool decided_below;
  std::int64_t path_evals;  // restricted.path_evals: allowed-path pricings
};

void expect_restricted_golden(const graph::Graph& g, const std::vector<Commodity>& cs,
                              const routing::RoutingSpec& spec, const McfOptions& opts,
                              const RestrictedGoldenCase& want) {
  ObsOn on;
  auto routes = routing::make_path_provider(g, spec);
  const McfResult got = restricted_max_concurrent_flow(g, cs, *routes, opts);
  EXPECT_EQ(got.lambda, want.lambda);
  EXPECT_EQ(got.lambda_upper, want.lambda_upper);
  EXPECT_EQ(got.phases, want.phases);
  EXPECT_EQ(got.decided_above, want.decided_above);
  EXPECT_EQ(got.decided_below, want.decided_below);
  EXPECT_EQ(counter_value("restricted.path_evals"), want.path_evals);
  EXPECT_EQ(counter_value("restricted.phases"), want.phases);
  EXPECT_EQ(counter_value("restricted.solves"), 1);
  EXPECT_EQ(counter_value("restricted.undecided"), 0);
}

// A Jellyfish of 20 switches with 8 ports each, and one server permutation,
// both drawn from Rng(3).
topo::Topology small_jellyfish(int servers, std::vector<Commodity>& cs) {
  Rng rng(3);
  auto topo = topo::build_jellyfish_with_servers(20, 8, servers, rng);
  cs = permutation_commodities(topo, rng);
  return topo;
}

TEST(RestrictedGolden, JellyfishKsp8) {
  std::vector<Commodity> cs;
  const auto topo = small_jellyfish(40, cs);
  expect_restricted_golden(topo.switches(), cs, {"ksp", 8}, {},
                           {0x1.16aefcc26e2d6p+0, 0x1.4c21865deee98p+0, 90, false, false, 31200});
}

TEST(RestrictedGolden, FatTreeK6Ecmp8) {
  const auto ft = topo::build_fattree(6);
  Rng rng(11);
  const auto cs = permutation_commodities(ft, rng);
  expect_restricted_golden(ft.switches(), cs, {"ecmp", 8}, {},
                           {0x1.999999999999ap-1, 0x1.0d38b02013d7dp+0, 20, false, false, 8900});
}

// Dual checks after phases 4 and 8; ECMP's bracket stays far wider than the
// 5% gap, so the plateau rule ends the solve at the second check.
TEST(RestrictedGolden, JellyfishEcmp8PlateauExit) {
  std::vector<Commodity> cs;
  const auto topo = small_jellyfish(40, cs);
  McfOptions opts;
  opts.convergence_window = 4;
  expect_restricted_golden(topo.switches(), cs, {"ecmp", 8}, opts,
                           {0x1p-1, 0x1.594d80781419ep+0, 8, false, false, 759});
}

// 70 servers: the primal first reaches 0.5 after 42 phases of dual checks.
TEST(RestrictedGolden, DecideAbove) {
  std::vector<Commodity> cs;
  const auto topo = small_jellyfish(70, cs);
  expect_restricted_golden(topo.switches(), cs, {"ksp", 8}, decide_at(0.5),
                           {0x1p-1, 0x1.350d65a5c4213p-1, 42, true, false, 43496});
}

TEST(RestrictedGolden, DecideBelow) {
  const auto ft = topo::build_fattree(6);
  Rng rng(11);
  const auto cs = permutation_commodities(ft, rng);
  expect_restricted_golden(ft.switches(), cs, {"ecmp", 8}, decide_at(1.1),
                           {0x1.999999999999ap-1, 0x1.188325d11d259p+0, 7, false, true, 5376});
}

// (0, 3) crosses the cut between {0, 1, 2} and {3, 4}: no allowed path.
TEST(RestrictedGolden, UnroutablePair) {
  graph::Graph split(5);
  split.add_edge(0, 1);
  split.add_edge(1, 2);
  split.add_edge(3, 4);
  const std::vector<Commodity> cs = {{0, 2, 1.0}, {0, 3, 1.0}, {3, 4, 1.0}};
  expect_restricted_golden(split, cs, {"ksp", 8}, decide_at(0.5),
                           {0.0, 0.0, 0, false, true, 0});
}

// --- edgeless graphs ---

TEST(McfEdgeless, PositiveDemandOnNoLinksDecidesBelow) {
  graph::Graph g(3);
  const std::vector<Commodity> cs = {{0, 1, 1.0}, {2, 0, 0.5}};
  const auto res = max_concurrent_flow(g, cs, {});
  EXPECT_EQ(res.lambda, 0.0);
  EXPECT_EQ(res.lambda_upper, 0.0);
  EXPECT_FALSE(res.decided_above);
  EXPECT_FALSE(res.decided_below);  // no threshold: no decision claimed

  const auto decided = max_concurrent_flow(g, cs, decide_at(0.5));
  EXPECT_EQ(decided.lambda, 0.0);
  EXPECT_EQ(decided.lambda_upper, 0.0);
  EXPECT_FALSE(decided.decided_above);
  EXPECT_TRUE(decided.decided_below);
}

// --- search counter and span args ---

// The args of the last span named `name` in the trace, or nullptr.
const json::Value* last_span_args(const json::Value& trace, const std::string& name) {
  const json::Value* args = nullptr;
  for (const json::Value& ev : trace.find("traceEvents")->as_array()) {
    if (ev.find("name")->as_string() == name) args = ev.find("args");
  }
  return args;
}

// A decide-mode solve that stops at max_phases before either certificate
// crosses the threshold counts in <solver>.undecided and carries decided=0
// on its span; a decided one carries decided=1 and counts nothing. A solve
// outside decide mode carries no decided arg.
TEST(McfDecision, UndecidedSolvesAreCountedAndMarked) {
  const auto ft = topo::build_fattree(4);
  Rng rng(7);
  const auto cs = permutation_commodities(ft, rng);
  std::vector<Commodity> small_cs;
  const auto small = small_jellyfish(70, small_cs);
  auto routes = routing::make_path_provider(small.switches(), {"ksp", 8});
  // Checks one solve run under ObsOn: its flags, <solver>.undecided and the
  // decided arg on its span. undecided -1 means outside decide mode.
  auto expect_marked = [](const McfResult& res, const char* solver, int undecided) {
    const std::string prefix(solver);
    EXPECT_EQ(res.decided_above || res.decided_below, undecided == 0);
    EXPECT_EQ(counter_value((prefix + ".undecided").c_str()), std::max(undecided, 0));
    const json::Value trace = obs::trace_to_json();
    const json::Value* args = last_span_args(trace, prefix + ".solve");
    ASSERT_NE(args, nullptr);
    const json::Value* decided = args->find("decided");
    if (undecided < 0) {
      EXPECT_EQ(decided, nullptr);
    } else {
      ASSERT_NE(decided, nullptr);
      EXPECT_EQ(decided->as_int(), 1 - undecided);
    }
  };
  struct Case {
    const char* name;
    int max_phases;
    int undecided;
  };
  // One phase decides neither solve; uncapped, both decide.
  for (const Case& c : {Case{"capped", 1, 1}, Case{"decided", 250, 0}, Case{"optimize", 250, -1}}) {
    SCOPED_TRACE(c.name);
    const bool deciding = c.undecided >= 0;
    McfOptions opts = decide_at(deciding ? 0.9 : -1.0);
    opts.max_phases = c.max_phases;
    {
      ObsOn on;
      expect_marked(max_concurrent_flow(ft.switches(), cs, opts), "mcf", c.undecided);
    }
    if (deciding) opts.decide_threshold = 0.5;
    ObsOn on;
    expect_marked(restricted_max_concurrent_flow(small.switches(), small_cs, *routes, opts),
                  "restricted", c.undecided);
  }
}

TEST(McfSearches, OneSearchPerDistinctSourcePerSweep) {
  // One link; three commodities from two sources. Every commodity fits in
  // one round, so each of the 5 phases is one round of 2 searches. With 5
  // phases no periodic dual check fires, so no phase starts at lengths a
  // dual sweep has already searched, and the final dual bound, which follows
  // an apply, adds one more sweep: 2 x (5 + 1) = 12 searches, at any thread
  // count.
  graph::Graph g(2);
  g.add_edge(0, 1);
  const std::vector<Commodity> cs = {{0, 1, 1.0}, {1, 0, 1.0}, {0, 1, 0.5}};
  McfOptions opts;
  opts.max_phases = 5;
  for (int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    ObsOn on;
    const auto res = solve_with_threads(g, cs, opts, threads);
    EXPECT_EQ(res.phases, 5);
    EXPECT_EQ(counter_value("mcf.rounds"), 5);
    EXPECT_EQ(counter_value("mcf.searches"), 12);
  }
}

// A dual bound sweeps every commodity at the lengths the next round starts
// from, so the first round of the next phase, and a final bound right after
// a check, reuse that sweep: each reused sweep saves one search per distinct
// source. Rounds and phases are as before; only the searches drop.
TEST(McfSearches, PhaseStartReusesDualSweep) {
  // Sources 0, 1, 2 and 5: 4 searches per full sweep.
  graph::Graph g(6);
  for (int v = 0; v < 6; ++v) g.add_edge(v, (v + 1) % 6);
  g.add_edge(0, 3);
  g.add_edge(1, 4);
  const std::vector<Commodity> cs = {{0, 3, 1.0}, {2, 5, 0.5}, {0, 4, 1.0}, {1, 3, 2.0},
                                     {2, 0, 1.0}, {0, 3, 1.0}, {5, 1, 1.5}, {1, 5, 1.0}};
  McfOptions periodic;
  periodic.convergence_window = 4;
  struct Case {
    const char* name;
    McfOptions opts;
    int phases;
    std::int64_t rounds;
    std::int64_t searches;
  };
  const std::vector<Case> cases = {
      // Checks after phases 4 and 8; the plateau test stops the solve at
      // the second. Sweeping afresh every time costs 60 searches; phase
      // 5's first round and the final bound reuse the two dual sweeps:
      // 60 - 2 x 4 = 52.
      {"periodic", periodic, 8, 16, 52},
      // A dual bound after every phase, until it decides below after phase
      // 68. Sweeping afresh every time costs 680 searches; the first round
      // of phases 2-68 reuses the bound before it: 680 - 67 x 4 = 412.
      {"decide", decide_at(0.65), 68, 136, 412}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (int threads : {1, 8}) {
      SCOPED_TRACE(threads);
      ObsOn on;
      const auto res = solve_with_threads(g, cs, c.opts, threads);
      EXPECT_EQ(res.phases, c.phases);
      EXPECT_EQ(counter_value("mcf.phases"), c.phases);
      EXPECT_EQ(counter_value("mcf.rounds"), c.rounds);
      EXPECT_EQ(counter_value("mcf.searches"), c.searches);
    }
  }
}

// The mcf.solve span carries phases and searches on every exit, and every
// exit counts one solve: normal, decided above, decided below, disconnected,
// edgeless and empty (no commodity with positive demand).
TEST(McfSearches, SolveSpanCarriesPhasesAndSearchesOnEveryExit) {
  const auto ft = topo::build_fattree(4);
  Rng rng(7);
  const auto cs = permutation_commodities(ft, rng);
  graph::Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  const std::vector<Commodity> cut = {{0, 1, 1.0}, {0, 2, 1.0}};
  const graph::Graph edgeless(2);
  const std::vector<Commodity> one = {{0, 1, 1.0}};
  const std::vector<Commodity> zero = {{0, 1, 0.0}, {1, 0, 0.0}};
  struct Case {
    const char* name;
    const graph::Graph& g;
    const std::vector<Commodity>& cs;
    McfOptions opts;
  };
  const std::vector<Case> cases = {{"normal", ft.switches(), cs, {}},
                                   {"above", ft.switches(), cs, decide_at(0.9)},
                                   {"below", ft.switches(), cs, decide_at(1.1)},
                                   {"disconnected", split, cut, decide_at(0.5)},
                                   {"edgeless", edgeless, one, decide_at(0.5)},
                                   {"empty", ft.switches(), zero, decide_at(0.5)}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::int64_t searches = 0;
    std::int64_t settled = 0;
    for (int threads : {1, 8}) {
      ObsOn on;
      const auto res = solve_with_threads(c.g, c.cs, c.opts, threads);
      const json::Value trace = obs::trace_to_json();
      const json::Value* args = last_span_args(trace, "mcf.solve");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(counter_value("mcf.solves"), 1);
      ASSERT_NE(args->find("phases"), nullptr);
      ASSERT_NE(args->find("searches"), nullptr);
      ASSERT_NE(args->find("settled"), nullptr);
      EXPECT_EQ(args->find("phases")->as_int(), res.phases);
      EXPECT_EQ(args->find("searches")->as_int(), counter_value("mcf.searches"));
      EXPECT_EQ(args->find("settled")->as_int(), counter_value("mcf.settled"));
      if (threads == 1) {
        searches = counter_value("mcf.searches");
        settled = counter_value("mcf.settled");
      }
      EXPECT_EQ(counter_value("mcf.searches"), searches) << threads;
      EXPECT_EQ(counter_value("mcf.settled"), settled) << threads;
    }
  }
}

}  // namespace
}  // namespace jf::flow
