// Microbenchmarks (google-benchmark) for the core computational kernels:
// RRG construction, expansion splicing, APSP, Yen k-shortest paths, ECMP
// path enumeration, Dinic max-flow, Garg-Könemann MCF, and the packet
// simulator's event throughput.
#include <benchmark/benchmark.h>

#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "flow/mcf.h"
#include "flow/throughput.h"
#include "graph/adjacency.h"
#include "graph/algorithms.h"
#include "graph/ecmp.h"
#include "graph/maxflow.h"
#include "graph/yen.h"
#include "sim/workload.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace {

void BM_BuildJellyfish(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  jf::Rng rng(1);
  for (auto _ : state) {
    jf::Rng r = rng.fork(static_cast<std::uint64_t>(state.iterations()));
    auto topo = jf::topo::build_jellyfish(
        {.num_switches = n, .ports_per_switch = 48, .network_degree = 36}, r);
    benchmark::DoNotOptimize(topo.num_servers());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BuildJellyfish)->Arg(100)->Arg(1000);

void BM_ExpandAddSwitch(benchmark::State& state) {
  jf::Rng rng(2);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = 200, .ports_per_switch = 24, .network_degree = 12}, rng);
  for (auto _ : state) {
    jf::topo::expand_add_switch(topo, 24, 12, 12, rng);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpandAddSwitch);

void BM_PathLengthStats(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  jf::Rng rng(3);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = n, .ports_per_switch = 24, .network_degree = 12}, rng);
  for (auto _ : state) {
    auto stats = jf::graph::path_length_stats(topo.switches());
    benchmark::DoNotOptimize(stats.mean);
  }
}
BENCHMARK(BM_PathLengthStats)->Arg(200)->Arg(800);

// The 245-switch Jellyfish of the ksp_routed e2e workload (k = 14 ports).
jf::graph::Graph jellyfish_245() {
  jf::Rng rng(4);
  return jf::topo::build_jellyfish(
             {.num_switches = 245, .ports_per_switch = 14, .network_degree = 11}, rng)
      .switches();
}

// Fat-tree k=14 over the same switch count: every pair has many equal-cost
// paths, so spur searches and the ECMP DAG walk are tie-heavy.
jf::graph::Graph fattree_k14() { return jf::topo::build_fattree(14).switches(); }

// One path set per iteration, computed the way a PathCache does: one sorted
// adjacency and one scratch reused across pairs. Targets cycle through every
// other switch from source 0.
template <typename Kernel>
void path_sets(benchmark::State& state, const jf::graph::Graph& g, Kernel kernel) {
  const jf::graph::SortedAdjacency adj(g);
  jf::graph::SearchScratch scratch;
  const int n = g.num_nodes();
  int t = 1;
  for (auto _ : state) {
    auto paths = kernel(adj, t, scratch);
    benchmark::DoNotOptimize(paths.size());
    t = 1 + (t + 37) % (n - 1);
  }
}

auto yen8 = [](const jf::graph::SortedAdjacency& adj, int t, jf::graph::SearchScratch& sc) {
  return jf::graph::k_shortest_paths(adj, 0, t, 8, sc);
};
auto ecmp8 = [](const jf::graph::SortedAdjacency& adj, int t, jf::graph::SearchScratch& sc) {
  return jf::graph::equal_cost_paths(adj, 0, t, 8, sc);
};

void BM_YenKShortest(benchmark::State& state) { path_sets(state, jellyfish_245(), yen8); }
BENCHMARK(BM_YenKShortest);

void BM_YenKShortestFatTree(benchmark::State& state) { path_sets(state, fattree_k14(), yen8); }
BENCHMARK(BM_YenKShortestFatTree);

void BM_EcmpPaths(benchmark::State& state) { path_sets(state, jellyfish_245(), ecmp8); }
BENCHMARK(BM_EcmpPaths);

void BM_EcmpPathsFatTree(benchmark::State& state) { path_sets(state, fattree_k14(), ecmp8); }
BENCHMARK(BM_EcmpPathsFatTree);

void BM_DinicMaxflow(benchmark::State& state) {
  jf::Rng rng(5);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = 200, .ports_per_switch = 24, .network_degree = 12}, rng);
  auto net = jf::graph::FlowNetwork::from_graph(topo.switches(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.max_flow(0, 199));
  }
}
BENCHMARK(BM_DinicMaxflow);

void BM_GargKonemannMcf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  jf::Rng rng(6);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = n, .ports_per_switch = 12, .network_degree = 7}, rng);
  for (auto _ : state) {
    jf::Rng r = rng.fork(static_cast<std::uint64_t>(state.iterations()));
    benchmark::DoNotOptimize(jf::flow::permutation_throughput(topo, r, {}));
  }
}
BENCHMARK(BM_GargKonemannMcf)->Arg(40)->Arg(120)->Unit(benchmark::kMillisecond);

// Within-solve scaling: one large fixed MCF instance, worker budget on the
// x-axis. Results are bit-identical at every budget (see test_mcf_parallel);
// this curve tracks the wall-clock payoff. bench_mcf_scaling emits the same
// measurement as BENCH_mcf.json for the recorded perf trajectory.
void BM_GargKonemannMcfParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  jf::Rng rng(6);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = 160, .ports_per_switch = 16, .network_degree = 10}, rng);
  auto tm = jf::traffic::random_permutation(topo.num_servers(), rng);
  auto cs = jf::traffic::to_switch_commodities(topo, tm);
  for (auto _ : state) {
    jf::parallel::WorkBudget budget(threads - 1);
    auto res = jf::flow::max_concurrent_flow(topo.switches(), cs, {}, &budget);
    benchmark::DoNotOptimize(res.lambda);
  }
  state.SetLabel("160 switches, budget " + std::to_string(threads));
}
BENCHMARK(BM_GargKonemannMcfParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_PacketSim(benchmark::State& state) {
  jf::Rng rng(7);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = 40, .ports_per_switch = 8, .network_degree = 4}, rng);
  for (auto _ : state) {
    jf::Rng r = rng.fork(static_cast<std::uint64_t>(state.iterations()));
    jf::sim::WorkloadConfig cfg;
    cfg.routing = {jf::routing::Scheme::kKsp, 8};
    cfg.transport = jf::sim::Transport::kMptcp;
    cfg.subflows = 4;
    cfg.warmup_ns = 2 * jf::sim::kMillisecond;
    cfg.measure_ns = 5 * jf::sim::kMillisecond;
    auto res = jf::sim::run_permutation_workload(topo, cfg, r);
    benchmark::DoNotOptimize(res.mean_flow_throughput);
  }
  state.SetLabel("160 servers, 7ms sim");
}
BENCHMARK(BM_PacketSim)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
