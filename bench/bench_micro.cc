// Microbenchmarks (google-benchmark) for the core computational kernels:
// RRG construction, expansion splicing, APSP, Yen k-shortest paths, ECMP
// path enumeration, Garg-Könemann MCF, the packet
// simulator's event queue, and its event throughput.
#include <benchmark/benchmark.h>

#include <queue>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "flow/mcf.h"
#include "flow/throughput.h"
#include "graph/adjacency.h"
#include "graph/algorithms.h"
#include "graph/ecmp.h"
#include "graph/yen.h"
#include "routing/path_provider.h"
#include "sim/event_queue.h"
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
// paths, so the path DFS and the ECMP DAG walk are tie-heavy.
jf::graph::Graph fattree_k14() { return jf::topo::build_fattree(14).switches(); }

// One path set per iteration, computed the way a PathProvider does: one sorted
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

auto ksp8 = [](const jf::graph::SortedAdjacency& adj, int t, jf::graph::SearchScratch& sc) {
  return jf::graph::k_shortest_paths(adj, 0, t, 8, sc);
};
auto ecmp8 = [](const jf::graph::SortedAdjacency& adj, int t, jf::graph::SearchScratch& sc) {
  return jf::graph::equal_cost_paths(adj, 0, t, 8, sc);
};

void BM_KShortest(benchmark::State& state) { path_sets(state, jellyfish_245(), ksp8); }
BENCHMARK(BM_KShortest);

void BM_KShortestFatTree(benchmark::State& state) { path_sets(state, fattree_k14(), ksp8); }
BENCHMARK(BM_KShortestFatTree);

void BM_EcmpPaths(benchmark::State& state) { path_sets(state, jellyfish_245(), ecmp8); }
BENCHMARK(BM_EcmpPaths);

void BM_EcmpPathsFatTree(benchmark::State& state) { path_sets(state, fattree_k14(), ecmp8); }
BENCHMARK(BM_EcmpPathsFatTree);

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

// The binary heap the calendar queue replaced, behind the same interface:
// the hold benchmark's baseline.
struct HeapQueue {
  std::priority_queue<jf::sim::Event, std::vector<jf::sim::Event>, jf::sim::EventAfter> heap;
  void push(jf::sim::Event&& ev) { heap.push(std::move(ev)); }
  jf::sim::TimeNs top_time() const { return heap.top().time; }
  jf::sim::Event pop() {
    jf::sim::Event ev = heap.top();
    heap.pop();
    return ev;
  }
};

// Hold model of one simulator shard: ~1000 pending events; each step pops
// the minimum and pushes one event ahead of it with the simulator's time
// mix (a 320 ns ACK serialization, a 5 us wire delay, a 12 us MTU
// serialization, and now and then an RTO timer 8 ms or more out).
template <class Queue>
void BM_EventQueueHold(benchmark::State& state) {
  constexpr int kPending = 1000;
  jf::Rng rng(5);
  std::vector<jf::sim::TimeNs> delays(4096);
  for (auto& d : delays) {
    const double u = rng.uniform();
    d = u < 0.3 ? 320 : u < 0.6 ? 5'000 : u < 0.98 ? 12'000 : 8'000'000 + rng.uniform_int(0, 8'000'000);
  }
  Queue q;
  std::uint64_t seq = 0;
  auto push_at = [&](jf::sim::TimeNs t) {
    jf::sim::Event ev;
    ev.time = t;
    ev.order = jf::sim::make_order(seq % 64, seq);
    ++seq;
    q.push(std::move(ev));
  };
  for (int i = 0; i < kPending; ++i) push_at(delays[static_cast<std::size_t>(i)] + i * 20);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.top_time());
    const jf::sim::Event ev = q.pop();
    push_at(ev.time + delays[next++ & 4095]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_EventQueueHold, jf::sim::EventQueue<>);
BENCHMARK_TEMPLATE(BM_EventQueueHold, HeapQueue);

void BM_PacketSim(benchmark::State& state) {
  jf::Rng rng(7);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = 40, .ports_per_switch = 8, .network_degree = 4}, rng);
  for (auto _ : state) {
    jf::Rng r = rng.fork(static_cast<std::uint64_t>(state.iterations()));
    jf::sim::WorkloadConfig cfg;
    cfg.transport = jf::sim::Transport::kMptcp;
    cfg.subflows = 4;
    cfg.warmup_ns = 2 * jf::sim::kMillisecond;
    cfg.measure_ns = 5 * jf::sim::kMillisecond;
    auto routes = jf::routing::make_path_provider(topo.switches(), {"ksp", 8});
    auto res = jf::sim::run_permutation_workload(topo, cfg, *routes, r);
    benchmark::DoNotOptimize(res.mean_flow_throughput);
  }
  state.SetLabel("160 servers, 7ms sim");
}
BENCHMARK(BM_PacketSim)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
