// Ablation: how many paths does Jellyfish routing actually need?
//
// The paper fixes k = 8 shortest paths and 8 MPTCP subflows; this ablation
// sweeps both knobs on one oversubscribed Jellyfish to show where the
// returns flatten (the justification for the paper's choice). Expected
// shape: large jump from 1 -> 2-4 paths (escaping ECMP-style collisions),
// saturation around 8; subflows track path count until they exceed it.
#include <iostream>

#include "common/rng.h"
#include "common/table.h"
#include "flow/throughput.h"
#include "routing/path_provider.h"
#include "sim/workload.h"
#include "topo/jellyfish.h"

int main() {
  using namespace jf;
  Rng rng(8888);
  auto topo = topo::build_jellyfish(
      {.num_switches = 33, .ports_per_switch = 12, .network_degree = 7}, rng);
  Rng fr = rng.fork(1);
  const double fluid = flow::permutation_throughput(topo, fr, {});
  std::cout << "topology: " << topo.name() << ", fluid optimum " << fluid << "\n";

  print_banner(std::cout, "Ablation A: KSP path count k (MPTCP subflows = 8)");
  Table ka({"k_paths", "packet_throughput", "fraction_of_fluid"});
  for (int k : {1, 2, 4, 8, 16}) {
    sim::WorkloadConfig cfg;
    cfg.transport = sim::Transport::kMptcp;
    cfg.subflows = 8;
    auto routes = routing::make_path_provider(topo.switches(), {"ksp", k});
    Rng r = rng.fork(100 + k);
    auto res = sim::run_permutation_workload(topo, cfg, *routes, r);
    ka.add_row({Table::fmt(k), Table::fmt(res.mean_flow_throughput),
                Table::fmt(res.mean_flow_throughput / fluid)});
    std::cout << "  [k=" << k << " done]\n";
  }
  ka.print(std::cout);
  ka.print_csv(std::cout);

  print_banner(std::cout, "Ablation B: MPTCP subflow count (KSP k = 8)");
  Table sa({"subflows", "packet_throughput", "fraction_of_fluid"});
  auto ksp8 = routing::make_path_provider(topo.switches(), {"ksp", 8});
  for (int s : {1, 2, 4, 8}) {
    sim::WorkloadConfig cfg;
    cfg.transport = sim::Transport::kMptcp;
    cfg.subflows = s;
    Rng r = rng.fork(200 + s);
    auto res = sim::run_permutation_workload(topo, cfg, *ksp8, r);
    sa.add_row({Table::fmt(s), Table::fmt(res.mean_flow_throughput),
                Table::fmt(res.mean_flow_throughput / fluid)});
    std::cout << "  [subflows=" << s << " done]\n";
  }
  sa.print(std::cout);
  sa.print_csv(std::cout);
  std::cout << "\nexpected shape: biggest gain from 1 -> 4 paths/subflows, saturating by 8\n"
               "(the paper's operating point).\n";
  return 0;
}
