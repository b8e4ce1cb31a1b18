// Routing study: why ECMP is not enough for Jellyfish (paper §5).
//
//   $ ./routing_study
//
// On one Jellyfish network, compares ECMP-8 vs 8-shortest-path routing:
// per-link path diversity (Fig. 9's metric) and packet-level goodput under
// TCP and MPTCP (Table 1's metric).
#include <iostream>

#include "common/rng.h"
#include "common/table.h"
#include "flow/link_index.h"
#include "routing/diversity.h"
#include "routing/path_provider.h"
#include "sim/workload.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

int main() {
  using namespace jf;
  Rng rng(5);
  auto topo = topo::build_jellyfish(
      {.num_switches = 40, .ports_per_switch = 12, .network_degree = 8}, rng);
  std::cout << "network: " << topo.num_switches() << " switches, " << topo.num_servers()
            << " servers\n";

  // Path diversity under one permutation.
  auto tm = traffic::random_permutation(topo.num_servers(), rng);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (const auto& f : tm.flows) {
    pairs.emplace_back(topo.server_switch(f.src_server), topo.server_switch(f.dst_server));
  }
  flow::LinkIndex links(topo.switches());

  print_banner(std::cout, "Per-link path diversity (Fig. 9 metric)");
  Table div({"scheme", "links_on_<=2_paths", "max_paths_on_a_link"});
  const routing::RoutingSpec schemes[] = {{"ecmp", 8}, {"ksp", 8}};
  for (const auto& spec : schemes) {
    auto routes = routing::make_path_provider(topo.switches(), spec);
    auto counts = routing::link_path_counts(links, pairs, *routes);
    auto r = routing::ranked(counts);
    div.add_row({spec.label(), Table::fmt(routing::fraction_at_or_below(counts, 2) * 100, 1),
                 Table::fmt(r.back())});
  }
  div.print(std::cout);

  // Packet-level goodput.
  print_banner(std::cout, "Packet-level mean goodput (Table 1 metric)");
  Table tput({"routing", "transport", "goodput_pct"});
  for (const auto& spec : schemes) {
    const std::string rname = spec.label();
    auto routes = routing::make_path_provider(topo.switches(), spec);
    for (auto [tname, transport] : {std::pair{"tcp", sim::Transport::kTcp},
                                    std::pair{"mptcp-8", sim::Transport::kMptcp}}) {
      sim::WorkloadConfig cfg;
      cfg.transport = transport;
      cfg.subflows = 8;
      cfg.warmup_ns = 5 * sim::kMillisecond;
      cfg.measure_ns = 15 * sim::kMillisecond;
      Rng r = rng.fork(std::hash<std::string>{}(rname + tname));
      auto res = sim::run_permutation_workload(topo, cfg, *routes, r);
      tput.add_row({rname, tname, Table::fmt(res.mean_flow_throughput * 100, 1)});
    }
  }
  tput.print(std::cout);
  std::cout << "\nTakeaway (paper §5): k-shortest-path routing plus multipath transport\n"
               "unlocks capacity that ECMP leaves stranded on random graphs.\n";
  return 0;
}
