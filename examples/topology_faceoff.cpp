// Topology face-off: same switching equipment, different interconnects.
//
//   $ ./topology_faceoff
//
// One jf::eval Scenario compares three topology families under two routing
// schemes across a multi-seed batch — path lengths, optimal fluid
// throughput, and scheme-restricted throughput — plus a failure row of the
// fat-tree and the Jellyfish with 15% of links cut (Fig. 8): the paper's
// §4/§5 evaluation in one Engine::run call, parallelized across seeds.
#include <iostream>

#include "common/stats.h"
#include "common/table.h"
#include "eval/engine.h"
#include "topo/fattree.h"

int main() {
  using namespace jf;
  const int k = 8;  // fat-tree parameter: 80 switches, 128 servers
  const int switches = topo::fattree_switches(k);
  const int servers = topo::fattree_servers(k);

  eval::Scenario s;
  s.name = "topology faceoff";
  s.topologies = {
      {.family = "fattree", .fattree_k = k},
      {.family = "jellyfish", .switches = switches, .ports = k, .servers = servers},
      {.family = "swdc-ring", .switches = switches, .ports = k, .degree = 6,
       .servers_per_switch = 2},
      {.family = "fattree", .label = "fattree-fail15", .fattree_k = k, .fail_links = 0.15},
      {.family = "jellyfish", .label = "jellyfish-fail15", .switches = switches, .ports = k,
       .servers = servers, .fail_links = 0.15},
  };
  s.routings = {{"ecmp", 8}, {"ksp", 8}};
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kThroughput,
               eval::Metric::kRoutedThroughput};
  s.seeds = {11, 12};

  print_banner(std::cout, "Same-equipment topology comparison (one Scenario, one run)");
  const auto report = eval::Engine().run(s);
  report.to_table().print(std::cout);

  // Resilience (paper Fig. 8): each failure row against its intact twin,
  // on the same seeds and traffic matrices.
  print_banner(std::cout, "Optimal throughput after failing 15% of links");
  Table resil({"topology", "before", "after"});
  for (int t : {0, 1}) {
    const double before = summarize(report.series(t, -1, "throughput")).mean;
    const double after = summarize(report.series(t + 3, -1, "throughput")).mean;
    resil.add_row({report.topology_labels[static_cast<std::size_t>(t)], Table::fmt(before),
                   Table::fmt(after)});
  }
  resil.print(std::cout);
  std::cout << "\nTakeaway (paper §4): the random graph packs more capacity and degrades\n"
               "more gracefully than structured alternatives on identical hardware.\n";
  return 0;
}
