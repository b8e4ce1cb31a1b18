// Quickstart: describe a Jellyfish experiment as data, run it, read it.
//
//   $ ./quickstart
//
// One eval::Scenario holds three networks on the same 12-port switches: a
// freshly built Jellyfish (§3), the same design grown incrementally by two
// racks (§4.2), and one with 10% of its links failed (Fig. 8). A single
// Engine::run evaluates every row under path statistics, optimal fluid
// throughput, bisection bandwidth, and the §6.2 cabling layout.
#include <iostream>
#include <string>

#include "common/stats.h"
#include "common/table.h"
#include "eval/engine.h"

int main() {
  using namespace jf;
  using eval::Metric;

  // 40 switches x 12 ports, 160 servers (4 per switch, network degree 8).
  eval::Scenario s;
  s.name = "quickstart";
  s.topologies = {
      {.family = "jellyfish", .label = "built", .switches = 40, .ports = 12, .servers = 160},
      // Built at 40 switches, then grown one 4-server rack at a time to 42.
      {.family = "jellyfish-incr", .label = "grown", .switches = 42, .ports = 12,
       .network_degree = 8, .grow_from = 40},
      {.family = "jellyfish", .label = "failed-10%", .switches = 40, .ports = 12,
       .servers = 160, .fail_links = 0.10},
  };
  s.metrics = {Metric::kPathStats, Metric::kThroughput, Metric::kBisection, Metric::kCabling};
  s.seeds = {7};
  s.samples_per_seed = 3;  // throughput averages three random permutations

  const eval::Report report = eval::Engine().run(s);

  print_banner(std::cout, "Jellyfish quickstart: build, grow, fail, lay out");
  Table table({"network", "servers", "mean_path", "diameter", "throughput", "bisection",
               "switch_cables", "optical_%", "bundles"});
  for (int t = 0; t < static_cast<int>(s.topologies.size()); ++t) {
    auto mean = [&](const std::string& metric) {
      return summarize(report.series(t, -1, metric)).mean;
    };
    table.add_row({report.topology_labels[static_cast<std::size_t>(t)],
                   Table::fmt(mean("cable_server_count"), 0), Table::fmt(mean("mean_path")),
                   Table::fmt(mean("diameter"), 0), Table::fmt(mean("throughput")),
                   Table::fmt(mean("bisection")), Table::fmt(mean("cable_switch_count"), 0),
                   Table::fmt(100.0 * mean("cable_optical_frac"), 1),
                   Table::fmt(mean("cable_bundles"), 0)});
  }
  table.print(std::cout);
  std::cout << "\nthroughput 1.0 = every NIC saturated. bisection is the analytic lower\n"
               "bound on the uniform-degree rows but a Kernighan-Lin cut estimate on the\n"
               "failed row, so that one is not comparable. The same Scenario loads from\n"
               "JSON: see scenarios/ and jf_eval.\n";
  return 0;
}
