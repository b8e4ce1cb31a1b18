// Expansion planning: grow a data center under per-stage budgets and compare
// Jellyfish's random-graph expansion against a structure-preserving Clos
// upgrade path (the paper's §4.2 / Fig. 7 scenario as a CLI tool).
//
//   $ ./expansion_planner
//
// Scenario: a 480-server cluster (34 x 24-port switches) grows to 720
// servers, then receives four capacity-only upgrades. One GrowthSchedule is
// evaluated under both growth policies by the engine's expansion metrics;
// per-stage values come back as "_s<stage>" series (stage 0 is the
// initial build).
#include <iostream>
#include <string>
#include <string_view>

#include "common/table.h"
#include "eval/engine.h"

int main() {
  using namespace jf;
  using eval::Metric;

  eval::Scenario s;
  s.name = "expansion planner";
  s.topologies = {{.family = "jellyfish", .label = "jellyfish", .growth_policy = "jellyfish"},
                  {.family = "jellyfish", .label = "clos", .growth_policy = "clos"}};
  s.metrics = {Metric::kExpansionCost, Metric::kRewiredCables, Metric::kExpansionBisection};
  s.seeds = {2024};
  s.growth.initial = {34, 24, 480};  // 34 switches x 24 ports, 480 servers
  s.growth.steps = {
      {.min_servers = 720, .budget = 30000.0},  // stage 1: +240 servers plus whatever fits
      {.budget = 30000.0},                      // stages 2-5: network capacity only
      {.budget = 30000.0},
      {.budget = 30000.0},
      {.budget = 30000.0},
  };

  const auto report = eval::Engine().run(s);
  // Row t's value of per-step series `metric` at `stage` (one seed, so one
  // sample).
  auto at = [&](int t, std::string_view metric, std::size_t stage) {
    const eval::SampleSeries series{metric, eval::SampleIndex::kStep};
    return report.series(t, -1, eval::sample_name(series, static_cast<int>(stage))).at(0);
  };

  print_banner(std::cout, "Expansion plan: Jellyfish vs structured Clos");
  Table table({"stage", "jf_cost", "jf_switches", "jf_servers", "jf_bisection", "clos_cost",
               "clos_switches", "clos_bisection"});
  for (std::size_t i = 0; i <= s.growth.steps.size(); ++i) {
    table.add_row({Table::fmt(i), Table::fmt(at(0, "expansion_cost", i), 0),
                   Table::fmt(at(0, "expansion_switches", i), 0),
                   Table::fmt(at(0, "expansion_servers", i), 0),
                   Table::fmt(at(0, "expansion_bisection", i)),
                   Table::fmt(at(1, "expansion_cost", i), 0),
                   Table::fmt(at(1, "expansion_switches", i), 0),
                   Table::fmt(at(1, "expansion_bisection", i))});
  }
  table.print(std::cout);

  const std::size_t last = s.growth.steps.size();
  std::cout << "\nfinal Jellyfish network: " << at(0, "expansion_switches", last)
            << " switches hosting " << at(0, "expansion_servers", last)
            << " servers, normalized bisection bandwidth " << at(0, "expansion_bisection", last)
            << "\n";
  std::cout << "cables touched in the last stage: " << at(0, "cables_touched", last)
            << " (expansion rewiring is local and incremental)\n";
  return 0;
}
