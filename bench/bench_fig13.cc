// Figure 13: per-flow fairness of routing + congestion control.
//
// scenarios/fig1x.json runs the same-equipment fat-tree/Jellyfish pairs
// under MPTCP with 8 subflows, the fat-tree on ECMP-8 and Jellyfish on
// 8-shortest-paths (the pairing Figs. 10-12 read too). This bench reads
// Jain's fairness index (sim_fairness) and the per-flow normalized
// throughput percentiles (flow_tput_*, from the flow_stats telemetry) for
// each pair. Paper shape: both topologies are similarly fair (Jain ~0.99:
// 0.991 fat-tree, 0.988 Jellyfish).
#include <ostream>
#include <string>

#include "common/table.h"
#include "eval/bench_driver.h"

namespace {

void shape_note(const jf::eval::SweepReport& report, std::ostream& os) {
  struct Pair {
    const char* topology;
    const char* routing;
  };
  const Pair pairs[] = {{"fattree", "ecmp"}, {"jellyfish", "ksp"}};
  os << "\npaper shape: both topologies similarly fair (Jain fat-tree 0.991,"
        " jellyfish 0.988):\n";
  jf::Table table({"point", "topology", "routing", "jain", "flow_min", "flow_p10", "flow_p50",
                   "flow_p90"});
  for (const auto& point : report.points) {
    for (const Pair& p : pairs) {
      auto mean = [&](const char* metric) {
        return jf::Table::fmt(jf::eval::mean_for(point, p.topology, metric, p.routing));
      };
      table.add_row({point.label, p.topology, p.routing, mean("sim_fairness"),
                     mean("flow_tput_min"), mean("flow_tput_p10"), mean("flow_tput_p50"),
                     mean("flow_tput_p90")});
    }
  }
  table.print(os);
}

}  // namespace

int main(int argc, char** argv) {
  return jf::eval::sweep_bench_main(
      argc, argv, "Figure 13: per-flow throughput spread + Jain fairness",
      JF_SCENARIO_DIR "/fig1x.json", shape_note);
}
