// Figure 11: packet-level throughput of same-equipment fat-tree vs
// Jellyfish pairs.
//
// Ported onto the experiment farm: scenarios/fig1x.json pairs each fat-tree
// k with the equal-equipment Jellyfish (same switch count and port count)
// hosting the same server total, and runs both under MPTCP — the fat-tree
// on ECMP-8, Jellyfish compared on 8-shortest-paths. The paired traffic
// matrices (identical per seed across routings and topologies of a point)
// make the comparison flow-by-flow, via the flow_stats per-flow percentiles.
// Paper shape: Jellyfish meets or beats the fat-tree's packet-level
// throughput with equipment to spare — the headroom the paper converts into
// ~15-25% more servers at equal throughput.
#include <cmath>
#include <ostream>

#include "eval/bench_driver.h"

namespace {

void shape_note(const jf::eval::SweepReport& report, std::ostream& os) {
  using jf::eval::mean_for;
  os << "\npaper shape: jellyfish (8-SP) >= fat-tree (ECMP) goodput on the same"
        " equipment and flows:\n";
  for (const auto& point : report.points) {
    const double ft = mean_for(point, "fattree", "sim_goodput", "ecmp");
    const double jf = mean_for(point, "jellyfish", "sim_goodput", "ksp");
    const double ft_min = mean_for(point, "fattree", "flow_tput_min", "ecmp");
    const double jf_min = mean_for(point, "jellyfish", "flow_tput_min", "ksp");
    if (std::isnan(ft) || std::isnan(jf) || ft <= 0.0) continue;
    os << "  " << point.label << ": jellyfish " << jf << " vs fat-tree " << ft
       << " -> headroom " << 100.0 * (jf / ft - 1.0) << "%";
    if (!std::isnan(ft_min) && !std::isnan(jf_min)) {
      os << " (worst flow " << jf_min << " vs " << ft_min << ")";
    }
    os << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  return jf::eval::sweep_bench_main(
      argc, argv,
      "Figure 11: same-equipment fat-tree vs jellyfish packet-level throughput",
      JF_SCENARIO_DIR "/fig1x.json", shape_note);
}
