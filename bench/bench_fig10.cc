// Figure 10: packet-level (k-shortest paths + MPTCP) vs. fluid-optimal
// throughput on the same Jellyfish topologies.
//
// Ported onto the experiment farm: scenarios/fig1x.json runs the paired
// jellyfish/fat-tree sweep with the throughput (fluid MCF optimal),
// packet_sim, and flow_stats metrics; this bench derives the figure's
// headline ratio — simple 8-shortest-paths routing with MPTCP against the
// fluid optimum on the identical topologies and traffic matrices. Paper
// shape: ~86-90% of optimal at every size.
#include <cmath>
#include <ostream>

#include "eval/bench_driver.h"

namespace {

void shape_note(const jf::eval::SweepReport& report, std::ostream& os) {
  os << "\npaper shape: packet-level throughput ~86-90% of the fluid optimum:\n";
  for (const auto& point : report.points) {
    const double fluid = jf::eval::mean_for(point, "jellyfish", "throughput");
    const double packet = jf::eval::mean_for(point, "jellyfish", "sim_goodput", "ksp");
    if (std::isnan(fluid) || std::isnan(packet) || fluid <= 0.0) continue;
    os << "  " << point.label << ": packet " << packet << " vs fluid " << fluid
       << " -> ratio " << packet / fluid << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  return jf::eval::sweep_bench_main(
      argc, argv,
      "Figure 10: packet-level vs fluid-optimal throughput (same topology)",
      JF_SCENARIO_DIR "/fig1x.json", shape_note);
}
