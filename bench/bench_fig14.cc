// Figure 14: two-layer (container-localized) Jellyfish — throughput vs.
// fraction of links kept inside the pod/container.
//
// scenarios/fig14.json sweeps the twolayer row's local_fraction at three
// sizes (~160 / ~375 / ~720 servers, 16-port switches with 5 servers each),
// zipped with an unrestricted Jellyfish on the same equipment. No axis
// changes the reference row within a size, so cell memoization evaluates it
// once per size. This bench prints each point's throughput normalized to
// that reference.
//
// Paper shape: normalized to the unrestricted Jellyfish, capacity loses <3%
// with 50% of links localized and <6% at 60%, then falls off steeply as
// localization approaches 90%. (A fat-tree's local-link fraction is
// 0.5(1 + 1/k), ~53.6% — Jellyfish can localize more and still win.)
#include <cmath>
#include <limits>
#include <ostream>
#include <string_view>

#include "common/table.h"
#include "eval/bench_driver.h"

namespace {

// Value of the axis entry that swept `field` at this point, NaN if none did.
double coord(const jf::eval::SweepPointResult& point, std::string_view field) {
  for (const auto& [name, value] : point.coords) {
    if (name == field) return value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void shape_note(const jf::eval::SweepReport& report, std::ostream& os) {
  using jf::Table;
  os << "\npaper shape: <6% loss up to ~0.6 local fraction, steep drop by 0.9.\n";
  Table table({"servers", "local_frac", "throughput", "vs_unrestricted"});
  for (const auto& point : report.points) {
    const double tput = jf::eval::mean_for(point, "twolayer", "throughput");
    const double unrestricted = jf::eval::mean_for(point, "jellyfish", "throughput");
    if (std::isnan(tput) || std::isnan(unrestricted) || unrestricted <= 0.0) continue;
    table.add_row({Table::fmt(coord(point, "topology.servers"), 0),
                   Table::fmt(coord(point, "topology.local_fraction"), 1), Table::fmt(tput),
                   Table::fmt(tput / unrestricted)});
  }
  table.print(os);
}

}  // namespace

int main(int argc, char** argv) {
  return jf::eval::sweep_bench_main(
      argc, argv, "Figure 14: 2-layer Jellyfish throughput vs local-link fraction",
      JF_SCENARIO_DIR "/fig14.json", shape_note);
}
