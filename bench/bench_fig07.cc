// Figure 7: incremental-expansion cost-efficiency — Jellyfish vs. a
// LEGUP-style structured-Clos baseline.
//
// Ported onto the experiment farm: scenarios/fig07.json evaluates one
// GrowthSchedule (the paper's arc: 480 servers + 34 x 24-port switches,
// stage 1 adds 240 servers, stages 2+ add switches only, equal budgets)
// under both growth policies via the expansion metrics — per-step cumulative
// cost, rewired cables, and KL-scored bisection bandwidth land as
// expansion_*_s<step> rows. Paper shape: Jellyfish's bisection bandwidth at
// each budget is substantially higher — it reaches the baseline's final
// bandwidth at a fraction (~40-60%) of the cost.
#include <cmath>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "eval/bench_driver.h"

namespace {

// Per-step series for one growth-policy row, read back from the aggregate
// rows (step s0 is the initial build).
std::vector<double> step_series(const jf::eval::SweepPointResult& point,
                                std::string_view label, std::string_view metric) {
  std::vector<double> out;
  for (int s = 0;; ++s) {
    const double v = jf::eval::mean_for(point, label,
                                        std::string(metric) + "_s" + std::to_string(s));
    if (std::isnan(v)) break;
    out.push_back(v);
  }
  return out;
}

void shape_note(const jf::eval::SweepReport& report, std::ostream& os) {
  if (report.points.empty()) return;
  const auto& point = report.points.front();
  const auto jf_cost = step_series(point, "jellyfish", "expansion_cost");
  const auto jf_bis = step_series(point, "jellyfish", "expansion_bisection");
  const auto clos_cost = step_series(point, "clos", "expansion_cost");
  const auto clos_bis = step_series(point, "clos", "expansion_bisection");
  if (jf_bis.empty() || clos_bis.empty() || jf_cost.size() != jf_bis.size()) return;

  // Cost-to-match: what each design pays to reach the Clos baseline's final
  // bisection bandwidth. Note: LEGUP's code is not public, and this baseline
  // models an *idealized* LEGUP — exhaustive search, perfect foresight, no
  // reserved ports — so it is strictly stronger than the tool the paper
  // measured against; the paper's "40% of LEGUP's expense" compares against
  // real LEGUP topologies.
  const double clos_final = clos_bis.back();
  const double clos_total = clos_cost.back();
  for (std::size_t s = 0; s < jf_bis.size(); ++s) {
    if (jf_bis[s] >= clos_final) {
      os << "\nJellyfish reaches the idealized Clos baseline's final bisection ("
         << clos_final << ") at step " << s << " ($" << jf_cost[s]
         << " vs the baseline's $" << clos_total << ").\n";
      break;
    }
  }
  os << "Final bisection at full budget: jellyfish " << jf_bis.back() << " vs clos "
     << clos_final << " (" << 100.0 * (jf_bis.back() / clos_final - 1.0)
     << "% higher) -- the structured design plateaus once its spine "
        "saturates, while random expansion keeps converting budget into "
        "bandwidth.\n";
}

}  // namespace

int main(int argc, char** argv) {
  return jf::eval::sweep_bench_main(
      argc, argv, "Figure 7: bisection bandwidth vs cumulative expansion budget",
      JF_SCENARIO_DIR "/fig07.json", shape_note);
}
