// Cabling blueprint generator (paper §6): produce the wiring artifact a
// deployment crew would follow for a small Jellyfish cluster.
//
//   $ ./cabling_blueprint
//
// Places all switches in a central cluster (the paper's §6.2 optimization),
// emits per-cable-run instructions, and summarizes lengths, bundles, and
// electrical vs optical counts.
#include <iostream>

#include "common/rng.h"
#include "layout/cabling.h"
#include "layout/placement.h"
#include "topo/jellyfish.h"

int main() {
  using namespace jf;

  // A small cluster: 24 racks of 4 servers on 12-port switches.
  Rng rng(77);
  const auto topo = topo::build_jellyfish_with_servers(24, 12, 96, rng);
  std::cout << "cluster: " << topo.num_switches() << " ToR switches, " << topo.num_servers()
            << " servers, " << topo.switches().num_edges() << " inter-switch cables\n\n";

  const auto placement = layout::place(topo, layout::PlacementStyle::kCentralCluster);
  const expansion::CostModel costs;
  auto lines = layout::render_blueprint(layout::cabling_blueprint(topo, placement, costs));
  std::cout << "blueprint (first 12 of " << lines.size() << " cable runs):\n";
  for (std::size_t i = 0; i < lines.size() && i < 12; ++i) {
    std::cout << "  " << lines[i] << "\n";
  }

  const auto stats = layout::analyze_cabling(topo, placement, costs);
  std::cout << "\nsummary:\n";
  std::cout << "  switch-switch cables : " << stats.switch_cables << " (mean "
            << stats.mean_switch_cable_m << " m)\n";
  std::cout << "  server cables        : " << stats.server_cables << "\n";
  std::cout << "  total cable length   : " << stats.total_length_m << " m\n";
  std::cout << "  optical fraction     : " << stats.optical_fraction * 100 << "%\n";
  std::cout << "  physical bundles     : " << stats.bundles
            << " (one aggregate per rack + the in-cluster mesh)\n";
  std::cout << "  material cost        : $" << stats.material_cost << "\n";
  std::cout << "\nWith every switch in the central cluster, all switch-switch runs stay\n"
               "within electrical reach -- no transceivers needed at this scale (§6.2).\n";
  return 0;
}
