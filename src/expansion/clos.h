// Structured folded-Clos baseline for the LEGUP comparison (paper Fig. 7).
//
// LEGUP (Curtis et al., CoNEXT 2010) finds cost-optimal *Clos-preserving*
// upgrades. Its implementation is not public, so we model the essential
// constraint it operates under: at every stage the network must remain a
// legal two-level folded Clos (E edge switches with d server ports and
// u = k - d uplinks; S spine switches; uplinks spread round-robin over
// spines), and any cable whose (edge, spine) assignment changes between
// stages must be paid for again (detach + attach labor). The per-stage
// planner exhaustively searches feasible (E, S, d) configurations and keeps
// the best bisection bandwidth affordable within the stage budget — an
// *optimistic* stand-in for LEGUP (it searches the full space with exact
// knowledge), which makes Jellyfish's measured advantage conservative.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "expansion/cost_model.h"
#include "topo/topology.h"

namespace jf::expansion {

// A two-level folded-Clos configuration.
struct ClosConfig {
  int edge = 0;    // E: edge (ToR) switches
  int spine = 0;   // S: spine switches
  int down = 0;    // d: server ports per edge switch
  int ports = 0;   // k: ports per switch (uniform)

  int up() const { return ports - down; }                 // uplinks per edge
  int servers() const { return edge * down; }
  int switches() const { return edge + spine; }
  // Legal iff the spine layer can terminate every uplink.
  bool feasible() const;
  // Normalized bisection bandwidth: uplink capacity over server capacity,
  // capped at 1 (a Clos cannot beat full bisection for its servers).
  double normalized_bisection() const;
};

// The multiset of (edge, spine) cables under round-robin uplink spreading.
std::map<std::pair<int, int>, int> clos_cables(const ClosConfig& cfg);

// Cables that differ between two configurations: {added, removed}.
std::pair<int, int> cable_delta(const ClosConfig& from, const ClosConfig& to);

// Materializes the Clos as a Topology (for KL-based bisection scoring and
// throughput evaluation on equal footing with Jellyfish).
topo::Topology build_clos(const ClosConfig& cfg);

// Cheapest-first upgrade search: the best-bisection configuration hosting
// >= `min_servers` reachable from `current` within `budget` (switch cost +
// cable add/remove labor). Returns `current` unchanged if nothing affordable
// improves it. `spent` receives the cost of the chosen upgrade. A
// non-negative `rewire_limit` additionally rejects candidates that would
// move more than that many existing cables (growth-schedule rewiring caps).
ClosConfig best_clos_upgrade(const ClosConfig& current, int min_servers, double budget,
                             const CostModel& costs, double* spent, int rewire_limit = -1);

}  // namespace jf::expansion
