// Degree-diameter benchmark graphs (paper §4.1, Fig. 3).
//
// The paper benchmarks Jellyfish against the best-known graphs from the
// degree-diameter problem (Comellas table): carefully optimized topologies
// with maximal node count for a given degree and diameter. Two of the
// configurations the paper uses are exactly constructible and included here
// (Petersen: 10 nodes / degree 3 / diameter 2; Hoffman-Singleton: 50 nodes /
// degree 7 / diameter 2 — the paper's (50, 11, 7) row). The remaining
// best-known graphs are ad-hoc computer-search artifacts that are not
// reconstructible from the paper, so as a substitution we produce
// "optimized regular graphs" via simulated-annealing edge swaps minimizing
// (diameter, mean path length) — the same "carefully optimized
// low-path-length benchmark" role, and a conservative one: any shortfall of
// the annealer vs. the true optimum only makes Jellyfish look better.
#pragma once

#include "common/rng.h"
#include "topo/topology.h"

namespace jf::topo {

// The Petersen graph: 10 nodes, 3-regular, diameter 2, girth 5 (optimal
// degree-diameter graph for degree 3, diameter 2).
graph::Graph petersen();

// The Hoffman-Singleton graph: 50 nodes, 7-regular, diameter 2, girth 5
// (optimal Moore graph for degree 7, diameter 2).
graph::Graph hoffman_singleton();

// Anneals an r-regular graph on n nodes toward minimal (diameter, mean path
// length) via connectivity-preserving double edge swaps. `iterations` is the
// number of proposed swaps; a few thousand suffices at these scales.
graph::Graph optimized_regular_graph(int n, int r, int iterations, Rng& rng);

// One row of Fig. 3: (A = switches, B = switch ports, C = network degree).
// Produces the benchmark graph (exact when available, annealed otherwise)
// with B - C server ports per switch.
Topology build_degree_diameter_topology(int num_switches, int ports_per_switch,
                                        int network_degree, int servers_per_switch, Rng& rng);

}  // namespace jf::topo
