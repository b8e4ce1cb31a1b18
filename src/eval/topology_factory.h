// Topology families: TopologySpec -> built Topology.
//
// The families cover every interconnect the paper evaluates:
//   "jellyfish"    — RRG over switches x ports hosting `servers` (§3)
//   "jellyfish-incr" — Jellyfish grown step by step (§4.2)
//   "degree-diameter" — best-known degree-diameter graphs (Fig. 3)
//   "fattree"      — k-ary fat-tree baseline (fattree_k)
//   "swdc-ring", "swdc-torus2d", "swdc-hex3d"
//                  — Small-World Datacenter variants (Fig. 4)
//   "twolayer"     — container-localized two-layer Jellyfish (§6.3, Fig. 14)
#pragma once

#include <span>
#include <string_view>

#include "common/rng.h"
#include "eval/scenario.h"
#include "topo/topology.h"

namespace jf::eval {

// Builds the spec'd topology; throws std::invalid_argument for an unknown
// family. Deterministic in (spec, rng state).
topo::Topology build_topology(const TopologySpec& spec, Rng& rng);

// True when the family's build ignores its Rng ("fattree"), i.e. the built
// topology depends only on the spec; the engine then builds it and its
// routing path caches once and shares them across seed cells.
bool topology_family_deterministic(std::string_view family);

// The family names, sorted: the one list build_topology dispatches on, the
// scenario loader accepts and `jf_eval list` prints.
std::span<const std::string_view> topology_families();

}  // namespace jf::eval
