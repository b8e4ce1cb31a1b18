#include "eval/topology_factory.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "expansion/schedule.h"
#include "topo/degree_diameter.h"
#include "topo/fattree.h"
#include "topo/jellyfish.h"
#include "topo/swdc.h"
#include "topo/twolayer.h"

namespace jf::eval {

namespace {

// Throws std::invalid_argument naming the row when a spec-only precondition
// fails. These messages reach jf_eval users, so they carry no source locator.
void need(const TopologySpec& spec, bool cond, std::string_view what) {
  if (!cond) {
    throw std::invalid_argument("topology '" + spec.display() + "': " + spec.family + " needs " +
                                std::string(what));
  }
}

void check_swdc(const TopologySpec& spec) { need(spec, spec.switches >= 3, "switches >= 3"); }

topo::Topology build_swdc_family(topo::SwdcLattice lattice, const TopologySpec& spec,
                                 Rng& rng) {
  topo::SwdcParams p;
  p.lattice = lattice;
  p.num_switches = topo::swdc_feasible_size(lattice, spec.switches);
  p.degree = spec.degree;
  p.ports_per_switch = spec.ports;
  p.servers_per_switch = spec.servers_per_switch;
  return topo::build_swdc(p, rng);
}

// One topology family: the preconditions its build reads from the spec
// alone, checked by validate_scenario before any cell runs and by
// build_topology before every build, and the build itself.
struct Family {
  std::string_view name;
  void (*check)(const TopologySpec&);
  topo::Topology (*build)(const TopologySpec&, Rng&);
};

// Sorted by name, the order `jf_eval list` prints.
constexpr Family kFamilies[] = {
    {"degree-diameter",
     [](const TopologySpec& spec) {
       need(spec, spec.switches >= 2 && spec.ports >= 1, "switches >= 2 and ports >= 1");
       need(spec, spec.network_degree >= 1 && spec.network_degree < spec.ports,
            "1 <= network_degree < ports");
     },
     [](const TopologySpec& spec, Rng& rng) {
       // Fig. 3's benchmark rows: best-known degree-diameter graphs
       // (exact Petersen/Hoffman-Singleton where constructible, annealed
       // low-path-length regular graphs elsewhere — see
       // topo/degree_diameter.h). Servers default to the ports left over
       // after the network degree, like the paper's (A, B, C) rows.
       const int sps = spec.servers_per_switch > 0 ? spec.servers_per_switch
                                                   : spec.ports - spec.network_degree;
       return topo::build_degree_diameter_topology(spec.switches, spec.ports,
                                                   spec.network_degree, sps, rng);
     }},
    {"fattree",
     [](const TopologySpec& spec) {
       need(spec, spec.fattree_k >= 2, "fattree_k >= 2");
       // Oversubscription would violate the edge switches' port budgets —
       // the fat-tree's design point k^3/4 is exactly its full-bisection
       // capacity.
       need(spec, spec.servers <= topo::fattree_servers(spec.fattree_k),
            "servers <= the k^3/4 design capacity");
     },
     [](const TopologySpec& spec, Rng&) {
       auto topo = topo::build_fattree(spec.fattree_k);
       // Optional undersubscription: repack `servers` evenly across the
       // edge layer (Fig. 2(a)'s server ramp).
       if (spec.servers > 0) {
         const int num_edge = topo::fattree_layers(spec.fattree_k).num_edge;
         for (topo::NodeId sw = 0; sw < num_edge; ++sw) {
           const int share = (spec.servers + num_edge - 1 - sw) / num_edge;
           topo.set_servers_at(sw, share);
         }
       }
       return topo;
     }},
    {"jellyfish",
     [](const TopologySpec& spec) {
       need(spec, spec.switches >= 2 && spec.ports >= 1, "switches >= 2 and ports >= 1");
       // Every switch keeps at least one port for the network.
       need(spec, spec.servers <= spec.switches * (spec.ports - 1),
            "servers <= switches * (ports - 1)");
     },
     [](const TopologySpec& spec, Rng& rng) {
       return topo::build_jellyfish_with_servers(spec.switches, spec.ports, spec.servers, rng);
     }},
    {"jellyfish-incr",
     [](const TopologySpec& spec) {
       need(spec, spec.grow_from >= 2, "grow_from >= 2");
       need(spec, spec.switches >= spec.grow_from, "switches >= grow_from");
       need(spec, spec.grow_step >= 1, "grow_step >= 1");
       need(spec,
            spec.ports >= 1 && spec.network_degree >= 1 && spec.network_degree <= spec.ports,
            "1 <= network_degree <= ports");
     },
     [](const TopologySpec& spec, Rng& rng) {
       // Incrementally grown Jellyfish (§4.2): the Fig. 5/6 "expanded"
       // rows. Expressed as a pure fixed-step GrowthSchedule and executed
       // by the unified growth planner, which threads the one rng stream
       // through the initial build and every expansion splice in order —
       // byte-identical to the historical inline grow loop.
       expansion::GrowthSchedule sched;
       sched.initial = {spec.grow_from, spec.ports,
                        spec.grow_from * (spec.ports - spec.network_degree)};
       sched.network_degree = spec.network_degree;
       sched.target_switches = spec.switches;
       sched.step_switches = spec.grow_step;
       expansion::GrowthPlanOptions opts;
       opts.score_bisection = false;  // construction only; metrics score plans
       return expansion::plan_growth(sched, {}, rng, opts).topology;
     }},
    {"swdc-hex3d", check_swdc,
     [](const TopologySpec& spec, Rng& rng) {
       return build_swdc_family(topo::SwdcLattice::kHexTorus3D, spec, rng);
     }},
    {"swdc-ring", check_swdc,
     [](const TopologySpec& spec, Rng& rng) {
       return build_swdc_family(topo::SwdcLattice::kRing, spec, rng);
     }},
    {"swdc-torus2d", check_swdc,
     [](const TopologySpec& spec, Rng& rng) {
       return build_swdc_family(topo::SwdcLattice::kTorus2D, spec, rng);
     }},
    {"twolayer",
     [](const TopologySpec& spec) {
       need(spec, spec.containers >= 1 && spec.switches_per_container >= 1,
            "containers and switches_per_container");
     },
     [](const TopologySpec& spec, Rng& rng) {
       topo::TwoLayerParams p;
       p.num_containers = spec.containers;
       p.switches_per_container = spec.switches_per_container;
       p.ports_per_switch = spec.ports;
       p.network_degree = spec.network_degree;
       p.local_fraction = spec.local_fraction;
       p.servers_per_switch = spec.servers_per_switch;
       return topo::build_two_layer_jellyfish(p, rng);
     }},
};

constexpr auto kFamilyNames = [] {
  std::array<std::string_view, std::size(kFamilies)> names;
  for (std::size_t i = 0; i < names.size(); ++i) names[i] = kFamilies[i].name;
  return names;
}();
static_assert(std::ranges::is_sorted(kFamilyNames));

}  // namespace

namespace {

const Family& checked_family(const TopologySpec& spec) {
  const auto* it = std::ranges::find(kFamilies, std::string_view(spec.family), &Family::name);
  check(it != std::end(kFamilies), "build_topology: unknown topology family");
  need(spec, spec.fail_links >= 0.0 && spec.fail_links <= 1.0, "fail_links in [0, 1]");
  it->check(spec);
  return *it;
}

}  // namespace

void check_topology_spec(const TopologySpec& spec) { checked_family(spec); }

topo::Topology build_topology(const TopologySpec& spec, Rng& rng) {
  topo::Topology topo = checked_family(spec).build(spec, rng);
  // Link failures (Fig. 8) draw from the same topology stream, after the
  // build — every family composes with a failure fraction, and each seed
  // fails a different random subset even for deterministic families.
  if (spec.fail_links > 0.0) topo::fail_random_links(topo, spec.fail_links, rng);
  return topo;
}

bool topology_family_deterministic(std::string_view family) {
  // The only family whose construction is spec-determined; the randomized
  // ones (jellyfish, swdc-*, twolayer, ...) draw their wiring from the Rng.
  return family == "fattree";
}

std::span<const std::string_view> topology_families() { return kFamilyNames; }

}  // namespace jf::eval
