// Max concurrent flow restricted to a routing scheme's path sets.
//
// The unrestricted solver (flow/mcf.h) measures what a topology could carry
// under optimal routing; this one measures what the *installed* routing
// scheme can extract: each commodity may only split across the paths its
// PathProvider enumerates (ECMP-w, KSP-k, or a custom scheme). The gap
// between the two is the paper's §5 story — ECMP leaves a large fraction of
// Jellyfish capacity unused, k-shortest-path routing recovers it.
//
// Same Garg-Könemann machinery as the unrestricted solver — one driver,
// flow/gk.h, runs the phases, bounds and stopping policy of both — with the
// shortest-path oracle replaced by "cheapest path in the commodity's
// allowed set" under the evolving arc lengths; the dual bound D(l)/alpha(l)
// remains valid with alpha computed over allowed paths only. Commodities
// route sequentially in input order, each on its cheapest allowed path.
#pragma once

#include <span>

#include "flow/mcf.h"
#include "routing/path_provider.h"

namespace jf::flow {

// Solves max concurrent flow where commodity (s, t) routes only over
// `routes.paths(s, t)`. A commodity whose allowed set is empty (unreachable
// pair) yields lambda = lambda_upper = 0, mirroring the unrestricted
// solver's treatment of disconnected commodities.
McfResult restricted_max_concurrent_flow(const graph::Graph& g,
                                         std::span<const traffic::Commodity> commodities,
                                         routing::PathProvider& routes,
                                         const McfOptions& opts = {});

}  // namespace jf::flow
