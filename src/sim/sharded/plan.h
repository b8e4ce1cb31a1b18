// Shard assignment for the parallel packet simulator.
//
// A ShardPlan carves the switch set into `num_shards` balanced event
// domains with few crossing cables (graph::balanced_partition's recursive
// KL bisection). Every directed link is owned by the shard of its tail
// switch — so a packet's transmission completes where the link lives and
// hand-offs to the next hop cross shards exactly on cut cables — and every
// server (with its NIC links and transport endpoint state) is pinned to its
// ToR's shard. The plan is a pure function of (topology, shards, rng
// stream): sim::workload derives the stream from a fork of the workload
// seed, so planning never perturbs the draws the one-shard run makes.
#pragma once

#include <vector>

#include "common/rng.h"
#include "topo/topology.h"

namespace jf::sim::sharded {

struct ShardPlan {
  int num_shards = 1;
  std::vector<int> switch_shard;  // switch id -> owning shard, in [0, num_shards)
};

// Builds the plan; `shards` is clamped to [1, num_switches]. Deterministic
// given the rng state (taken by value: the caller's stream is untouched).
ShardPlan build_shard_plan(const topo::Topology& topo, int shards, Rng rng,
                           int restarts = 3);

}  // namespace jf::sim::sharded
