// Packet-level discrete-event network simulator (the paper's htsim
// stand-in): a sharded conservative-lookahead engine.
//
// Models store-and-forward output-queued links with drop-tail queues,
// source-routed packets, TCP NewReno senders, and MPTCP with LIA-coupled
// congestion control across pinned subflow paths. Time is integer
// nanoseconds; all behavior is deterministic given the configured inputs.
// The engine is topology-agnostic: callers create directed links and flows
// whose subflows carry explicit link-id paths; sim::workload builds these
// from a topo::Topology.
//
// The link set is partitioned into shards (normally via sharded::ShardPlan:
// per-switch domains from graph/partition's recursive KL bisection, servers
// pinned with their ToR). Each shard owns the links and flow endpoints
// assigned to it and runs the shared event mechanics (sim/event_loop.h)
// over its own event queue: a calendar queue (sim/event_queue.h) that pops
// in the canonical (time, EventOrder) order. Shards advance in
// barrier-synchronous rounds:
//
//   round k:  every shard processes its events with time in [T, T + L)
//   barrier:  staged cross-shard events are merged, T advances
//
// where T is the global minimum pending timestamp and L — the *lookahead* —
// is the minimum latency of any cross-shard interaction: the smallest
// delay_ns over cut links (a packet handed to another shard arrives one
// wire delay after the transmitting link, in the transmitting link's shard,
// completed it) min'd with loss_feedback_floor_ns when a data path crosses
// shards (a drop anywhere on the path notifies the sender no earlier than
// the floor). Every event another shard can send into round k therefore
// carries a timestamp >= T + L and lands in a later round, so within a
// round shards only touch disjoint state: their own links, and the
// sender/receiver halves of Subflow state (see sim/core.h).
//
// With one shard nothing is cut: the lookahead is kMaxTime and the whole run
// is one round over one canonical (time, EventOrder) queue — the reference
// run every partition reproduces.
//
// Determinism: results are bit-identical to the one-shard run at any shard
// and worker count. Each shard's pop sequence equals the one-shard run's
// canonical (time, EventOrder) sequence restricted to the events the shard
// owns — the keys derive from per-entity emission counters
// (pre-shard global state), not arrival interleaving, and same-time events
// in different shards commute because they share no mutable state. Staged
// hand-offs are merged at the barrier in canonical shard order; since the
// order keys are collision-free, insertion order cannot influence the pop
// sequence anyway. A shard that staged no hand-off in a round skips the
// merge.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "sim/core.h"
#include "sim/event_queue.h"
#include "sim/telemetry.h"

namespace jf::sim {
template <class Engine>
struct TransportOps;
template <class Engine>
struct EngineOps;
}  // namespace jf::sim

namespace jf::sim::sharded {

class ShardedSimulator;

// One shard: the engine-state view TransportOps/EngineOps run against (the
// member interface sim/event_loop.h documents).
class Shard {
 public:
  Shard(ShardedSimulator& owner, int id);

 private:
  template <class Engine>
  friend struct jf::sim::TransportOps;
  template <class Engine>
  friend struct jf::sim::EngineOps;
  friend class ShardedSimulator;

  // Event routing hooks (see sim/event_loop.h). Transmission completions
  // and timers are shard-local by construction; arrivals and loss
  // notifications may hand off to another shard's mailbox (never when the
  // engine has one shard).
  void schedule_self(Event&& ev) { events_.push(std::move(ev)); }
  void schedule_transport(Event&& ev) { events_.push(std::move(ev)); }
  void dispatch_arrival(Event&& ev);
  void dispatch_loss(Event&& ev);
  void route(Event&& ev, int dest);

  // Processes this shard's events with time < horizon (and <= t_end).
  void run_round(TimeNs horizon, TimeNs t_end);

  ShardedSimulator& owner_;
  int id_ = 0;
  // The shared-state view the templated mechanics expect. links_/flows_
  // alias the owner's global tables; ownership discipline (only handlers in
  // the owning shard touch a link or an endpoint's half of a Subflow) is
  // what keeps concurrent rounds race-free.
  const SimConfig& cfg_;
  std::vector<Link>& links_;
  std::vector<Flow>& flows_;
  const TimeNs& measure_start_;
  const TimeNs& measure_end_;
  // The owner's recorder (null = off), shared by every shard: each slot of
  // the recorder's tables has exactly one writing shard (the link's owner /
  // the flow's sender endpoint), mirroring the engine's own discipline.
  Telemetry* telemetry_ = nullptr;
  TimeNs now_ = 0;
  EventQueue<> events_;
  // Cross-shard hand-offs staged during a round (dest shard -> events),
  // merged serially at the barrier; `staged_` counts them, so a shard that
  // staged nothing skips the merge.
  std::vector<std::vector<Event>> outbox_;
  std::int64_t staged_ = 0;
  // Telemetry (shard-local, single-writer; read at the barrier): lifetime
  // event/hand-off totals. Plain counters — they never feed back into the
  // simulation.
  std::int64_t events_processed_ = 0;
  std::int64_t handoffs_ = 0;
};

class ShardedSimulator {
 public:
  static constexpr TimeNs kMaxTime = std::numeric_limits<TimeNs>::max();

  ShardedSimulator(SimConfig cfg, int num_shards);

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  // Adds a directed link owned by `shard`, with the config's default
  // parameters (or explicit ones); returns its id.
  int add_link(int shard);
  int add_link(int shard, double rate_bps, TimeNs delay_ns, int queue_capacity);

  // Creates a flow whose sender endpoint (timers, congestion state) lives
  // in src_shard and receiver endpoint in dst_shard.
  int add_flow(int src_server, int dst_server, bool mptcp, int src_shard, int dst_shard);

  // Attaches a subflow with its forward and reverse link paths; both must
  // be non-empty (a server pair is always joined via its NIC links). The
  // sharded-emission constraint is checked at run start: data_path.front()
  // must live in src_shard and ack_path.front() in dst_shard (senders
  // enqueue into their first link with zero latency).
  void add_subflow(int flow, std::vector<int> data_path, std::vector<int> ack_path,
                   TimeNs start_time);

  // In-order payload bytes delivered inside [start, end) count as measured.
  void set_measure_window(TimeNs start, TimeNs end);

  // Sizes a flow (ceil(bytes/payload) packets split across its subflows;
  // 0 = backlogged). Call after its subflows are attached, before the run.
  void set_flow_size(int flow, std::int64_t bytes);

  // Attaches a telemetry recorder to every shard (may be null to detach;
  // not owned). Call after every link and flow exists, before the first
  // run_until — attach() pre-sizes the recorder's tables to the current
  // link/flow counts. Because the hooks never create events or advance
  // emission counters, the recording (and the run) is byte-identical to the
  // one-shard run's at any shard or worker count.
  void set_telemetry(Telemetry* telemetry);

  // Finalizes the attached recorder at the run's end time. Call exactly
  // once, after run_until.
  void finalize_telemetry();

  // Advances to t_end in conservative-lookahead rounds; shards run in
  // parallel on workers borrowed from `budget` (may be null: the calling
  // thread sweeps the shards alone). The borrow grant changes wall-clock
  // time only, never results.
  void run_until(TimeNs t_end, parallel::WorkBudget* budget = nullptr);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const SimConfig& config() const { return cfg_; }
  const Flow& flow(int id) const;
  int num_flows() const { return static_cast<int>(flows_.size()); }
  const Link& link(int id) const;
  int link_shard(int id) const;
  std::int64_t total_drops() const;

  // Normalized goodput of a flow over the measurement window (1.0 = NIC rate).
  double normalized_goodput(int flow_id) const;

  // Introspection (valid once run_until has been called): the round bound
  // (kMaxTime when nothing crosses shards) and rounds executed so far.
  TimeNs lookahead_ns() const;
  std::int64_t rounds() const { return rounds_; }

 private:
  friend class Shard;

  // Validates shard-placement constraints, computes the lookahead, and
  // seeds flow-start events into their owning shards.
  void finalize();

  SimConfig cfg_;
  std::vector<Link> links_;
  std::vector<int> link_shard_;
  std::vector<Flow> flows_;
  std::vector<int> flow_src_shard_;
  std::vector<int> flow_dst_shard_;
  std::vector<Shard> shards_;
  TimeNs measure_start_ = 0;
  TimeNs measure_end_ = 0;
  TimeNs lookahead_ns_ = kMaxTime;
  std::int64_t rounds_ = 0;
  bool started_ = false;
};

}  // namespace jf::sim::sharded
