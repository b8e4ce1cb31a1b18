#include "sim/sharded/sharded_sim.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_loop.h"

namespace jf::sim::sharded {

Shard::Shard(ShardedSimulator& owner, int id)
    : owner_(owner),
      id_(id),
      cfg_(owner.cfg_),
      links_(owner.links_),
      flows_(owner.flows_),
      measure_start_(owner.measure_start_),
      measure_end_(owner.measure_end_) {}

void Shard::dispatch_arrival(Event&& ev) {
  // One shard owns every link: no next-hop lookup.
  if (owner_.num_shards() == 1) {
    events_.push(std::move(ev));
    return;
  }
  const Packet& pkt = ev.pkt;
  const Subflow& sf = flows_[static_cast<std::size_t>(pkt.flow)]
                          .subflows[static_cast<std::size_t>(pkt.subflow)];
  const auto& path = pkt.is_ack ? sf.ack_path : sf.data_path;
  int dest;
  if (pkt.hop < static_cast<std::int16_t>(path.size())) {
    dest = owner_.link_shard_[static_cast<std::size_t>(path[static_cast<std::size_t>(pkt.hop)])];
  } else {
    dest = pkt.is_ack ? owner_.flow_src_shard_[static_cast<std::size_t>(pkt.flow)]
                      : owner_.flow_dst_shard_[static_cast<std::size_t>(pkt.flow)];
  }
  route(std::move(ev), dest);
}

void Shard::dispatch_loss(Event&& ev) {
  route(std::move(ev), owner_.flow_src_shard_[static_cast<std::size_t>(ev.pkt.flow)]);
}

void Shard::route(Event&& ev, int dest) {
  if (dest == id_) {
    events_.push(std::move(ev));
  } else {
    ++handoffs_;
    ++staged_;
    outbox_[static_cast<std::size_t>(dest)].push_back(std::move(ev));
  }
}

void Shard::run_round(TimeNs horizon, TimeNs t_end) {
  while (!events_.empty()) {
    const TimeNs t = events_.top_time();
    if (t >= horizon || t > t_end) break;
    const Event ev = events_.pop();
    ensure(ev.time >= now_, "run_round: time went backwards");
    now_ = ev.time;
    ++events_processed_;
    EngineOps<Shard>::handle(*this, ev);
  }
}

ShardedSimulator::ShardedSimulator(SimConfig cfg, int num_shards) : cfg_(cfg) {
  check(num_shards >= 1, "ShardedSimulator: need >= 1 shard");
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.emplace_back(*this, s);
    shards_.back().outbox_.resize(static_cast<std::size_t>(num_shards));
  }
}

int ShardedSimulator::add_link(int shard) {
  return add_link(shard, cfg_.link_rate_bps, cfg_.link_delay_ns, cfg_.queue_capacity_pkts);
}

int ShardedSimulator::add_link(int shard, double rate_bps, TimeNs delay_ns,
                               int queue_capacity) {
  check(!started_, "add_link: simulation already started");
  check(shard >= 0 && shard < num_shards(), "add_link: bad shard id");
  check(rate_bps > 0 && delay_ns >= 0 && queue_capacity >= 1, "add_link: bad parameters");
  links_.emplace_back(rate_bps, delay_ns, queue_capacity);
  link_shard_.push_back(shard);
  return static_cast<int>(links_.size()) - 1;
}

int ShardedSimulator::add_flow(int src_server, int dst_server, bool mptcp, int src_shard,
                               int dst_shard) {
  check(!started_, "add_flow: simulation already started");
  check(src_shard >= 0 && src_shard < num_shards() && dst_shard >= 0 &&
            dst_shard < num_shards(),
        "add_flow: bad endpoint shard");
  Flow f;
  f.src_server = src_server;
  f.dst_server = dst_server;
  f.mptcp = mptcp;
  flows_.push_back(std::move(f));
  flow_src_shard_.push_back(src_shard);
  flow_dst_shard_.push_back(dst_shard);
  return static_cast<int>(flows_.size()) - 1;
}

void ShardedSimulator::add_subflow(int flow, std::vector<int> data_path,
                                   std::vector<int> ack_path, TimeNs start_time) {
  check(!started_, "add_subflow: simulation already started");
  check(flow >= 0 && flow < num_flows(), "add_subflow: bad flow id");
  flows_[static_cast<std::size_t>(flow)].subflows.push_back(
      make_subflow(links_, cfg_, std::move(data_path), std::move(ack_path), start_time));
}

void ShardedSimulator::set_measure_window(TimeNs start, TimeNs end) {
  check(start >= 0 && end > start, "set_measure_window: bad window");
  measure_start_ = start;
  measure_end_ = end;
}

void ShardedSimulator::set_flow_size(int flow, std::int64_t bytes) {
  check(!started_, "set_flow_size: simulation already started");
  check(flow >= 0 && flow < num_flows(), "set_flow_size: bad flow id");
  set_flow_size_of(cfg_, flows_[static_cast<std::size_t>(flow)], bytes);
}

void ShardedSimulator::set_telemetry(Telemetry* telemetry) {
  check(!started_, "set_telemetry: simulation already started");
  for (Shard& sh : shards_) sh.telemetry_ = telemetry;
  if (telemetry != nullptr) telemetry->attach(links_.size(), flows_.size());
}

void ShardedSimulator::finalize_telemetry() {
  check(!shards_.empty() && shards_.front().telemetry_ != nullptr,
        "finalize_telemetry: no telemetry attached");
  // Every shard's clock is exactly t_end after run_until.
  shards_.front().telemetry_->finalize(cfg_, links_, flows_, shards_.front().now_);
}

const Flow& ShardedSimulator::flow(int id) const {
  check(id >= 0 && id < num_flows(), "flow: bad id");
  return flows_[static_cast<std::size_t>(id)];
}

const Link& ShardedSimulator::link(int id) const {
  check(id >= 0 && id < static_cast<int>(links_.size()), "link: bad id");
  return links_[static_cast<std::size_t>(id)];
}

int ShardedSimulator::link_shard(int id) const {
  check(id >= 0 && id < static_cast<int>(links_.size()), "link_shard: bad id");
  return link_shard_[static_cast<std::size_t>(id)];
}

std::int64_t ShardedSimulator::total_drops() const { return total_link_drops(links_); }

double ShardedSimulator::normalized_goodput(int flow_id) const {
  return normalized_goodput_of(cfg_, measure_start_, measure_end_, flow(flow_id));
}

TimeNs ShardedSimulator::lookahead_ns() const {
  check(started_, "lookahead_ns: valid once run_until has been called");
  return lookahead_ns_;
}

void ShardedSimulator::finalize() {
  bool any_cut = false;
  auto note_cut = [&](TimeNs latency) {
    any_cut = true;
    lookahead_ns_ = std::min(lookahead_ns_, latency);
  };
  for (int fid = 0; fid < num_flows(); ++fid) {
    const int src = flow_src_shard_[static_cast<std::size_t>(fid)];
    const int dst = flow_dst_shard_[static_cast<std::size_t>(fid)];
    for (const Subflow& sf : flows_[static_cast<std::size_t>(fid)].subflows) {
      // Senders and receivers enqueue into their first link with zero
      // latency, so those links must be co-located with the endpoint.
      check(link_shard_[static_cast<std::size_t>(sf.data_path.front())] == src,
            "sharded run: a subflow's first data link must live in the sender's shard");
      check(link_shard_[static_cast<std::size_t>(sf.ack_path.front())] == dst,
            "sharded run: a subflow's first ack link must live in the receiver's shard");
      // A cross-shard hand-off happens one wire delay after the transmitting
      // (cut) link finished — including final delivery to the endpoint.
      auto scan = [&](const std::vector<int>& path, int endpoint_shard) {
        for (std::size_t i = 0; i < path.size(); ++i) {
          const int here = link_shard_[static_cast<std::size_t>(path[i])];
          const int next = i + 1 < path.size()
                               ? link_shard_[static_cast<std::size_t>(path[i + 1])]
                               : endpoint_shard;
          if (here != next) note_cut(links_[static_cast<std::size_t>(path[i])].delay_ns);
        }
      };
      scan(sf.data_path, dst);
      scan(sf.ack_path, src);
      // A drop anywhere on the data path notifies the sender no earlier
      // than the loss-feedback floor.
      for (int l : sf.data_path) {
        if (link_shard_[static_cast<std::size_t>(l)] != src) {
          note_cut(cfg_.loss_feedback_floor_ns);
          break;
        }
      }
    }
  }
  check(!any_cut || lookahead_ns_ > 0,
        "sharded run: a zero-latency cross-shard hand-off (cut link with delay 0, or "
        "loss_feedback_floor_ns == 0 on a cross-shard data path) leaves no lookahead");

  for (int fid = 0; fid < num_flows(); ++fid) {
    auto& subflows = flows_[static_cast<std::size_t>(fid)].subflows;
    for (std::size_t s = 0; s < subflows.size(); ++s) {
      Subflow& sf = subflows[s];
      Event ev;
      ev.time = sf.start_time;
      ev.order = make_order(subflow_order_src(fid, static_cast<int>(s)), sf.order_seq++);
      ev.type = EventType::kFlowStart;
      ev.a = fid;
      ev.b = static_cast<std::int32_t>(s);
      shards_[static_cast<std::size_t>(flow_src_shard_[static_cast<std::size_t>(fid)])]
          .events_.push(std::move(ev));
    }
  }
}

void ShardedSimulator::run_until(TimeNs t_end, parallel::WorkBudget* budget) {
  // Round telemetry: counts are exact and schedule-independent (the round
  // structure is decided by timestamps and the lookahead, never by worker
  // scheduling); barrier_wait_ns is each worker slot's slack within each
  // round (round wall minus the busy time of the shards that slot ran) —
  // the load-imbalance signal ROADMAP's sharded-sim speedup item needs.
  static obs::Counter& obs_runs = obs::counter("sim.runs");
  static obs::Counter& obs_rounds = obs::counter("sim.rounds");
  static obs::Counter& obs_events = obs::counter("sim.events");
  static obs::Counter& obs_handoffs = obs::counter("sim.handoffs");
  static obs::Distribution& obs_round_events = obs::distribution("sim.round_events");
  static obs::Distribution& obs_round_handoffs = obs::distribution("sim.round_handoffs");
  static obs::Distribution& obs_barrier_wait_ns =
      obs::distribution("sim.barrier_wait_ns");
  static obs::Distribution& obs_lookahead_ns = obs::distribution("sim.lookahead_ns");
  if (!started_) {
    started_ = true;
    finalize();
    if (lookahead_ns_ < kMaxTime) obs_lookahead_ns.record(lookahead_ns_);
  }
  obs_runs.increment();
  obs::Span run_span("sim.run_until", "sim");
  run_span.arg("shards", num_shards());
  const bool obs_on = obs::metrics_enabled();
  const int num = num_shards();
  parallel::WorkerTeam team(budget, num - 1);
  // Busy time per worker slot this round; each slot is one thread, so every
  // element has a single writer, read after the round's join.
  std::vector<std::int64_t> slot_busy_ns(static_cast<std::size_t>(team.size()), 0);
  while (true) {
    // Barrier section: deliver staged hand-offs in canonical shard order,
    // then restart from the global minimum pending timestamp. (Mailboxes
    // written during round k are only read here, after the round's join.)
    for (Shard& src : shards_) {
      if (src.staged_ == 0) continue;
      src.staged_ = 0;
      for (int dst = 0; dst < num; ++dst) {
        auto& box = src.outbox_[static_cast<std::size_t>(dst)];
        for (Event& ev : box) shards_[static_cast<std::size_t>(dst)].events_.push(std::move(ev));
        box.clear();
      }
    }
    TimeNs t = kMaxTime;
    for (Shard& sh : shards_) {
      if (!sh.events_.empty()) t = std::min(t, sh.events_.top_time());
    }
    if (t == kMaxTime || t > t_end) break;
    const TimeNs horizon = lookahead_ns_ >= kMaxTime - t ? kMaxTime : t + lookahead_ns_;
    ++rounds_;
    obs_rounds.increment();
    std::int64_t round_events = 0, round_handoffs = 0;
    if (obs_on) {
      for (const Shard& sh : shards_) {
        round_events -= sh.events_processed_;
        round_handoffs -= sh.handoffs_;
      }
      std::fill(slot_busy_ns.begin(), slot_busy_ns.end(), 0);
    }
    const std::int64_t round_t0 = obs_on ? obs::monotonic_ns() : 0;
    team.run(num, [&](int s, int slot) {
      const std::int64_t t0 = obs_on ? obs::monotonic_ns() : 0;
      shards_[static_cast<std::size_t>(s)].run_round(horizon, t_end);
      if (obs_on) slot_busy_ns[static_cast<std::size_t>(slot)] += obs::monotonic_ns() - t0;
    });
    if (obs_on) {
      // Shards joined: single-threaded barrier section reads their totals.
      const std::int64_t round_wall = obs::monotonic_ns() - round_t0;
      for (const Shard& sh : shards_) {
        round_events += sh.events_processed_;
        round_handoffs += sh.handoffs_;
      }
      for (std::int64_t busy : slot_busy_ns) {
        obs_barrier_wait_ns.record(std::max<std::int64_t>(0, round_wall - busy));
      }
      obs_events.add(round_events);
      obs_handoffs.add(round_handoffs);
      obs_round_events.record(round_events);
      obs_round_handoffs.record(round_handoffs);
    }
  }
  for (Shard& sh : shards_) sh.now_ = std::max(sh.now_, t_end);
}

}  // namespace jf::sim::sharded
