#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "sim/event_loop.h"
#include "sim/sharded/sharded_sim.h"
#include "sim/transport_ops.h"

namespace jf::sim {

namespace {
constexpr double kMinSsthresh = 2.0;
constexpr double kFallbackRttNs = 100.0 * kMicrosecond;
}  // namespace

double TransportOps::increase_per_ack(const Flow& f, const Subflow& sf) {
  if (!f.mptcp || f.subflows.size() == 1) {
    return 1.0 / std::max(1.0, sf.cwnd);  // Reno: one packet per RTT
  }
  // LIA: min(alpha / cwnd_total, 1 / cwnd_r) with
  // alpha = cwnd_total * max_i(w_i / rtt_i^2) / (sum_i w_i / rtt_i)^2.
  double total = 0.0;
  double best_ratio2 = 0.0;
  double sum_ratio = 0.0;
  for (const auto& s : f.subflows) {
    const double rtt = s.srtt_ns > 0 ? s.srtt_ns : kFallbackRttNs;
    total += s.cwnd;
    best_ratio2 = std::max(best_ratio2, s.cwnd / (rtt * rtt));
    sum_ratio += s.cwnd / rtt;
  }
  if (total <= 0 || sum_ratio <= 0) return 1.0 / std::max(1.0, sf.cwnd);
  const double alpha = total * best_ratio2 / (sum_ratio * sum_ratio);
  return std::min(alpha / total, 1.0 / std::max(1.0, sf.cwnd));
}

void TransportOps::update_rtt(const sharded::Shard& sim, Subflow& sf, std::int64_t sample_ns) {
  if (sample_ns <= 0) return;
  const double r = static_cast<double>(sample_ns);
  if (sf.srtt_ns <= 0) {
    sf.srtt_ns = r;
    sf.rttvar_ns = r / 2.0;
  } else {
    sf.rttvar_ns = 0.75 * sf.rttvar_ns + 0.25 * std::abs(sf.srtt_ns - r);
    sf.srtt_ns = 0.875 * sf.srtt_ns + 0.125 * r;
  }
  const double rto = sf.srtt_ns + 4.0 * sf.rttvar_ns;
  sf.rto_ns = std::clamp(static_cast<TimeNs>(rto), sim.cfg_.min_rto_ns, sim.cfg_.max_rto_ns);
}

void TransportOps::send_data(sharded::Shard& sim, int flow, int subflow, std::int32_t seq,
                             bool retransmit) {
  Flow& f = sim.flows_[static_cast<std::size_t>(flow)];
  Subflow& sf = f.subflows[static_cast<std::size_t>(subflow)];
  Packet pkt;
  pkt.flow = flow;
  pkt.subflow = static_cast<std::int16_t>(subflow);
  pkt.hop = 1;  // consumed index 0 below
  pkt.is_ack = false;
  pkt.seq = seq;
  pkt.ts = sim.now_;
  ++sf.packets_sent;
  if (retransmit) ++sf.retransmits;
  EngineOps::enqueue_packet(sim, sf.data_path.front(), pkt);
}

void TransportOps::send_ack(sharded::Shard& sim, const Packet& data) {
  Flow& f = sim.flows_[static_cast<std::size_t>(data.flow)];
  Subflow& sf = f.subflows[static_cast<std::size_t>(data.subflow)];
  Packet ack;
  ack.flow = data.flow;
  ack.subflow = data.subflow;
  ack.hop = 1;
  ack.is_ack = true;
  ack.seq = sf.rcv_next;  // cumulative
  ack.ts = data.ts;  // echo the sender timestamp for RTT sampling
  EngineOps::enqueue_packet(sim, sf.ack_path.front(), ack);
}

void TransportOps::arm_timer(sharded::Shard& sim, int flow, int subflow, bool rearm) {
  Flow& f = sim.flows_[static_cast<std::size_t>(flow)];
  Subflow& sf = f.subflows[static_cast<std::size_t>(subflow)];
  if (sf.snd_una >= sf.snd_next) {
    // Nothing outstanding; invalidate any pending timer.
    ++sf.timer_gen;
    sf.timer_armed = false;
    return;
  }
  if (rearm || !sf.timer_armed) sf.timer_deadline = sim.now_ + sf.rto_ns;
  if (sf.timer_armed) return;  // the in-flight event will chase the deadline
  ++sf.timer_gen;
  sf.timer_armed = true;
  Event ev;
  ev.time = sf.timer_deadline;
  ev.order = make_order(subflow_order_src(flow, subflow), sf.order_seq++);
  ev.type = EventType::kTimeout;
  ev.a = flow;
  ev.timer.subflow = subflow;
  ev.timer.gen = sf.timer_gen;
  sim.schedule_transport(std::move(ev));
}

void TransportOps::try_send(sharded::Shard& sim, int flow, int subflow) {
  Flow& f = sim.flows_[static_cast<std::size_t>(flow)];
  Subflow& sf = f.subflows[static_cast<std::size_t>(subflow)];
  const auto window = static_cast<std::int32_t>(std::max(1.0, std::floor(sf.cwnd)));
  // Retransmissions are exempt from the window gate (fast-retransmit
  // semantics): everything past the hole is parked in the receiver's
  // reorder buffer, so the cumulative ACK — and with it the pipe — cannot
  // drain until the hole is repaired. Retries are naturally paced by the
  // ~RTT loss-feedback delay.
  while (!sf.lost_out.empty()) {
    const std::int32_t seq = *sf.lost_out.begin();
    sf.lost_out.erase(sf.lost_out.begin());
    if (seq < sf.snd_una) continue;  // already covered by a cumulative ACK
    send_data(sim, flow, subflow, seq, /*retransmit=*/true);
  }
  // New data is pipe-gated: segments sent and not cumulatively acked count
  // as in flight (conservative during recovery — out-of-order arrivals are
  // indistinguishable from queued packets without receiver SACK state).
  // Sized flows additionally stop offering sequences at limit_pkts.
  while (sf.snd_next - sf.snd_una < window &&
         (sf.limit_pkts < 0 || sf.snd_next < sf.limit_pkts)) {
    send_data(sim, flow, subflow, sf.snd_next, /*retransmit=*/false);
    ++sf.snd_next;
  }
  arm_timer(sim, flow, subflow, /*rearm=*/false);
}

void TransportOps::on_data(sharded::Shard& sim, const Packet& pkt) {
  Flow& f = sim.flows_[static_cast<std::size_t>(pkt.flow)];
  Subflow& sf = f.subflows[static_cast<std::size_t>(pkt.subflow)];
  if (pkt.seq == sf.rcv_next) {
    std::int32_t advanced = 1;
    ++sf.rcv_next;
    // Drain any buffered out-of-order packets that are now in order.
    auto it = sf.ooo.begin();
    while (it != sf.ooo.end() && *it == sf.rcv_next) {
      it = sf.ooo.erase(it);
      ++sf.rcv_next;
      ++advanced;
    }
    const std::int64_t payload = static_cast<std::int64_t>(advanced) * sim.cfg_.payload_bytes;
    f.delivered_bytes_total += payload;
    if (sim.now_ >= sim.measure_start_ && sim.now_ < sim.measure_end_) {
      f.delivered_bytes_measured += payload;
    }
  } else if (pkt.seq > sf.rcv_next) {
    sf.ooo.insert(pkt.seq);  // hole: buffer and emit a duplicate ACK
  }
  // seq < rcv_next: spurious retransmission; still ACK (keeps sender sane).
  send_ack(sim, pkt);
}

void TransportOps::on_ack(sharded::Shard& sim, const Packet& pkt) {
  Flow& f = sim.flows_[static_cast<std::size_t>(pkt.flow)];
  Subflow& sf = f.subflows[static_cast<std::size_t>(pkt.subflow)];
  const std::int32_t ack = pkt.seq;

  if (ack > sf.snd_una) {
    const std::int32_t acked = ack - sf.snd_una;
    sf.snd_una = ack;
    sf.snd_next = std::max(sf.snd_next, sf.snd_una);
    // Prune scoreboard entries the cumulative ACK has covered (a lost
    // original whose retransmission already arrived).
    while (!sf.lost_out.empty() && *sf.lost_out.begin() < sf.snd_una) {
      sf.lost_out.erase(sf.lost_out.begin());
    }
    update_rtt(sim, sf, sim.now_ - pkt.ts);

    if (sf.cwnd < sf.ssthresh) {
      // Slow start, RFC 5681: grow by at most one segment per ACK (a
      // cumulative ACK for a big in-flight range must not inflate cwnd).
      sf.cwnd += std::min(1.0, static_cast<double>(acked));
    } else {
      sf.cwnd += increase_per_ack(f, sf) * acked;  // congestion avoidance
    }
    arm_timer(sim, pkt.flow, pkt.subflow, /*rearm=*/true);
    try_send(sim, pkt.flow, pkt.subflow);
    // Completion detection for sized flows: every sender field read here
    // lives at the flow's source endpoint, so the scan is single-shard safe.
    // The telemetry hook is idempotent and purely observational.
    if (sim.telemetry_ && f.size_bytes > 0) {
      bool done = true;
      for (const Subflow& s : f.subflows) {
        if (s.limit_pkts < 0 || s.snd_una < s.limit_pkts) {
          done = false;
          break;
        }
      }
      if (done) sim.telemetry_->on_flow_complete(pkt.flow, sim.now_);
    }
  }
  // Below-frontier (duplicate) ACKs carry no new information under oracle
  // SACK; loss signaling arrives via on_loss instead.
}

void TransportOps::on_loss(sharded::Shard& sim, const Packet& pkt) {
  Flow& f = sim.flows_[static_cast<std::size_t>(pkt.flow)];
  Subflow& sf = f.subflows[static_cast<std::size_t>(pkt.subflow)];
  // Per-flow drop attribution: every notification corresponds to exactly
  // one dropped data packet, including "stale" ones whose sequence a later
  // cumulative ACK already covered — count before the staleness gate.
  if (sim.telemetry_) sim.telemetry_->on_flow_drop(pkt.flow);
  if (pkt.seq < sf.snd_una) return;  // stale: already cumulatively acked
  sf.lost_out.insert(pkt.seq);
  // One multiplicative decrease per flight of data (recovery episode).
  if (sf.snd_una > sf.recover) {
    sf.ssthresh = std::max(sf.cwnd / 2.0, kMinSsthresh);
    sf.cwnd = sf.ssthresh;
    sf.recover = sf.snd_next;
  }
  try_send(sim, pkt.flow, pkt.subflow);  // refill the pipe (retransmit first)
  arm_timer(sim, pkt.flow, pkt.subflow, /*rearm=*/false);
}

void TransportOps::on_timeout(sharded::Shard& sim, int flow, int subflow, std::uint32_t gen) {
  Flow& f = sim.flows_[static_cast<std::size_t>(flow)];
  Subflow& sf = f.subflows[static_cast<std::size_t>(subflow)];
  if (!sf.timer_armed || gen != sf.timer_gen) return;  // stale timer
  if (sim.now_ < sf.timer_deadline) {
    // Deadline slid forward since this event was scheduled: chase it.
    Event ev;
    ev.time = sf.timer_deadline;
    ev.order = make_order(subflow_order_src(flow, subflow), sf.order_seq++);
    ev.type = EventType::kTimeout;
    ev.a = flow;
    ev.timer.subflow = subflow;
    ev.timer.gen = sf.timer_gen;
    sim.schedule_transport(std::move(ev));
    return;
  }
  sf.timer_armed = false;
  if (sf.snd_una >= sf.snd_next) return;  // everything acked meanwhile

  ++sf.timeouts;
  sf.ssthresh = std::max(sf.cwnd / 2.0, kMinSsthresh);
  sf.cwnd = 1.0;
  sf.recover = sf.snd_next;
  sf.rto_ns = std::min(sf.rto_ns * 2, sim.cfg_.max_rto_ns);  // Karn backoff
  // Go-back-N backstop: rewind and resend from the first unacked packet.
  sf.lost_out.clear();
  sf.snd_next = sf.snd_una;
  send_data(sim, flow, subflow, sf.snd_next, /*retransmit=*/true);
  ++sf.snd_next;
  arm_timer(sim, flow, subflow, /*rearm=*/true);
}

}  // namespace jf::sim
