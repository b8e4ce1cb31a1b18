// Link-layer event mechanics run by every shard of the packet-sim engine.
//
// EngineOps implements the store-and-forward machinery — drop-tail enqueue,
// transmission scheduling, hop-by-hop forwarding, and the event dispatch
// switch — exactly once, over a sharded::Shard's state. It emits events only
// through the shard's routing hooks: schedule_self (kLinkDone) and
// schedule_transport (kTimeout) are shard-local by construction (a link's
// transmissions complete in its own shard; timers fire where the sender
// lives), while dispatch_arrival/dispatch_loss may stage the event in a
// mailbox for another shard; with one shard every hook pushes the one
// queue. Nothing in this file knows which is which — that is the point:
// identical mechanics, identical event-order keys, identical results at any
// shard count. The members are defined here, inline, so that handle()
// inlines into Shard::run_round.
#pragma once

#include <algorithm>

#include "common/check.h"
#include "sim/core.h"
#include "sim/sharded/sharded_sim.h"
#include "sim/telemetry.h"
#include "sim/transport_ops.h"

namespace jf::sim {

struct EngineOps {
  // Appends the packet to the link's drop-tail queue, starting transmission
  // if the link is idle. On overflow, data packets trigger an oracle-SACK
  // loss notification to the sender (see lost_out in sim/core.h: exact loss
  // detection stands in for SACK TCP's scoreboard). Real SACK feedback
  // takes about one round trip — the following segment's dupacks — so the
  // notification is delayed by the packet's experienced one-way delay plus
  // the uncongested ACK return time, every term of which is local to the
  // dropping link's shard (the packet carries its send timestamp and the
  // return time is a static property of the path). The floor also keeps a
  // dropped retransmission from livelocking the event loop at one
  // timestamp.
  static void enqueue_packet(sharded::Shard& eng, int link_id, const Packet& pkt) {
    Link& l = eng.links_[static_cast<std::size_t>(link_id)];
    if (l.depth >= l.queue_capacity) {
      ++l.drops;
      if (eng.telemetry_) eng.telemetry_->on_drop(link_id, eng.now_);
      if (!pkt.is_ack) {
        const Subflow& sf = eng.flows_[static_cast<std::size_t>(pkt.flow)]
                                .subflows[static_cast<std::size_t>(pkt.subflow)];
        const TimeNs feedback = std::max<TimeNs>(eng.cfg_.loss_feedback_floor_ns,
                                                 (eng.now_ - pkt.ts) + sf.ack_return_ns);
        Event ev;
        ev.time = eng.now_ + feedback;
        ev.order = make_order(link_order_src(link_id), l.order_seq++);
        ev.type = EventType::kLossNotify;
        ev.pkt = pkt;
        eng.dispatch_loss(std::move(ev));
      }
      return;
    }
    l.queue.push_back(pkt);
    ++l.depth;
    if (eng.telemetry_) eng.telemetry_->on_enqueue(link_id, eng.now_, l.depth);
    if (!l.busy) start_transmission(eng, link_id);
  }

  static void start_transmission(sharded::Shard& eng, int link_id) {
    Link& l = eng.links_[static_cast<std::size_t>(link_id)];
    ensure(!l.queue.empty(), "start_transmission: empty queue");
    l.busy = true;
    const Packet& head = l.queue.front();
    Event ev;
    ev.time = eng.now_ + transmit_time_ns(packet_bytes(eng.cfg_, head), l.rate_bps);
    ev.order = make_order(link_order_src(link_id), l.order_seq++);
    ev.type = EventType::kLinkDone;
    ev.a = link_id;
    eng.schedule_self(std::move(ev));
  }

  // A kArrive event: `next_link` is the link the packet enters next, or -1
  // when it reached the end of its path.
  static void forward_or_deliver(sharded::Shard& eng, Packet pkt, int next_link) {
    if (next_link >= 0) {
      ++pkt.hop;
      enqueue_packet(eng, next_link, pkt);
      return;
    }
    // Reached the endpoint: hand to the transport layer.
    if (pkt.is_ack) TransportOps::on_ack(eng, pkt);
    else TransportOps::on_data(eng, pkt);
  }

  static void handle(sharded::Shard& eng, const Event& ev) {
    switch (ev.type) {
      case EventType::kLinkDone: {
        Link& l = eng.links_[static_cast<std::size_t>(ev.a)];
        ensure(l.busy && !l.queue.empty(), "kLinkDone: inconsistent link state");
        // Propagate to the next hop after the wire delay. The next link is
        // looked up here, once per hop, and travels in the event: the
        // hand-off routing and the kArrive handler both read it.
        Event arrive;
        arrive.time = eng.now_ + l.delay_ns;
        arrive.order = make_order(link_order_src(ev.a), l.order_seq++);
        arrive.type = EventType::kArrive;
        arrive.pkt = l.queue.front();
        l.queue.pop_front();
        --l.depth;
        const Packet& pkt = arrive.pkt;
        const int bytes = packet_bytes(eng.cfg_, pkt);
        ++l.tx_packets;
        l.tx_bytes += bytes;
        if (eng.telemetry_) eng.telemetry_->on_transmit(ev.a, eng.now_, bytes);
        const Subflow& sf = eng.flows_[static_cast<std::size_t>(pkt.flow)]
                                .subflows[static_cast<std::size_t>(pkt.subflow)];
        const auto& path = pkt.is_ack ? sf.ack_path : sf.data_path;
        arrive.a = pkt.hop < static_cast<std::int16_t>(path.size())
                       ? path[static_cast<std::size_t>(pkt.hop)]
                       : -1;
        eng.dispatch_arrival(std::move(arrive));
        if (!l.queue.empty()) start_transmission(eng, ev.a);
        else l.busy = false;
        break;
      }
      case EventType::kArrive:
        forward_or_deliver(eng, ev.pkt, ev.a);
        break;
      case EventType::kTimeout:
        TransportOps::on_timeout(eng, ev.a, ev.timer.subflow, ev.timer.gen);
        break;
      case EventType::kFlowStart:
        TransportOps::try_send(eng, ev.a, ev.timer.subflow);
        break;
      case EventType::kLossNotify:
        TransportOps::on_loss(eng, ev.pkt);
        break;
    }
  }
};

}  // namespace jf::sim
