#include "sim/telemetry.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace jf::sim {

Telemetry::Telemetry(TelemetryConfig cfg) : cfg_(cfg) {
  check(cfg_.epoch_ns >= 1, "Telemetry: epoch_ns must be >= 1");
}

void Telemetry::attach(std::size_t num_links, std::size_t num_flows) {
  check(!finalized_, "Telemetry::attach: already finalized");
  data_.epoch_ns = cfg_.epoch_ns;
  data_.flows.assign(num_flows, FlowRecord{});
  data_.links.assign(num_links, LinkSeries{});
  cursors_.assign(num_links, EpochCursor{});
  attached_ = true;
}

LinkEpoch& Telemetry::epoch_slot(int link, TimeNs now) {
  auto& series = data_.links[static_cast<std::size_t>(link)];
  EpochCursor& cur = cursors_[static_cast<std::size_t>(link)];
  if (now < cur.begin || now >= cur.end) {
    const TimeNs idx = now / cfg_.epoch_ns;
    cur = {idx * cfg_.epoch_ns, (idx + 1) * cfg_.epoch_ns, static_cast<std::size_t>(idx)};
    // Grows only from the link's single writer; intermediate epochs (the
    // link was idle) materialize as zero rows.
    if (series.epochs.size() <= cur.index) series.epochs.resize(cur.index + 1);
  }
  return series.epochs[cur.index];
}

void Telemetry::on_enqueue(int link, TimeNs now, int depth_after) {
  const int b =
      std::min(kQueueDepthBuckets - 1,
               static_cast<int>(std::bit_width(static_cast<unsigned>(depth_after))));
  ++epoch_slot(link, now).queue_hist[static_cast<std::size_t>(b)];
}

void Telemetry::on_drop(int link, TimeNs now) { ++epoch_slot(link, now).drops; }

void Telemetry::on_transmit(int link, TimeNs now, int bytes) {
  LinkEpoch& e = epoch_slot(link, now);
  ++e.tx_packets;
  e.tx_bytes += bytes;
}

void Telemetry::on_flow_drop(int flow) {
  ++data_.flows[static_cast<std::size_t>(flow)].path_drops;
}

void Telemetry::on_flow_complete(int flow, TimeNs now) {
  FlowRecord& r = data_.flows[static_cast<std::size_t>(flow)];
  if (r.completed) return;
  r.completed = true;
  r.finish_ns = now;
}

void Telemetry::finalize(const SimConfig& cfg, const std::vector<Link>& links,
                         const std::vector<Flow>& flows, TimeNs t_end) {
  check(attached_, "Telemetry::finalize: attach() never called");
  check(!finalized_, "Telemetry::finalize: called twice");
  check(links.size() == data_.links.size() && flows.size() == data_.flows.size(),
        "Telemetry::finalize: table sizes changed since attach()");
  check(t_end >= 0, "Telemetry::finalize: bad t_end");
  finalized_ = true;
  data_.t_end_ns = t_end;

  for (std::size_t fid = 0; fid < flows.size(); ++fid) {
    const Flow& f = flows[fid];
    FlowRecord& r = data_.flows[fid];
    r.src_server = f.src_server;
    r.dst_server = f.dst_server;
    if (!r.completed) r.finish_ns = t_end;
    r.start_ns = t_end;
    r.hop_count = 0;
    for (const Subflow& sf : f.subflows) {
      r.start_ns = std::min(r.start_ns, sf.start_time);
      const int hops = static_cast<int>(sf.data_path.size());
      r.hop_count = r.hop_count == 0 ? hops : std::min(r.hop_count, hops);
      r.bytes_acked += static_cast<std::int64_t>(sf.snd_una) * cfg.payload_bytes;
      r.packets_sent += sf.packets_sent;
      r.retransmits += sf.retransmits;
      r.timeouts += sf.timeouts;
    }
  }

  // Every event carries now <= t_end, so the run spans epochs [0, t_end /
  // epoch_ns]. The trailing epoch is truncated at t_end; when t_end is an
  // exact multiple it is a boundary-only epoch (events stamped exactly
  // t_end land there) whose duration is floored at 1 ns.
  const auto num_epochs = static_cast<std::size_t>(t_end / cfg_.epoch_ns) + 1;
  for (std::size_t lid = 0; lid < links.size(); ++lid) {
    LinkSeries& s = data_.links[lid];
    s.rate_bps = links[lid].rate_bps;
    s.epochs.resize(num_epochs);
    for (std::size_t e = 0; e < num_epochs; ++e) {
      const TimeNs begin = static_cast<TimeNs>(e) * cfg_.epoch_ns;
      const TimeNs duration =
          std::max<TimeNs>(std::min(begin + cfg_.epoch_ns, t_end) - begin, 1);
      const double u = static_cast<double>(s.epochs[e].tx_bytes) * 8.0 * 1e9 /
                       (s.rate_bps * static_cast<double>(duration));
      s.epochs[e].utilization = std::clamp(u, 0.0, 1.0);
    }
  }
}

const TelemetryDataset& Telemetry::dataset() const {
  check(finalized_, "Telemetry::dataset: finalize() not called yet");
  return data_;
}

TelemetryDataset Telemetry::take_dataset() {
  check(finalized_, "Telemetry::take_dataset: finalize() not called yet");
  attached_ = false;
  return std::move(data_);
}

std::vector<double> flow_completion_seconds(const TelemetryDataset& d) {
  std::vector<double> out;
  out.reserve(d.flows.size());
  for (const auto& f : d.flows) out.push_back(fct_seconds(f));
  return out;
}

double worst_link_utilization(const TelemetryDataset& d) {
  double worst = 0.0;
  for (const auto& s : d.links) {
    worst = std::max(worst, link_run_utilization(s, d.t_end_ns));
  }
  return worst;
}

}  // namespace jf::sim
