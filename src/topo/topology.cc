#include "topo/topology.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace jf::topo {

Topology::Topology(std::string name, graph::Graph switches, std::vector<int> ports,
                   std::vector<int> servers)
    : name_(std::move(name)),
      switches_(std::move(switches)),
      ports_(std::move(ports)),
      servers_(std::move(servers)) {
  check(static_cast<int>(ports_.size()) == switches_.num_nodes(),
        "Topology: ports size mismatch");
  check(static_cast<int>(servers_.size()) == switches_.num_nodes(),
        "Topology: servers size mismatch");
  validate();
  server_offset_.reserve(servers_.size() + 1);
  for (int n : servers_) server_offset_.push_back(server_offset_.back() + n);
}

int Topology::num_servers() const {
  return std::accumulate(servers_.begin(), servers_.end(), 0);
}

std::size_t Topology::total_ports() const {
  std::size_t total = 0;
  for (int p : ports_) total += static_cast<std::size_t>(p);
  return total;
}

int Topology::ports(NodeId sw) const {
  check(sw >= 0 && sw < num_switches(), "Topology::ports: bad switch");
  return ports_[sw];
}

int Topology::servers_at(NodeId sw) const {
  check(sw >= 0 && sw < num_switches(), "Topology::servers_at: bad switch");
  return servers_[sw];
}

int Topology::free_ports(NodeId sw) const {
  return ports(sw) - network_degree(sw) - servers_at(sw);
}

NodeId Topology::add_switch(int ports, int servers) {
  check(ports >= 0 && servers >= 0 && servers <= ports, "add_switch: bad port budget");
  NodeId id = switches_.add_node();
  ports_.push_back(ports);
  servers_.push_back(servers);
  server_offset_.push_back(server_offset_.back() + servers);
  return id;
}

void Topology::set_servers_at(NodeId sw, int servers) {
  check(sw >= 0 && sw < num_switches(), "set_servers_at: bad switch");
  check(servers >= 0 && servers + network_degree(sw) <= ports_[sw],
        "set_servers_at: exceeds port budget");
  const int delta = servers - servers_[sw];
  servers_[sw] = servers;
  for (std::size_t i = static_cast<std::size_t>(sw) + 1; i < server_offset_.size(); ++i) {
    server_offset_[i] += delta;
  }
}

NodeId Topology::server_switch(int server_id) const {
  check(server_id >= 0 && server_id < server_offset_.back(), "server_switch: bad server id");
  auto it = std::upper_bound(server_offset_.begin(), server_offset_.end(), server_id);
  return static_cast<NodeId>(std::distance(server_offset_.begin(), it) - 1);
}

std::pair<int, int> Topology::servers_of_switch(NodeId sw) const {
  check(sw >= 0 && sw < num_switches(), "servers_of_switch: bad switch");
  return {server_offset_[sw], server_offset_[sw + 1]};
}

void Topology::validate() const {
  for (NodeId sw = 0; sw < num_switches(); ++sw) {
    ensure(servers_[sw] >= 0, "Topology: negative server count");
    ensure(ports_[sw] >= 0, "Topology: negative port count");
    ensure(network_degree(sw) + servers_[sw] <= ports_[sw],
           "Topology: switch exceeds its port budget");
  }
}

}  // namespace jf::topo
