// Topology = switch interconnect + per-switch port budget + attached servers.
//
// This is the unit every evaluation in the paper operates on. A switch i has
// ports[i] total ports, of which degree(i) connect to other switches and
// servers[i] to servers; the remainder are free (the paper's expansion
// procedures deliberately leave at most one free port network-wide).
// Servers get dense global ids grouped by switch, so traffic matrices and
// the packet simulator can address them directly.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"

namespace jf::topo {

using graph::NodeId;

class Topology {
 public:
  Topology() = default;

  // Takes ownership of the switch graph; `ports[i]` and `servers[i]` give
  // switch i's total port count and attached-server count.
  Topology(std::string name, graph::Graph switches, std::vector<int> ports,
           std::vector<int> servers);

  const std::string& name() const { return name_; }
  const graph::Graph& switches() const { return switches_; }
  graph::Graph& mutable_switches() { return switches_; }

  int num_switches() const { return switches_.num_nodes(); }
  int num_servers() const;

  // Equipment cost in the paper's unit: total switch ports bought (Fig. 2).
  std::size_t total_ports() const;

  int ports(NodeId sw) const;
  int servers_at(NodeId sw) const;
  int network_degree(NodeId sw) const { return switches_.degree(sw); }
  int free_ports(NodeId sw) const;

  // Appends a switch with no links; returns its id.
  NodeId add_switch(int ports, int servers);

  // Changes the number of servers attached to `sw` (must fit port budget).
  void set_servers_at(NodeId sw, int servers);

  // Maps a global server id (0..num_servers-1) to its ToR switch.
  NodeId server_switch(int server_id) const;

  // Global ids of the servers attached to `sw` as [first, first+count).
  std::pair<int, int> servers_of_switch(NodeId sw) const;

  // Verifies every switch fits its port budget and counts are consistent.
  // Throws std::logic_error on violation.
  void validate() const;

 private:
  std::string name_;
  graph::Graph switches_;
  std::vector<int> ports_;
  std::vector<int> servers_;
  // Prefix-sum index from server ids to switches, kept current by every
  // mutator so that const readers on several threads never write it.
  std::vector<int> server_offset_{0};  // size num_switches()+1
};

}  // namespace jf::topo
