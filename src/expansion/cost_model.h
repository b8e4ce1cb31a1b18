// Equipment and labor cost model for expansion planning (paper §4.2, §6).
//
// Prices follow the paper's assumptions: switch cost scales with port count;
// cables cost per meter plus connectors; cables longer than the electrical
// limit (10 m) need optical transceivers at both ends (~$200 each, §6);
// cabling labor is ~10% of cabling cost, modeled as a flat per-cable-touched
// fee. Absolute dollars are arbitrary — both growth policies in the Fig. 7
// comparison use the same model, so only ratios matter.
#pragma once

namespace jf::expansion {

struct CostModel {
  double port_cost = 100.0;              // $ per switch port
  double cable_cost_per_meter = 6.0;     // electrical and optical alike (§6)
  double cable_fixed_cost = 10.0;        // connectors, termination
  double optical_transceiver_cost = 200.0;  // per end
  double electrical_limit_m = 10.0;      // longest electrical cable
  double rewire_labor_cost = 10.0;       // per cable attached or detached
  double default_cable_length_m = 5.0;   // assumed when no floor plan is given

  // Cost of one switch with `ports` ports.
  double switch_cost(int ports) const;

  // Material cost of one cable of the given length (transceivers included
  // when it exceeds the electrical limit).
  double cable_cost(double length_m) const;

  // Material + labor for attaching one new cable of default length.
  double new_cable_cost() const;

  // Labor for detaching an existing cable (rewiring during expansion).
  double detach_cost() const;
};

}  // namespace jf::expansion
