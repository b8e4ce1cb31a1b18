// The scenario field table: one row per JSON key of every struct a scenario
// file spells out. Each row holds the key, a member pointer, the load rule
// (implied by the member type, plus a closed name set or the [0, 1] range)
// and an optional sweep rule. One table drives three consumers, so a field
// cannot be loaded or swept without also being written:
//
//   - the canonical writer (serialize.cc) emits the rows in table order; its
//     bytes are also the result-store cell key,
//   - the strict loader (serialize.cc) reads the same rows,
//   - sweep_fields() and apply_sweep_value() (sweep.cc) are generated from
//     the rows with a sweep rule.
//
// The tables are defined in serialize.cc. Nested objects and arrays are
// rows with a Hook that walks the child table; metrics and seeds have
// hand-written hooks. A SweepSpec's own keys ("sweep", "claims") are a
// table too, written after the base scenario's rows.
//
// Optional keys are not written when unset: an empty std::optional member,
// an enum value with no name in its Choices, or a Hook that writes null.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "common/json.h"
#include "eval/scenario.h"
#include "eval/sweep.h"

namespace jf::eval::fields {

// What a swept value must satisfy. kFixed rows are loaded and written but
// never swept; kUnit is also enforced by the loader.
enum class Rule : std::uint8_t {
  kFixed,
  kAny,     // any number
  kCount,   // an integer > 0
  kLimit,   // an integer >= -1 (-1 = no cap)
  kNonNeg,  // a number >= 0
  kUnit,    // a number in [0, 1]
};

// The JSON names of an enum's values. `noun` names the set in load errors
// ("unknown transport 'udp'").
struct Choice {
  std::string_view name;
  int value = 0;
};
struct Choices {
  std::string_view noun;
  std::span<const Choice> names;
};

// Enum member, reached through accessors generated by enum_member<>().
template <typename S>
struct Enum {
  const Choices* choices;
  int (*get)(const S&);
  void (*set)(S&, int);
};

// String member restricted to the closed name set `names()` returns, which
// is the list the member's consumer dispatches on (topology_families(),
// path_provider_schemes(), ...). `noun` names the set in load errors.
template <typename S>
struct Named {
  std::string S::*member;
  std::string_view noun;
  std::span<const std::string_view> (*names)();
};

// A nested object or array. `read` gets the key's context path
// ("scenario.growth").
template <typename S>
struct Hook {
  json::Value (*write)(const S&);
  void (*read)(const json::Value&, S&, const std::string& ctx);
};

template <typename S>
using Member = std::variant<int S::*, std::int64_t S::*, double S::*, std::optional<double> S::*,
                            std::string S::*, Named<S>, Enum<S>, Hook<S>>;

template <typename S>
struct Field {
  std::string_view key;
  Member<S> member;
  Rule rule = Rule::kFixed;
  // Runs after a swept value is set, for fan-out and cross-field checks;
  // `field` is the dotted sweep path.
  void (*then)(S&, const std::string& field) = nullptr;
  // sweep_fields() lists this row before the table's other swept rows.
  bool listed_first = false;
};

template <typename S>
using Table = std::span<const Field<S>>;

extern const Table<Scenario> kScenario;
extern const Table<TopologySpec> kTopology;
extern const Table<routing::RoutingSpec> kRouting;
extern const Table<TrafficSpec> kTraffic;
extern const Table<flow::McfOptions> kMcf;
extern const Table<sim::WorkloadConfig> kSim;
extern const Table<sim::SimConfig> kSimNet;
extern const Table<flow::CapacitySearchOptions> kCapacity;
extern const Table<expansion::GrowthSchedule> kGrowth;
extern const Table<expansion::InitialBuild> kGrowthInitial;
extern const Table<expansion::GrowthStep> kGrowthStep;
extern const Table<SweepSpec> kSweep;
extern const Table<Claim> kClaim;
extern const Table<ClaimSelector> kClaimSelector;

}  // namespace jf::eval::fields
