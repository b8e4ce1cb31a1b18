// store/result_store + common/digest + common/fs, and the engine's
// persistent-cache wiring: cache-key stability of the canonical scenario
// writer, cold/warm byte-identity at different thread counts, corruption
// recovery, LRU eviction, and schema versioning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/digest.h"
#include "common/fs.h"
#include "common/json.h"
#include "eval/engine.h"
#include "eval/serialize.h"
#include "eval/sweep.h"
#include "obs/metrics.h"
#include "store/result_store.h"

namespace jf {
namespace {

namespace stdfs = std::filesystem;

// Fresh directory per test; removed on destruction so reruns start clean.
struct TempDir {
  stdfs::path path;
  explicit TempDir(const std::string& tag)
      : path(stdfs::temp_directory_path() / ("jf-test-store-" + tag)) {
    stdfs::remove_all(path);
    stdfs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    stdfs::remove_all(path, ec);
  }
};

// Metrics on and zeroed for one test, so the store.* counters count exactly
// that test's store calls.
struct MetricsOn {
  MetricsOn() {
    obs::set_metrics_enabled(true);
    obs::reset_metrics();
  }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

// --- common/digest ---

TEST(Digest, Sha256KnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(common::sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(common::sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(common::sha256_hex(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Digest, Sha256PaddingBoundaries) {
  // Lengths straddling the 55/56-byte padding split and the block size must
  // all produce distinct, stable digests (regression guard for the padding
  // arithmetic).
  std::vector<std::string> seen;
  for (int len : {0, 1, 55, 56, 63, 64, 65, 119, 120, 128}) {
    const std::string digest = common::sha256_hex(std::string(len, 'a'));
    EXPECT_EQ(digest.size(), 64u);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), digest), 0) << "len=" << len;
    seen.push_back(digest);
  }
  // Streaming in chunks must match one-shot hashing.
  common::Sha256 h;
  h.update("abc");
  h.update("");
  h.update("dbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  std::string hex;
  for (std::uint8_t byte : h.finish()) {
    hex.push_back("0123456789abcdef"[byte >> 4]);
    hex.push_back("0123456789abcdef"[byte & 0xF]);
  }
  EXPECT_EQ(hex, "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// --- common/fs ---

TEST(Fs, AtomicWriteRoundTrip) {
  TempDir dir("fs");
  const stdfs::path deep = dir.path / "a" / "b" / "file.bin";
  const std::string payload("bytes\0with\nnull", 15);
  const std::string rewritten = "second version";
  common::write_file_atomic(deep, payload);
  EXPECT_EQ(common::read_file(deep), payload);
  common::write_file_atomic(deep, rewritten);
  EXPECT_EQ(common::read_file(deep), rewritten);
  // No temp litter left next to the target.
  int files = 0;
  for (const auto& e : stdfs::directory_iterator(deep.parent_path())) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1);
}

TEST(Fs, ReadFileErrors) {
  TempDir dir("fs-err");
  EXPECT_FALSE(common::try_read_file(dir.path / "missing").has_value());
  EXPECT_THROW(common::read_file(dir.path / "missing"), std::runtime_error);
}

// --- store/result_store ---

std::string digest_of(const std::string& s) { return common::sha256_hex(s); }

TEST(ResultStore, PutGetAndReopen) {
  TempDir dir("basic");
  const std::string d1 = digest_of("one"), d2 = digest_of("two");
  {
    store::ResultStore store(dir.path);
    EXPECT_FALSE(store.get(d1).has_value());
    store.put(d1, "value-one");
    store.put(d2, "value-two");
    EXPECT_EQ(store.get(d1).value_or(""), "value-one");
    EXPECT_EQ(store.entry_count(), 2u);
    store.flush();
  }
  // A fresh open (manifest present) finds both entries.
  store::ResultStore reopened(dir.path);
  EXPECT_EQ(reopened.entry_count(), 2u);
  EXPECT_EQ(reopened.get(d2).value_or(""), "value-two");
}

TEST(ResultStore, DirectoryScanIsAuthoritative) {
  TempDir dir("scan");
  const std::string d = digest_of("entry");
  {
    store::ResultStore store(dir.path);
    store.put(d, "payload");
  }  // dtor flushes the manifest
  // Case 1: manifest deleted — the entry must still be found by the scan.
  stdfs::remove(dir.path / "manifest.json");
  {
    store::ResultStore store(dir.path);
    EXPECT_EQ(store.get(d).value_or(""), "payload");
  }
  // Case 2: manifest corrupted — discarded, entries intact.
  {
    std::ofstream m(dir.path / "manifest.json", std::ios::binary);
    m << "{not json";
  }
  {
    store::ResultStore store(dir.path);
    EXPECT_EQ(store.get(d).value_or(""), "payload");
  }
}

TEST(ResultStore, UnreadableEntryDegradesToMiss) {
  MetricsOn metrics;
  TempDir dir("drop");
  const std::string d = digest_of("gone");
  store::ResultStore store(dir.path);
  store.put(d, "payload");
  stdfs::remove(store.entry_path(d));
  EXPECT_FALSE(store.get(d).has_value());
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(obs::counter("store.dropped").value(), 1);
  // Recoverable: a re-put works normally.
  store.put(d, "payload");
  EXPECT_EQ(store.get(d).value_or(""), "payload");
}

TEST(ResultStore, LruEvictionRespectsBudgetAndRecency) {
  MetricsOn metrics;
  TempDir dir("lru");
  const std::string a = digest_of("a"), b = digest_of("b"), c = digest_of("c");
  store::StoreOptions opts;
  opts.max_bytes = 20;  // fits two 10-byte values
  store::ResultStore store(dir.path, opts);
  store.put(a, std::string(10, 'A'));
  store.put(b, std::string(10, 'B'));
  EXPECT_TRUE(store.get(a).has_value());  // bump a: b is now least recent
  store.put(c, std::string(10, 'C'));     // over budget -> evict b
  EXPECT_TRUE(store.get(a).has_value());
  EXPECT_FALSE(store.get(b).has_value());
  EXPECT_TRUE(store.get(c).has_value());
  EXPECT_FALSE(stdfs::exists(store.entry_path(b)));
  EXPECT_LE(store.total_bytes(), 20u);
  EXPECT_EQ(obs::counter("store.evictions").value(), 1);
  // A single over-budget value still lands (evicting everything else).
  store.put(digest_of("big"), std::string(50, 'D'));
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_TRUE(store.get(digest_of("big")).has_value());
}

// --- cache-key stability of the canonical scenario writer ---

// Recursively reverses the member order of every JSON object, exercising the
// loader's claim that input key order never reaches the canonical writer.
void reverse_objects(json::Value& v) {
  if (v.is_object()) {
    auto& o = v.as_object();
    std::reverse(o.begin(), o.end());
    for (auto& [_, member] : o) reverse_objects(member);
  } else if (v.is_array()) {
    for (auto& item : v.as_array()) reverse_objects(item);
  }
}

TEST(CacheKey, CanonicalWriterStableAcrossRoundTripsAndKeyOrder) {
  for (const char* file : {"/fig02a.json", "/growth_smoke.json", "/fig03.json"}) {
    const std::string text = common::read_file(JF_SCENARIO_DIR + std::string(file));
    const json::Value parsed = json::Value::parse(text);
    const eval::SweepSpec once = eval::sweep_from_json(parsed);
    const std::string canon = eval::sweep_to_json(once).dump();
    // load -> save -> load -> save is a fixed point.
    const eval::SweepSpec again = eval::sweep_from_json(json::Value::parse(canon));
    EXPECT_EQ(eval::sweep_to_json(again).dump(), canon) << file;
    // Reordering every object's keys in the input must not change the
    // canonical bytes (and with them every cell's cache key).
    json::Value shuffled = parsed;
    reverse_objects(shuffled);
    const eval::SweepSpec reordered = eval::sweep_from_json(shuffled);
    EXPECT_EQ(eval::sweep_to_json(reordered).dump(), canon) << file;
  }
}

// --- engine wiring ---

// Small but non-degenerate: two topology rows, two seeds, routing-free
// metrics keep it fast.
eval::Scenario store_scenario() {
  eval::Scenario s;
  s.name = "store-test";
  s.topologies = {
      {.family = "jellyfish", .label = "jf", .switches = 12, .ports = 5, .servers = 24},
      {.family = "fattree", .label = "ft", .fattree_k = 4},
  };
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kBisection};
  s.seeds = {1, 2};
  return s;
}

std::string run_with(const eval::Scenario& s, int threads, store::ResultStore* store,
                     eval::BatchStats* stats) {
  eval::EngineOptions opts;
  opts.threads = threads;
  opts.store = store;
  opts.stats = stats;
  return eval::report_to_json(eval::Engine(opts).run(s)).dump(2);
}

TEST(EngineStore, ColdWarmOffAreByteIdenticalAndWarmSolvesZero) {
  TempDir dir("engine");
  const eval::Scenario s = store_scenario();
  eval::BatchStats off_stats, cold, warm;
  const std::string off = run_with(s, 2, nullptr, &off_stats);
  store::ResultStore store(dir.path);
  const std::string cold_report = run_with(s, 2, &store, &cold);
  const std::string warm_report = run_with(s, 1, &store, &warm);  // other thread count
  EXPECT_EQ(cold_report, off);
  EXPECT_EQ(warm_report, off);
  EXPECT_EQ(cold.cells, 4);
  EXPECT_EQ(cold.solved, 4);
  EXPECT_EQ(cold.store_hits, 0);
  EXPECT_EQ(warm.solved, 0);
  EXPECT_EQ(warm.store_hits, 4);
  EXPECT_EQ(warm.cells, warm.solved + warm.memo_hits + warm.store_hits);
  // The cache survives process boundaries: a fresh store object stays warm.
  store::ResultStore reopened(dir.path);
  eval::BatchStats warm2;
  EXPECT_EQ(run_with(s, 2, &reopened, &warm2), off);
  EXPECT_EQ(warm2.solved, 0);
}

TEST(EngineStore, CorruptedEntryIsRecomputedTransparently) {
  TempDir dir("corrupt");
  const eval::Scenario s = store_scenario();
  store::ResultStore store(dir.path);
  eval::BatchStats cold, warm;
  const std::string cold_report = run_with(s, 2, &store, &cold);
  // Truncate one persisted cell mid-value.
  stdfs::path victim;
  for (const auto& e : stdfs::recursive_directory_iterator(dir.path / "cells")) {
    if (e.is_regular_file()) {
      victim = e.path();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  stdfs::resize_file(victim, 5);
  const std::string warm_report = run_with(s, 2, &store, &warm);
  EXPECT_EQ(warm_report, cold_report);
  EXPECT_EQ(warm.solved, 1);  // only the corrupted cell recomputes
  EXPECT_EQ(warm.store_hits, 3);
  // ...and the recompute re-persisted it.
  eval::BatchStats warm2;
  run_with(s, 2, &store, &warm2);
  EXPECT_EQ(warm2.solved, 0);
}

TEST(EngineStore, WrongKeyEchoDegradesToMissNotWrongSamples) {
  TempDir dir("echo");
  const eval::Scenario s = store_scenario();
  store::ResultStore store(dir.path);
  eval::BatchStats cold;
  const std::string cold_report = run_with(s, 1, &store, &cold);
  // Overwrite every entry with a validly-stored payload for a *different*
  // key (simulating a digest collision / mispaired blob): the engine's
  // key-echo check must reject them all and recompute.
  std::vector<std::string> digests;
  for (const auto& e : stdfs::recursive_directory_iterator(dir.path / "cells")) {
    if (e.is_regular_file()) digests.push_back(e.path().filename().string());
  }
  ASSERT_EQ(digests.size(), 4u);
  const std::string imposter = common::read_file(store.entry_path(digests[0]));
  for (const auto& d : digests) store.put(d, imposter);
  eval::BatchStats warm;
  EXPECT_EQ(run_with(s, 1, &store, &warm), cold_report);
  EXPECT_EQ(warm.solved + warm.store_hits, 4);
  EXPECT_GE(warm.solved, 3);  // at most the imposter's own slot can hit
}

TEST(EngineStore, ForeignSampleRowsDegradeToMiss) {
  TempDir dir("rows");
  const eval::Scenario s = store_scenario();
  store::ResultStore store(dir.path);
  eval::BatchStats cold;
  const std::string cold_report = run_with(s, 1, &store, &cold);
  std::vector<std::string> digests;
  for (const auto& e : stdfs::recursive_directory_iterator(dir.path / "cells")) {
    if (e.is_regular_file()) digests.push_back(e.path().filename().string());
  }
  ASSERT_EQ(digests.size(), 4u);
  // Keep each payload's schema and key but make its first row one this cell
  // cannot emit: a topology index the scenario lacks (the report's
  // aggregates would throw at render), the scenario's other seed (it would
  // be averaged in silently), a topology id that narrows to this cell's own
  // index as an int, a sample name no metric of the cell emits, a valid
  // name at a sample index its series cannot have (samples_per_seed is 1),
  // or a negative index. Each entry must be dropped and recomputed, which
  // re-persists a good one.
  for (int corruption = 0; corruption < 6; ++corruption) {
    SCOPED_TRACE(corruption);
    for (const std::string& digest : digests) {
      json::Value v = json::Value::parse(common::read_file(store.entry_path(digest)));
      json::Value* samples = nullptr;
      for (auto& [key, member] : v.as_object()) {
        if (key == "samples") samples = &member;
      }
      ASSERT_NE(samples, nullptr);
      json::Array& row = samples->as_array().front().as_array();
      const std::int64_t topo = row[0].as_int();
      const std::uint64_t seed = row[2].as_uint();
      switch (corruption) {
        case 0: row[0] = json::Value(7); break;
        case 1: row[2] = json::Value(std::uint64_t{3} - seed); break;
        case 2: row[0] = json::Value(topo + (std::int64_t{1} << 32)); break;
        case 3: row[4] = json::Value("bogus"); break;
        case 4: row[3] = json::Value(5); break;
        default: row[3] = json::Value(-1); break;
      }
      store.put(digest, v.dump());
    }
    eval::BatchStats warm;
    EXPECT_EQ(run_with(s, 1, &store, &warm), cold_report);
    EXPECT_EQ(warm.solved, 4);
    EXPECT_EQ(warm.store_hits, 0);
  }
  eval::BatchStats warm2;
  EXPECT_EQ(run_with(s, 2, &store, &warm2), cold_report);
  EXPECT_EQ(warm2.solved, 0);
}

TEST(EngineStore, MemoHitsAndStoreComposeInSweeps) {
  TempDir dir("sweep");
  // Two sweep points; the "ft" row is untouched by the axis, so its cells
  // memoize in-batch on every run and its store entries are written once.
  eval::SweepSpec spec;
  spec.base = store_scenario();
  eval::SweepAxis axis;
  axis.entries.push_back({.field = "topology.switches", .only = "jf", .values = {12, 14}});
  spec.axes.push_back(axis);
  store::ResultStore store(dir.path);
  eval::BatchStats cold, warm;
  eval::EngineOptions opts;
  opts.threads = 2;
  opts.store = &store;
  opts.stats = &cold;
  const std::string cold_report =
      eval::sweep_report_to_json(eval::run_sweep(spec, opts)).dump(2);
  // 2 points x 2 rows x 2 seeds = 8 cells; the constant ft row's second
  // point duplicates its first in-batch.
  EXPECT_EQ(cold.cells, 8);
  EXPECT_EQ(cold.memo_hits, 2);
  EXPECT_EQ(cold.solved, 6);
  opts.stats = &warm;
  const std::string warm_report =
      eval::sweep_report_to_json(eval::run_sweep(spec, opts)).dump(2);
  EXPECT_EQ(warm_report, cold_report);
  EXPECT_EQ(warm.solved, 0);
  EXPECT_EQ(warm.memo_hits, 2);
  EXPECT_EQ(warm.store_hits, 6);
}

// --- schema versioning ---

TEST(SchemaVersion, ReportsCarryTheVersion) {
  eval::Report r;
  r.scenario = "v";
  const json::Value v = eval::report_to_json(r);
  const json::Value* schema = v.find("schema_version");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_int(), eval::kReportSchemaVersion);
}

}  // namespace
}  // namespace jf
