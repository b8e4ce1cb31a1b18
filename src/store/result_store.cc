#include "store/result_store.h"

#include <algorithm>
#include <vector>

#include "common/fs.h"
#include "common/json.h"
#include "obs/metrics.h"

namespace jf::store {

namespace fs = std::filesystem;

namespace {

bool is_hex_digest(const std::string& name) {
  if (name.size() != 64) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

// Store telemetry: one counter per hit, miss, put, eviction and dropped
// entry (a failed read of an indexed entry), plus latency and byte volume.
// Exact when metrics are on; never part of a report.
obs::Counter& obs_hits() {
  static obs::Counter& c = obs::counter("store.hits");
  return c;
}
obs::Counter& obs_misses() {
  static obs::Counter& c = obs::counter("store.misses");
  return c;
}
obs::Counter& obs_puts() {
  static obs::Counter& c = obs::counter("store.puts");
  return c;
}
obs::Counter& obs_evictions() {
  static obs::Counter& c = obs::counter("store.evictions");
  return c;
}
obs::Counter& obs_dropped() {
  static obs::Counter& c = obs::counter("store.dropped");
  return c;
}
obs::Counter& obs_bytes_read() {
  static obs::Counter& c = obs::counter("store.bytes_read");
  return c;
}
obs::Counter& obs_bytes_written() {
  static obs::Counter& c = obs::counter("store.bytes_written");
  return c;
}
obs::Distribution& obs_get_ns() {
  static obs::Distribution& d = obs::distribution("store.get_ns");
  return d;
}
obs::Distribution& obs_put_ns() {
  static obs::Distribution& d = obs::distribution("store.put_ns");
  return d;
}

}  // namespace

ResultStore::ResultStore(fs::path root, StoreOptions opts)
    : root_(std::move(root)), opts_(opts) {
  std::error_code ec;
  fs::create_directories(root_ / "cells", ec);
  if (ec || !fs::is_directory(root_ / "cells")) {
    throw std::runtime_error("result store: cannot create '" + (root_ / "cells").string() +
                             (ec ? "': " + ec.message() : "'"));
  }
  load_index();
}

ResultStore::~ResultStore() {
  try {
    flush();
  } catch (...) {
    // Destructor flush is best effort; a stale manifest only loses LRU order.
  }
}

void ResultStore::load_index() {
  // The directory tree is the truth: names + sizes only, no content reads,
  // so opening a store with 100k entries is one readdir pass.
  std::error_code ec;
  // detlint: ok(scan fills the name-keyed entries_ map; readdir order is lost)
  for (const auto& shard : fs::directory_iterator(root_ / "cells", ec)) {
    if (!shard.is_directory()) continue;
    std::error_code ec2;
    // detlint: ok(same — insertion into a keyed map is order-independent)
    for (const auto& file : fs::directory_iterator(shard.path(), ec2)) {
      const std::string name = file.path().filename().string();
      // Skip temp files from interrupted writers and anything foreign.
      if (!is_hex_digest(name) || !file.is_regular_file()) continue;
      std::error_code sec;
      const std::uint64_t bytes = file.file_size(sec);
      if (sec) continue;
      entries_[name] = {bytes, 0};
      total_bytes_ += bytes;
    }
  }

  // Manifest sidecar: contributes only the LRU clocks. Missing, corrupt, or
  // layout-mismatched manifests are discarded wholesale — entries survive
  // via the scan above.
  const auto manifest = common::try_read_file(root_ / "manifest.json");
  if (!manifest) return;
  try {
    const json::Value v = json::Value::parse(*manifest);
    const json::Value* version = v.find("version");
    if (version == nullptr || version->as_int() != kLayoutVersion) return;
    if (const json::Value* clock = v.find("clock")) {
      clock_ = clock->as_uint();
    }
    if (const json::Value* list = v.find("entries")) {
      for (const auto& e : list->as_array()) {
        const json::Value* d = e.find("d");
        const json::Value* u = e.find("u");
        if (d == nullptr || u == nullptr) continue;
        auto it = entries_.find(d->as_string());
        if (it != entries_.end()) it->second.used = u->as_uint();
      }
    }
  } catch (const std::exception&) {
    // Corrupt manifest: keep the scanned entries, reset the clocks.
    for (auto& [_, e] : entries_) e.used = 0;
    clock_ = 0;
  }
  // The clock must stay ahead of every loaded stamp so new uses win LRU.
  for (const auto& [_, e] : entries_) clock_ = std::max(clock_, e.used);
}

fs::path ResultStore::entry_path(const std::string& digest) const {
  const std::string shard = digest.size() >= 2 ? digest.substr(0, 2) : std::string("xx");
  return root_ / "cells" / shard / digest;
}

std::optional<std::string> ResultStore::get(const std::string& digest) {
  obs::ScopedTimer timer(obs_get_ns());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(digest);
    if (it == entries_.end()) {
      obs_misses().increment();
      return std::nullopt;
    }
    it->second.used = ++clock_;
  }
  // Read outside the lock; the entry may race with an eviction or an
  // external deletion, in which case the read fails and we degrade to a
  // miss — the caller recomputes.
  auto bytes = common::try_read_file(entry_path(digest));
  std::lock_guard<std::mutex> lock(mu_);
  if (!bytes) {
    auto it = entries_.find(digest);
    if (it != entries_.end()) {
      total_bytes_ -= std::min(total_bytes_, it->second.bytes);
      entries_.erase(it);
      obs_dropped().increment();
    }
    obs_misses().increment();
    return std::nullopt;
  }
  obs_hits().increment();
  obs_bytes_read().add(static_cast<std::int64_t>(bytes->size()));
  return bytes;
}

void ResultStore::put(const std::string& digest, std::string_view value) {
  obs::ScopedTimer timer(obs_put_ns());
  common::write_file_atomic(entry_path(digest), value);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(digest);
  if (!inserted) total_bytes_ -= std::min(total_bytes_, it->second.bytes);
  it->second.bytes = value.size();
  it->second.used = ++clock_;
  total_bytes_ += value.size();
  obs_puts().increment();
  obs_bytes_written().add(static_cast<std::int64_t>(value.size()));
  evict_over_budget_locked(digest);
}

void ResultStore::evict_over_budget_locked(const std::string& keep) {
  if (opts_.max_bytes == 0 || total_bytes_ <= opts_.max_bytes) return;
  // Oldest first; the just-put entry is spared so a hot cell larger than
  // the whole budget still caches (and evicts everything else).
  std::vector<std::pair<std::uint64_t, std::string>> by_age;
  by_age.reserve(entries_.size());
  for (const auto& [d, e] : entries_) {
    if (d != keep) by_age.emplace_back(e.used, d);
  }
  std::sort(by_age.begin(), by_age.end());
  for (const auto& [_, digest] : by_age) {
    if (total_bytes_ <= opts_.max_bytes) break;
    auto it = entries_.find(digest);
    total_bytes_ -= std::min(total_bytes_, it->second.bytes);
    entries_.erase(it);
    std::error_code ec;
    fs::remove(entry_path(digest), ec);
    obs_evictions().increment();
  }
}

void ResultStore::erase(const std::string& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(digest);
  if (it != entries_.end()) {
    total_bytes_ -= std::min(total_bytes_, it->second.bytes);
    entries_.erase(it);
  }
  std::error_code ec;
  fs::remove(entry_path(digest), ec);
}

void ResultStore::flush() {
  json::Object manifest;
  {
    std::lock_guard<std::mutex> lock(mu_);
    manifest.emplace_back("version", kLayoutVersion);
    manifest.emplace_back("clock", clock_);
    json::Array list;
    for (const auto& [d, e] : entries_) {
      json::Object entry;
      entry.emplace_back("d", d);
      entry.emplace_back("b", e.bytes);
      entry.emplace_back("u", e.used);
      list.emplace_back(json::Value(std::move(entry)));
    }
    manifest.emplace_back("entries", json::Value(std::move(list)));
  }
  common::write_file_atomic(root_ / "manifest.json",
                            json::Value(std::move(manifest)).dump() + "\n");
}

std::size_t ResultStore::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t ResultStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

}  // namespace jf::store
