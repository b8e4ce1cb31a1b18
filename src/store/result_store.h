// Persistent content-addressed result cache — the disk half of the eval
// farm's "never re-solve anything" contract.
//
// The store maps a content digest (SHA-256 hex of a cell's canonical
// configuration bytes; see eval/engine.cc's cell keys) to an opaque value
// blob (the serialized per-cell samples). It is deliberately ignorant of
// what the blobs mean: the engine serializes, verifies, and interprets
// them, so the store stays a small, independently testable component.
//
// On-disk layout (versioned; kLayoutVersion):
//
//   <root>/manifest.json            LRU clocks + layout version (sidecar)
//   <root>/cells/<dg[0:2]>/<dg>     value blob, filename = 64-hex digest
//
// Durability and tolerance rules:
//   - Value writes are atomic (unique temp file + rename), so readers never
//     observe a torn entry.
//   - The directory tree is authoritative: open() scans it (names + sizes,
//     no content reads), and the manifest only contributes the LRU clocks.
//     A missing or corrupt manifest therefore loses eviction order, never
//     entries; entries written after the last flush() are still found.
//   - A manifest with a different layout version is discarded (clocks
//     reset); the entries themselves are re-validated by the engine's
//     key-echo check on load, so stale blobs degrade to misses.
//   - get() never throws for IO reasons: unreadable or vanished entries are
//     dropped from the index and reported as misses, which makes the
//     caller recompute (and re-put) them.
//
// A size budget (StoreOptions::max_bytes) evicts least-recently-used
// entries after each put. Evicting is always safe: an evicted cell is just
// a future recompute.
//
// Thread safety: all public methods are safe to call concurrently; file IO
// happens outside the index lock so parallel cells don't serialize on the
// store.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace jf::store {

struct StoreOptions {
  // Total value bytes the store may hold; 0 means unlimited. When a put
  // pushes the total past the budget, least-recently-used entries are
  // evicted (the entry just put is evicted last, even if it exceeds the
  // budget by itself).
  std::uint64_t max_bytes = 0;
};

class ResultStore {
 public:
  // Bump when the on-disk layout changes shape (paths, manifest schema).
  // Blob *content* versioning is the engine's job (it digests its schema
  // version into the key), not the store's.
  static constexpr int kLayoutVersion = 1;

  // Opens (creating if needed) the store rooted at `root`. Scans the cells
  // tree and merges the manifest's LRU clocks. Throws std::runtime_error
  // when the root cannot be created or is not a directory.
  explicit ResultStore(std::filesystem::path root, StoreOptions opts = {});

  // Flushes the manifest (best effort; errors are swallowed — the layout
  // rules above make a stale manifest harmless).
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  // Returns the value blob for `digest`, or nullopt. A present index entry
  // whose file cannot be read is dropped and reported as a miss.
  std::optional<std::string> get(const std::string& digest);

  // Inserts or replaces the entry, then evicts LRU entries past the byte
  // budget. Throws std::runtime_error on write failure.
  void put(const std::string& digest, std::string_view value);

  // Removes the entry (index + file) if present. Callers use this to drop
  // entries whose content failed verification.
  void erase(const std::string& digest);

  // Writes the manifest atomically. Throws std::runtime_error on failure.
  void flush();

  const std::filesystem::path& root() const { return root_; }
  std::size_t entry_count() const;
  std::uint64_t total_bytes() const;

  // Path of an entry's value file (exposed for tests and CI smokes that
  // corrupt entries deliberately).
  std::filesystem::path entry_path(const std::string& digest) const;

 private:
  struct Entry {
    std::uint64_t bytes = 0;
    std::uint64_t used = 0;  // LRU clock; higher = more recent
  };

  void load_index();
  void evict_over_budget_locked(const std::string& keep);

  std::filesystem::path root_;
  StoreOptions opts_;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace jf::store
