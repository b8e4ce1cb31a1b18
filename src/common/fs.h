// Small filesystem helpers shared by the result store and the CLI.
//
// The one non-trivial piece is write_file_atomic: readers of the result
// store (possibly other processes, e.g. two batch runs sharing a
// --cache-dir) must never observe a half-written cell entry, so writes go
// to a unique temp file in the target directory and are renamed into
// place — rename within one directory is atomic on POSIX.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

namespace jf::common {

// Reads the whole file; throws std::runtime_error naming the path when it
// cannot be opened.
std::string read_file(const std::filesystem::path& path);

// Reads the whole file, or nullopt when it cannot be opened (missing,
// unreadable, a directory). Never throws for IO reasons.
std::optional<std::string> try_read_file(const std::filesystem::path& path);

// Writes `bytes` to a unique sibling temp file and renames it over `path`.
// Creates parent directories as needed. Concurrent writers of the same path
// each rename a complete file, so readers see one version or the other,
// never a mix. Throws std::runtime_error on IO failure.
void write_file_atomic(const std::filesystem::path& path, std::string_view bytes);

}  // namespace jf::common
