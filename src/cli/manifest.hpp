// Batch-manifest parsing, split out of cmd_batch so the structural layer
// is a pure function of the manifest text: no file IO, no instance
// building. tests/fuzz_parser_test.cpp hammers it with mutated inputs —
// the contract is "malformed manifests throw std::invalid_argument with a
// line number, never crash, never silently misparse".
//
// Format: one job per line of whitespace-separated key=value tokens; a
// bare key means "1"; '#' starts a comment; blank lines are skipped.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mimdmap::cli {

/// One manifest job line, parsed and structurally validated (known keys,
/// key conflicts, required keys, numeric fields) but not yet resolved
/// against the filesystem.
struct ManifestJobSpec {
  int line_no = 0;
  std::map<std::string, std::string> kv;
};

/// Splits one line into key=value pairs (bare keys mean "1"). Throws
/// std::invalid_argument on empty keys or duplicates.
[[nodiscard]] std::map<std::string, std::string> parse_manifest_line(const std::string& line,
                                                                     int line_no);

/// Parses a whole manifest: comments and blanks stripped, every line
/// through parse_manifest_line, then per-line structural validation —
/// unknown keys, system=/spec= exclusivity, clustering= vs
/// strategy=/seed= conflicts, required problem= and machine keys, and all
/// numeric fields (deadline-ms may be negative — the explicit opt-out;
/// seeds and trial counts may not). Throws std::invalid_argument naming the first
/// offending line. An empty manifest parses to an empty vector — whether
/// that is an error is the caller's policy.
[[nodiscard]] std::vector<ManifestJobSpec> parse_manifest(const std::string& text);

/// Unsigned numeric field: all-digits only (stoull alone would accept
/// "5k" as 5 or wrap "-1"). Returns `fallback` when absent.
[[nodiscard]] std::uint64_t manifest_seed(const std::map<std::string, std::string>& kv,
                                          const std::string& key, std::uint64_t fallback,
                                          int line_no);

/// Signed numeric field (digits with optional leading '-').
[[nodiscard]] std::int64_t manifest_int(const std::map<std::string, std::string>& kv,
                                        const std::string& key, std::int64_t fallback,
                                        int line_no);

/// The whole file at `path`: a manifest, or a problem=, system= or
/// clustering= input it names. Regular files are read in one call into a
/// string sized from the file size. Throws std::invalid_argument when the
/// file cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

/// Bare key or any value other than "0"/"false" means true.
[[nodiscard]] bool manifest_bool(const std::map<std::string, std::string>& kv,
                                 const std::string& key);

}  // namespace mimdmap::cli
