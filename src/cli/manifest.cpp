#include "cli/manifest.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>

namespace mimdmap::cli {
namespace {

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw std::invalid_argument("manifest line " + std::to_string(line_no) + ": " + what);
}

const std::set<std::string>& known_keys() {
  static const std::set<std::string> keys = {
      "problem",       "system",      "spec",          "clustering",
      "strategy",      "seed",        "name",          "trials",
      "refine-seed",   "serialize",   "contention",    "weighted-links",
      "extended-critical", "random-trials", "random-seed", "deadline-ms",
      "multilevel",    "coarsen-target", "level-trials"};
  return keys;
}

}  // namespace

std::map<std::string, std::string> parse_manifest_line(const std::string& line, int line_no) {
  std::map<std::string, std::string> kv;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    const std::string key = token.substr(0, eq);
    const std::string value = eq == std::string::npos ? "1" : token.substr(eq + 1);
    if (key.empty() || !kv.emplace(key, value).second) {
      fail(line_no, "bad or duplicate token '" + token + "'");
    }
  }
  return kv;
}

std::uint64_t manifest_seed(const std::map<std::string, std::string>& kv,
                            const std::string& key, std::uint64_t fallback, int line_no) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  const std::string& value = it->second;
  // All-digits only: stoull alone would accept '5k' as 5 or wrap '-1'.
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
    fail(line_no, key + "='" + value + "' is not a number");
  }
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    fail(line_no, key + "='" + value + "' is out of range");
  }
}

std::int64_t manifest_int(const std::map<std::string, std::string>& kv,
                          const std::string& key, std::int64_t fallback, int line_no) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  const std::string& value = it->second;
  const std::size_t digits_from = value.size() > 0 && value[0] == '-' ? 1 : 0;
  if (value.size() == digits_from ||
      value.find_first_not_of("0123456789", digits_from) != std::string::npos) {
    fail(line_no, key + "='" + value + "' is not a number");
  }
  try {
    return std::stoll(value);
  } catch (const std::exception&) {
    fail(line_no, key + "='" + value + "' is out of range");
  }
}

bool manifest_bool(const std::map<std::string, std::string>& kv, const std::string& key) {
  const auto it = kv.find(key);
  return it != kv.end() && it->second != "0" && it->second != "false";
}

std::vector<ManifestJobSpec> parse_manifest(const std::string& text) {
  std::vector<ManifestJobSpec> specs;
  std::istringstream manifest(text);
  std::string line;
  int line_no = 0;
  while (std::getline(manifest, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ManifestJobSpec spec;
    spec.line_no = line_no;
    spec.kv = parse_manifest_line(line, line_no);

    for (const auto& [key, value] : spec.kv) {
      (void)value;
      if (!known_keys().count(key)) fail(line_no, "unknown key '" + key + "'");
    }
    if (!spec.kv.count("problem")) fail(line_no, "missing required key 'problem'");
    if (spec.kv.count("system") && spec.kv.count("spec")) {
      fail(line_no, "give either system= or spec=, not both");
    }
    if (!spec.kv.count("system") && !spec.kv.count("spec")) {
      fail(line_no, "missing required key 'spec' (or 'system')");
    }
    if (spec.kv.count("clustering") && (spec.kv.count("strategy") || spec.kv.count("seed"))) {
      fail(line_no, "clustering= conflicts with strategy=/seed=");
    }
    // Validate every numeric field up front so a bad value is a parse
    // error with a line number, not a surprise mid-batch.
    (void)manifest_seed(spec.kv, "seed", 1, line_no);
    (void)manifest_seed(spec.kv, "refine-seed", 0, line_no);
    (void)manifest_seed(spec.kv, "trials", 0, line_no);
    (void)manifest_seed(spec.kv, "random-trials", 0, line_no);
    (void)manifest_seed(spec.kv, "random-seed", 0, line_no);
    (void)manifest_int(spec.kv, "deadline-ms", 0, line_no);
    (void)manifest_seed(spec.kv, "coarsen-target", 0, line_no);
    (void)manifest_int(spec.kv, "level-trials", -1, line_no);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::invalid_argument("cannot open input file '" + path + "'");
  std::string text;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec && size > 0) {
    text.resize(static_cast<std::size_t>(size));
    text.resize(static_cast<std::size_t>(
        file.rdbuf()->sgetn(text.data(), static_cast<std::streamsize>(size))));
  }
  // Whatever the size did not cover: pipes, directories, a growing file.
  text.append(std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>());
  return text;
}

}  // namespace mimdmap::cli
