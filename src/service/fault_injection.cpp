#include "service/fault_injection.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <new>
#include <stdexcept>

namespace mimdmap {
namespace {

struct FaultState {
  std::mutex mutex;          // guards config writes; reads copy under it
  FaultConfig config;
  std::uint64_t generation = 0;  // bumped by every set_fault_config
  std::condition_variable replaced;  // notified with each bump
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> draws{0};
  std::once_flag env_once;
};

FaultState& state() {
  static FaultState s;
  return s;
}

/// splitmix64 over (seed, draw index): lock-free, reproducible for a fixed
/// opportunity interleaving.
double next_uniform01(FaultState& s, std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL *
                               (s.draws.fetch_add(1, std::memory_order_relaxed) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

void load_env_locked(FaultState& s) {
  const char* raw = std::getenv("MIMDMAP_FAULT");
  if (raw == nullptr || raw[0] == '\0') return;
  // A malformed env spec must not take the process down from inside an
  // innocent service call; it just disarms injection.
  try {
    s.config = parse_fault_spec(raw);
    s.enabled.store(s.config.any(), std::memory_order_relaxed);
  } catch (const std::exception&) {
    s.config = FaultConfig{};
    s.enabled.store(false, std::memory_order_relaxed);
  }
}

void ensure_env_loaded(FaultState& s) noexcept {
  std::call_once(s.env_once, [&s] {
    const std::lock_guard<std::mutex> lock(s.mutex);
    load_env_locked(s);
  });
}

/// Draws against `probability`; true means "inject here".
bool should_inject(double probability) {
  if (probability <= 0.0) return false;
  FaultState& s = state();
  std::uint64_t seed;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    seed = s.config.seed;
  }
  return next_uniform01(s, seed) < probability;
}

double armed_probability(double FaultConfig::* field) {
  FaultState& s = state();
  if (!fault_injection_enabled()) return 0.0;
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.config.*field;
}

}  // namespace

FaultConfig set_fault_config(const FaultConfig& config) {
  FaultState& s = state();
  ensure_env_loaded(s);
  FaultConfig previous;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    previous = s.config;
    s.config = config;
    ++s.generation;
    s.draws.store(0, std::memory_order_relaxed);
    s.enabled.store(config.any(), std::memory_order_relaxed);
  }
  s.replaced.notify_all();  // releases runners stalled under the old config
  return previous;
}

FaultConfig fault_config() {
  FaultState& s = state();
  ensure_env_loaded(s);
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.config;
}

bool fault_injection_enabled() noexcept {
  FaultState& s = state();
  ensure_env_loaded(s);
  return s.enabled.load(std::memory_order_relaxed);
}

FaultConfig parse_fault_spec(const std::string& spec) {
  FaultConfig config;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      throw std::invalid_argument("MIMDMAP_FAULT: expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    try {
      if (key == "build") {
        config.build_throw = std::stod(value);
      } else if (key == "mapper") {
        config.mapper_throw = std::stod(value);
      } else if (key == "topo-alloc") {
        config.topo_alloc_fail = std::stod(value);
      } else if (key == "slow-ms") {
        config.slow_runner_ms = std::stoi(value);
      } else if (key == "seed") {
        config.seed = std::stoull(value);
      } else {
        throw std::invalid_argument("MIMDMAP_FAULT: unknown key '" + key + "'");
      }
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      throw std::invalid_argument("MIMDMAP_FAULT: bad value for '" + key + "': " + value);
    }
  }
  if (config.build_throw < 0.0 || config.build_throw > 1.0 ||
      config.mapper_throw < 0.0 || config.mapper_throw > 1.0 ||
      config.topo_alloc_fail < 0.0 || config.topo_alloc_fail > 1.0 ||
      config.slow_runner_ms < 0) {
    throw std::invalid_argument("MIMDMAP_FAULT: probabilities must be in [0, 1]");
  }
  return config;
}

void fault_point_build() {
  if (should_inject(armed_probability(&FaultConfig::build_throw))) {
    throw std::runtime_error("fault: build");
  }
}

void fault_point_mapper() {
  if (should_inject(armed_probability(&FaultConfig::mapper_throw))) {
    throw std::runtime_error("fault: mapper");
  }
}

void fault_point_topo_alloc() {
  if (should_inject(armed_probability(&FaultConfig::topo_alloc_fail))) {
    throw std::bad_alloc();
  }
}

void fault_sleep_runner(const CancelToken& cancel) {
  FaultState& s = state();
  if (!fault_injection_enabled()) return;
  std::unique_lock<std::mutex> lock(s.mutex);
  if (s.config.slow_runner_ms <= 0) return;
  using clock = std::chrono::steady_clock;
  const auto until = clock::now() + std::chrono::milliseconds(s.config.slow_runner_ms);
  const std::uint64_t generation = s.generation;
  // A new config wakes the condvar at once; the token has no condvar to
  // wait on, so it is polled every few milliseconds.
  constexpr auto kPoll = std::chrono::milliseconds(5);
  while (s.generation == generation && !cancel.signalled()) {
    const auto now = clock::now();
    if (now >= until) break;
    s.replaced.wait_until(lock, std::min(until, now + kPoll));
  }
}

}  // namespace mimdmap
