#include "src/base/fault.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iterator>
#include <ostream>
#include <vector>

#include "src/base/logging.h"

namespace solros {
namespace {

// FNV-1a over the point name: decorrelates per-point PRNG streams so the
// fire sequence of one point never depends on which other points exist.
uint64_t HashName(std::string_view name) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

FaultPoint::FaultPoint(std::string name, uint64_t registry_seed)
    : name_(std::move(name)), prng_(registry_seed ^ HashName(name_)) {}

void FaultPoint::Arm(const FaultSpec& spec, uint64_t registry_seed) {
  std::lock_guard<std::mutex> lock(mu_);
  spec_ = spec;
  prng_ = Prng(registry_seed ^ HashName(name_));
  hits_.store(0, std::memory_order_relaxed);
  fires_.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_relaxed);
}

void FaultPoint::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_relaxed);
  spec_ = FaultSpec{};
}

bool FaultPoint::ShouldFire() {
  if (!armed()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_.load(std::memory_order_relaxed)) {
    return false;  // lost a race with Disarm
  }
  uint64_t hit = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  if (spec_.one_shot) {
    fire = true;
    armed_.store(false, std::memory_order_relaxed);
  } else if (spec_.every_nth > 0) {
    fire = hit % spec_.every_nth == 0;
  } else if (spec_.probability > 0.0) {
    fire = prng_.NextBool(spec_.probability);
  }
  if (fire) {
    fires_.fetch_add(1, std::memory_order_relaxed);
  }
  return fire;
}

FaultRegistry& FaultRegistry::Default() {
  static FaultRegistry* const registry = [] {
    auto* r = new FaultRegistry();
    CHECK_OK(r->ConfigureFromEnv());
    return r;
  }();
  return *registry;
}

FaultPoint* FaultRegistry::GetPoint(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_
             .emplace(name, std::unique_ptr<FaultPoint>(
                                new FaultPoint(name, seed_)))
             .first;
  }
  return it->second.get();
}

Status FaultRegistry::Arm(const std::string& name, const FaultSpec& spec) {
  if (spec.probability < 0.0 || spec.probability > 1.0) {
    return InvalidArgumentError("fault probability outside [0,1]");
  }
  if (spec.probability == 0.0 && spec.every_nth == 0 && !spec.one_shot) {
    return InvalidArgumentError("fault spec has no trigger: " + name);
  }
  FaultPoint* point = GetPoint(name);
  std::lock_guard<std::mutex> lock(mu_);
  if (!point->armed()) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  }
  point->Arm(spec, seed_);
  return OkStatus();
}

void FaultRegistry::Disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it != points_.end() && it->second->armed()) {
    it->second->Disarm();
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, point] : points_) {
    if (point->armed()) {
      point->Disarm();
      armed_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void FaultRegistry::set_seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
}

uint64_t FaultRegistry::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seed_;
}

Status FaultRegistry::ConfigureFromEnv() {
  const char* env = std::getenv("SOLROS_FAULTS");
  std::string_view value = env != nullptr ? env : "";
  Status status = Configure(value, /*known_points_only=*/true);
  if (!status.ok()) {
    return InvalidArgumentError("SOLROS_FAULTS: bad value \"" +
                                std::string(value) + "\" (" +
                                status.message() + ")");
  }
  return OkStatus();
}

Status FaultRegistry::Configure(std::string_view config,
                                bool known_points_only) {
  // Parse fully before arming anything so a malformed tail cannot leave a
  // half-applied config behind.
  struct Entry {
    std::string name;
    FaultSpec spec;
  };
  std::vector<Entry> entries;
  uint64_t new_seed = seed();
  size_t pos = 0;
  while (pos < config.size()) {
    size_t comma = config.find(',', pos);
    std::string_view item = config.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    pos = comma == std::string_view::npos ? config.size() : comma + 1;
    if (item.empty()) {
      continue;
    }
    size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 >= item.size()) {
      return InvalidArgumentError("bad fault entry: " + std::string(item));
    }
    std::string name(item.substr(0, eq));
    std::string trigger(item.substr(eq + 1));
    if (name == "seed") {
      char* end = nullptr;
      new_seed = std::strtoull(trigger.c_str(), &end, 0);
      if (end == nullptr || *end != '\0') {
        return InvalidArgumentError("bad fault seed: " + trigger);
      }
      continue;
    }
    if (known_points_only &&
        std::find(std::begin(kFaultPointNames), std::end(kFaultPointNames),
                  name) == std::end(kFaultPointNames)) {
      return InvalidArgumentError("unknown fault point: " + name);
    }
    FaultSpec spec;
    if (trigger == "once") {
      spec.one_shot = true;
    } else if (size_t slash = trigger.find('/');
               slash != std::string_view::npos) {
      if (trigger.substr(0, slash) != "1") {
        return InvalidArgumentError("every-Nth trigger must be 1/N: " +
                                    trigger);
      }
      char* end = nullptr;
      spec.every_nth = std::strtoull(trigger.c_str() + slash + 1, &end, 10);
      if (end == nullptr || *end != '\0' || spec.every_nth == 0) {
        return InvalidArgumentError("bad every-Nth trigger: " + trigger);
      }
    } else {
      char* end = nullptr;
      spec.probability = std::strtod(trigger.c_str(), &end);
      if (end == nullptr || *end != '\0' || spec.probability < 0.0 ||
          spec.probability > 1.0) {
        return InvalidArgumentError("bad fault probability: " + trigger);
      }
    }
    entries.push_back({std::move(name), spec});
  }
  set_seed(new_seed);
  for (const Entry& entry : entries) {
    SOLROS_RETURN_IF_ERROR(Arm(entry.name, entry.spec));
  }
  return OkStatus();
}

void FaultRegistry::DumpText(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t width = 0;
  for (const auto& [name, point] : points_) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, point] : points_) {
    os << std::left << std::setw(static_cast<int>(width) + 2) << name
       << (point->armed() ? "armed   " : "disarmed") << "  hits "
       << point->hits() << "  fires " << point->fires() << "\n";
  }
}

}  // namespace solros
