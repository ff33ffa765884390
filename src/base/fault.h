// Deterministic fault injection.
//
// Components declare named injection points once and probe them on the
// paths that can fail in a real deployment:
//
//   static FaultPoint* const media = Faults().GetPoint("nvme.cmd.fail");
//   if (media->ShouldFire()) {
//     co_return IoError("injected nvme media error");
//   }
//
// Three trigger shapes cover the failure-matrix tests:
//   probability p  -- fire each hit with probability p (per-point xoshiro
//                     PRNG, so the decision sequence depends only on the
//                     global seed, the point name, and the hit ordinal);
//   every Nth      -- fire deterministically on hits N, 2N, 3N, ...;
//   one-shot       -- fire on the next hit, then disarm.
//
// Determinism: arming a point reseeds its PRNG from the registry seed mixed
// with an FNV-1a hash of the point name and zeroes its counters, so two
// runs that arm the same specs observe identical fault sequences no matter
// when the points were first created. Disarmed points cost one relaxed
// atomic load per probe and schedule nothing, so runs with no faults armed
// are byte-identical to a build without any probes.
//
// Configuration comes from the SOLROS_FAULTS environment variable (read
// once, when the default registry is first used) or programmatically:
//
//   SOLROS_FAULTS="nvme.cmd.timeout=0.01,hw.dma.error=1/64,seed=7"
//
// Comma-separated `point=trigger` entries; a trigger is a probability in
// [0,1], `1/N` for every-Nth, or `once`; the reserved key `seed=<u64>`
// sets the registry seed (default 0x50171005). The environment may name
// only the points in kFaultPointNames; a malformed value fails the run.
#ifndef SOLROS_SRC_BASE_FAULT_H_
#define SOLROS_SRC_BASE_FAULT_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/base/prng.h"
#include "src/base/status.h"

namespace solros {

// Every point the simulator probes.
inline constexpr std::string_view kFaultPointNames[] = {
    "hw.dma.error",         "hw.fabric.stall",
    "iosched.stall",        "nvme.cmd.fail",
    "nvme.cmd.timeout",     "nvme.powercut",
    "nvme.tornwrite",       "rpc.corrupt.request",
    "rpc.corrupt.response", "rpc.drop.request",
    "rpc.drop.response",    "transport.ring.recv_stall",
    "transport.ring.send_stall",
};

struct FaultSpec {
  // Fire each hit with this probability (0 disables the probabilistic arm).
  double probability = 0.0;
  // Fire on hits N, 2N, 3N, ... (0 disables; 1 fires every hit).
  uint64_t every_nth = 0;
  // Fire on the next hit, then disarm the point.
  bool one_shot = false;

  static FaultSpec Probability(double p) { return {.probability = p}; }
  static FaultSpec EveryNth(uint64_t n) { return {.every_nth = n}; }
  static FaultSpec OneShot() { return {.one_shot = true}; }
};

// One named injection point. Obtain via FaultRegistry::GetPoint; pointers
// are stable for the registry's lifetime, so call sites cache them in
// function-local statics. Thread-safe (the transport fault tests probe from
// real threads); under the single-threaded simulator the decision sequence
// is fully deterministic.
class FaultPoint {
 public:
  const std::string& name() const { return name_; }

  // Fast probe: false immediately when disarmed (one relaxed load).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // Counts a hit and decides whether the fault fires on it.
  bool ShouldFire();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }

 private:
  friend class FaultRegistry;
  FaultPoint(std::string name, uint64_t registry_seed);

  // Reseeds the PRNG and zeroes counters (called under the registry lock).
  void Arm(const FaultSpec& spec, uint64_t registry_seed);
  void Disarm();

  std::mutex mu_;
  const std::string name_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> fires_{0};
  FaultSpec spec_;
  Prng prng_;  // guarded by mu_
};

class FaultRegistry {
 public:
  FaultRegistry() = default;
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  // The process-wide instance; applies SOLROS_FAULTS on first use and
  // CHECK-fails on a bad value.
  static FaultRegistry& Default();

  // Returns the point registered under `name`, creating it (disarmed) on
  // first use. The pointer is stable for the registry's lifetime.
  FaultPoint* GetPoint(const std::string& name);

  // Arms `name` with `spec`, reseeding its fault PRNG and zeroing its
  // counters. Rejects specs with no trigger or probability outside [0,1].
  Status Arm(const std::string& name, const FaultSpec& spec);
  void Disarm(const std::string& name);
  void DisarmAll();

  // True while at least one point is armed; recovery layers use this to
  // keep timeout timers and frame checksums entirely off in fault-free
  // runs (zero overhead, bit-identical schedules).
  bool any_armed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  // Seed mixed into every point's PRNG; changing it re-arms nothing by
  // itself (points reseed when armed).
  void set_seed(uint64_t seed);
  uint64_t seed() const;

  // Applies a SOLROS_FAULTS-syntax config string (see file comment). On a
  // malformed entry, or with `known_points_only` an entry naming a point
  // outside kFaultPointNames, nothing is armed and an error names the entry.
  Status Configure(std::string_view config, bool known_points_only = false);

  // Configure(SOLROS_FAULTS, known_points_only); unset or empty arms
  // nothing. The error names the bad value.
  Status ConfigureFromEnv();

  // `name  hits  fires` table of every point touched this process, armed
  // or not (deterministic, name-sorted). Appended to Machine::DumpStats.
  void DumpText(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  uint64_t seed_ = 0x50171005ull;
  std::atomic<uint64_t> armed_count_{0};
  std::map<std::string, std::unique_ptr<FaultPoint>> points_;
};

// Shorthand used at injection sites.
inline FaultRegistry& Faults() { return FaultRegistry::Default(); }

}  // namespace solros

#endif  // SOLROS_SRC_BASE_FAULT_H_
