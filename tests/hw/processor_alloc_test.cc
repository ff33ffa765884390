// Allocation budget of a CPU charge: once the frame pool and the simulator's
// queues are warm, a burst of Compute calls that makes every hardware thread
// of a 244-thread Processor busy makes no heap allocation.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/base/units.h"
#include "src/hw/fabric.h"
#include "src/hw/processor.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "tests/base/alloc_count.h"

namespace solros {
namespace {

constexpr int kThreads = 244;

Task<void> ComputeFor(Processor* cpu, Nanos reference_ns) {
  co_await cpu->Compute(reference_ns);
}

void Burst(Simulator& sim, Processor* cpu) {
  for (int i = 0; i < kThreads; ++i) {
    Spawn(sim, ComputeFor(cpu, Microseconds(1)));
  }
  sim.RunUntilIdle();
}

TEST(ProcessorAllocationTest, BurstUpToAllThreadsBusyMakesNoHeapAllocation) {
  Simulator sim;
  Processor cpu(&sim, DeviceId{0}, kThreads, 0.125, "phi");
  // The warm-up burst runs on a twin, so the counted burst is the first to
  // make all of `cpu`'s threads busy: a reservation heap that grew on
  // demand would allocate in it.
  Processor twin(&sim, DeviceId{0}, kThreads, 0.125, "twin");
  Burst(sim, &twin);
  RunSim(sim, ComputeFor(&cpu, Microseconds(1)));

  const SimTime start = sim.now();
  StartCountingAllocations();
  Burst(sim, &cpu);
  const uint64_t allocations = StopCountingAllocations();
  // Every charge ran at once: 1 us of reference work takes 8 us here.
  EXPECT_EQ(sim.now(), start + Microseconds(8));
  EXPECT_EQ(cpu.total_busy_time(), Microseconds(8) * (kThreads + 1));
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace solros
