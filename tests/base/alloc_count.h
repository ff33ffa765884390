// Counts calls of the global operator new, for allocation-budget tests.
// alloc_count.cc replaces the global operator new and delete, so a binary
// that links it holds only tests that count allocations.
#ifndef SOLROS_TESTS_BASE_ALLOC_COUNT_H_
#define SOLROS_TESTS_BASE_ALLOC_COUNT_H_

#include <cstdint>

namespace solros {

// Starts counting from zero.
void StartCountingAllocations();
// Stops counting and returns the calls made since the start.
uint64_t StopCountingAllocations();

}  // namespace solros

#endif  // SOLROS_TESTS_BASE_ALLOC_COUNT_H_
