// Allocation counting for the benchmark binary: alloc_count.cc replaces the
// global operator new, so every heap allocation made anywhere in the process
// bumps one counter. Differences around a call give its exact allocation
// count when no other thread allocates meanwhile.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

uint64_t AllocationCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
