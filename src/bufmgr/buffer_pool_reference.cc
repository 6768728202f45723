// Reference pool-pressure computation: the original O(capacity) frame scan,
// verbatim.
//
// Kept in its own translation unit as the oracle that the incremental
// per-shard state behind BufferPool::UnevictablePressure is tested against
// (tests/bufmgr_test.cc, PressureDifferentialTest). Do not optimize it.
#include "bufmgr/buffer_pool.h"

namespace pythia {

double BufferPool::UnevictablePressureByScan(SimTime now) const {
  if (options_.capacity_pages == 0) return 0.0;
  size_t n = 0;
  for (const auto& shard : shards_) {
    Guard guard(this, shard.get(), /*profile=*/false);
    for (const Frame& f : shard->frames) {
      if (!f.valid) continue;
      if (f.pin_count > 0 || (f.in_flight && f.arrival > now)) ++n;
    }
  }
  return static_cast<double>(n) / static_cast<double>(options_.capacity_pages);
}

}  // namespace pythia
