// The benchmark's own arithmetic: percentiles under the sample-count rule,
// span self time, and the highest in-SLO rung of an arrival-rate ladder.
// Kept free of program dependencies beyond util/metrics.h so stats_test.cc
// can check it in isolation.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// A percentile q is reported only when at least ten samples lie beyond it:
// n * (1 - q) >= 10. A p50 needs 20 samples, a p99 needs 1000.
bool PercentileSupported(size_t n, double q);

// Percentile q of `values` (linear interpolation between closest ranks, as
// pythia::Quantile), or nullopt when the sample is too small for q.
std::optional<double> Percentile(std::vector<double> values, double q);

double Mean(const std::vector<double>& values);

// Median of a few per-pass or per-set-up results (0 when empty). Unlike
// Percentile it has no sample-count rule: each value is itself a summary.
double Median(std::vector<double> values);

// Folds one repetition of the same timed items into `best`, keeping each
// item's smallest time so far; the first repetition is taken whole. A
// wall-clock sample can only be slowed by load from elsewhere on the
// machine, so the best of repetitions spread over a run is the steadiest
// estimate of an item's own cost. False, leaving `best` as it was, when the
// repetition times a different number of items.
bool KeepBest(std::vector<double>* best, const std::vector<double>& sample);

// One timed interval. Spans of one request share `request`; `parent` is the
// id of the enclosing span, 0 for a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  uint64_t request = 0;
  uint32_t lane = 0;  // recording thread, for the written-out trace
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// Length of the union of [start, end) intervals, clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi);

// Self time of `span`: its duration minus the part of it that its direct
// children in `all` cover. Overlapping children count once.
int64_t SelfNs(const Span& span, const std::vector<Span>& all);

// One rung of an open-loop arrival-rate ladder.
struct RungOutcome {
  double rate = 0.0;  // sessions per virtual second
  std::optional<double> p99_ms;  // virtual, arrival to completion
  uint64_t rejected = 0;
  uint64_t failed = 0;
};

// Highest rate whose p99 is known and within `slo_ms` with no rejected or
// failed session; 0 when no rung qualifies. Rung order does not matter.
double MaxRateInSlo(const std::vector<RungOutcome>& rungs, double slo_ms);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
