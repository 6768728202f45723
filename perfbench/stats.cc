#include "stats.h"

#include <algorithm>

#include "util/metrics.h"

namespace perfbench {

bool PercentileSupported(size_t n, double q) {
  // Compare in integer hundredths so 1000 * (1 - 0.99) is not lost to
  // rounding just below 10.
  const int64_t beyond_hundredths =
      static_cast<int64_t>(n) * (100 - static_cast<int64_t>(q * 100 + 0.5));
  return n > 0 && beyond_hundredths >= 10 * 100;
}

std::optional<double> Percentile(std::vector<double> values, double q) {
  if (!PercentileSupported(values.size(), q)) return std::nullopt;
  std::sort(values.begin(), values.end());
  return pythia::Quantile(values, q);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return pythia::Quantile(values, 0.5);
}

bool KeepBest(std::vector<double>* best, const std::vector<double>& sample) {
  if (best->empty()) {
    *best = sample;
    return true;
  }
  if (best->size() != sample.size()) return false;
  for (size_t i = 0; i < sample.size(); ++i) {
    (*best)[i] = std::min((*best)[i], sample[i]);
  }
  return true;
}

int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;  // everything before `reach` is already counted
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    reach = end;
  }
  return covered;
}

int64_t SelfNs(const Span& span, const std::vector<Span>& all) {
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& s : all) {
    if (s.parent == span.id && s.id != span.id) {
      children.emplace_back(s.start_ns, s.end_ns);
    }
  }
  return span.duration_ns() -
         CoveredNs(std::move(children), span.start_ns, span.end_ns);
}

double MaxRateInSlo(const std::vector<RungOutcome>& rungs, double slo_ms) {
  double best = 0.0;
  for (const RungOutcome& r : rungs) {
    if (!r.p99_ms.has_value() || *r.p99_ms > slo_ms) continue;
    if (r.rejected != 0 || r.failed != 0) continue;
    best = std::max(best, r.rate);
  }
  return best;
}

}  // namespace perfbench
