// Checks the benchmark's own arithmetic: span self time with overlapping
// children, the sample-count rule for percentiles, best-of-repetitions
// timing, and the choice of the highest in-SLO rung. run.py runs it before
// every benchmark run; it prints each failed check and exits 1.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "stats_test: FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span MakeSpan(uint64_t id, uint64_t parent, int64_t start,
                         int64_t end) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.name = "span";
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  using perfbench::SelfNs;
  const perfbench::Span parent = MakeSpan(1, 0, 0, 100);
  Check(SelfNs(parent, {parent}) == 100, "a span without children is all self");

  // Children [10, 40) and [30, 60) overlap on [30, 40): together they cover
  // 50 ns, not 60.
  std::vector<perfbench::Span> spans = {parent, MakeSpan(2, 1, 10, 40),
                                        MakeSpan(3, 1, 30, 60)};
  Check(SelfNs(parent, spans) == 50, "overlapping children count once");

  // A child nested inside another child, and a grandchild, add nothing: only
  // direct children of the span are subtracted.
  spans.push_back(MakeSpan(4, 1, 15, 20));
  spans.push_back(MakeSpan(5, 2, 12, 38));
  Check(SelfNs(parent, spans) == 50, "contained children and grandchildren");
  Check(SelfNs(spans[1], spans) == 30 - 26, "a child's own self time");

  // A child running past the parent's end is clipped to the parent.
  const std::vector<perfbench::Span> clipped = {parent,
                                                MakeSpan(6, 1, 90, 130)};
  Check(SelfNs(parent, clipped) == 90, "children are clipped to the parent");

  // Children of another span do not count.
  const std::vector<perfbench::Span> other = {parent, MakeSpan(7, 9, 0, 100)};
  Check(SelfNs(parent, other) == 100, "other spans' children are ignored");
}

void TestPercentileRule() {
  using perfbench::Percentile;
  using perfbench::PercentileSupported;
  Check(PercentileSupported(1000, 0.99), "p99 with 1000 samples");
  Check(!PercentileSupported(999, 0.99), "no p99 with 999 samples");
  Check(PercentileSupported(20, 0.5), "p50 with 20 samples");
  Check(!PercentileSupported(19, 0.5), "no p50 with 19 samples");
  Check(!PercentileSupported(0, 0.5), "no percentile of nothing");
  Check(!Percentile(std::vector<double>(999, 1.0), 0.99).has_value(),
        "Percentile refuses a p99 of 999 samples");

  // 1..1000 in reverse: the median interpolates between 500 and 501, and
  // the p99 sits at rank 0.99 * 999 = 989.01 -> 990.01.
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);
  const std::optional<double> p50 = Percentile(values, 0.5);
  const std::optional<double> p99 = Percentile(values, 0.99);
  Check(p50.has_value() && Near(*p50, 500.5), "p50 of 1..1000");
  Check(p99.has_value() && Near(*p99, 990.01), "p99 of 1..1000");

  // Medians of a few summaries carry no sample-count rule.
  Check(Near(perfbench::Median({3.0, 1.0, 2.0}), 2.0), "median of three");
  Check(Near(perfbench::Median({4.0, 1.0}), 2.5), "median of two");
}

void TestKeepBest() {
  using perfbench::KeepBest;
  using Times = std::vector<double>;
  Times best;
  Check(KeepBest(&best, {3.0, 5.0, 4.0}) && best == Times{3.0, 5.0, 4.0},
        "the first repetition is taken whole");
  Check(KeepBest(&best, {4.0, 2.0, 4.0}) && best == Times{3.0, 2.0, 4.0},
        "each item keeps its own best time");
  Check(!KeepBest(&best, {1.0, 1.0}) && best == Times{3.0, 2.0, 4.0},
        "a repetition of other items is refused");
}

void TestMaxRateInSlo() {
  using perfbench::MaxRateInSlo;
  using perfbench::RungOutcome;
  const double slo = 1000.0;
  // Out of order on purpose; 400 breaks the SLO, 800 rejects.
  const std::vector<RungOutcome> rungs = {
      {200.0, 700.0, 0, 0},
      {800.0, 600.0, 12, 0},
      {100.0, 500.0, 0, 0},
      {400.0, 1200.0, 0, 0},
  };
  Check(MaxRateInSlo(rungs, slo) == 200.0, "highest rung within the SLO");

  const std::vector<RungOutcome> edge = {{100.0, 1000.0, 0, 0},
                                         {200.0, 1000.001, 0, 0}};
  Check(MaxRateInSlo(edge, slo) == 100.0, "a p99 equal to the SLO is in");

  const std::vector<RungOutcome> failing = {{100.0, 10.0, 0, 1}};
  Check(MaxRateInSlo(failing, slo) == 0.0, "a failed session breaks the SLO");

  const std::vector<RungOutcome> unsupported = {{100.0, std::nullopt, 0, 0}};
  Check(MaxRateInSlo(unsupported, slo) == 0.0,
        "a rung without a p99 does not qualify");
  Check(MaxRateInSlo({}, slo) == 0.0, "no rungs");
}

}  // namespace

int main() {
  TestSelfTime();
  TestPercentileRule();
  TestKeepBest();
  TestMaxRateInSlo();
  if (g_failures == 0) std::printf("stats_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
