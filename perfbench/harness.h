// Shared pieces of the repo benchmark: run context, wall clock, in-memory
// span recording, the metric report, the seeded fixture (database, traces,
// models) and the instrumented replay loop used by the traced runs.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/replay.h"
#include "core/system.h"
#include "stats.h"
#include "util/thread_pool.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64 step: derives independent seeds from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

// Spans kept in memory and written out once, at the end of a traced run.
// One recorder per thread; Merge folds another thread's spans in.
class SpanRecorder {
 public:
  explicit SpanRecorder(uint32_t lane = 0) : lane_(lane) {}

  // Opens a span under the innermost open span of this recorder.
  uint64_t Begin(const char* name, uint64_t request);
  void End(uint64_t id);
  void Merge(const SpanRecorder& other);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations (µs) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  // Self times (µs) of every span called `name`.
  std::vector<double> SelfUs(const std::string& name) const;

  // Chrome trace-event JSON; false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  uint32_t lane_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_
};

// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  uint64_t id_;
};

struct RunContext {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  unsigned threads = 1;  // nproc: the most threads a workload may use
  SpanRecorder* spans = nullptr;  // non-null iff traced
};

// Metrics of one run, in the order they were added.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0;  // 0 = a count or ratio, not a sampled timing
  };

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  // Adds percentile q of `values`; when the sample is too small the value
  // is 0 and the shortfall is recorded as a failed check unless `optional`.
  void AddPercentile(const std::string& name, const std::vector<double>& values,
                     double q, const std::string& unit, bool optional);

  // A figure printed with the metrics but not part of the result line, for
  // numbers too noisy (or too often 0) to gate a change on.
  void Note(const std::string& name, double value, const std::string& unit,
            size_t samples = 0);

  // A failed correctness check: the run prints correct=false and exits 1.
  void Fail(const std::string& what);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Metric>& notes() const { return notes_; }
  std::vector<Metric>& mutable_metrics() { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }
  bool correct() const { return failures_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Hash over the run's deterministic (virtual-time) results; equal seeds
  // must give equal digests in every process.
  uint64_t virtual_digest = 0xcbf29ce484222325ULL;
  void Digest(uint64_t value);

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  std::vector<std::string> failures_;
};

// The seeded inputs. Models are trained here, never loaded from disk, so
// every run pays the same set-up.
struct Fixture {
  std::unique_ptr<pythia::Database> db;
  pythia::Workload wl18, wl91;                        // training workloads
  std::optional<pythia::WorkloadModel> m18, m91;
  std::vector<const pythia::WorkloadQuery*> held_out;  // t91/t18 interleaved
  pythia::Workload held18, held91;
  double generate_s = 0.0;
  double train_s = 0.0;
  double setup_s = 0.0;
};

// Builds the bench/common.h DSB-like database and, from `seed`, the t18/t91
// traces; trains both models from `seed` when `train`; generates
// `held_out_per_template` queries per template from a different seed.
// Exits the process on failure.
Fixture BuildFixture(uint64_t seed, bool train, int held_out_per_template);

// Runs `fn` on a worker of the program's shared thread pool and waits for
// it. There every nested ParallelFor runs inline, so each Predict and
// PredictBatch works on one lane. Fanned out over the pool, a ~1 ms Predict
// waits on wake-ups of parked workers on the other vCPUs; on a shared VM
// their cost moved query wall times by up to 2x within half an hour, while
// one-lane timings held within a few percent. Set-up, which trains the
// models, stays on the caller and uses every lane.
template <typename Fn>
void OnOneLane(Fn&& fn) {
  pythia::ThreadPool::Global().SubmitBackground(std::forward<Fn>(fn)).Join();
}

// Peak resident set size of the process, MB.
double PeakRssMb();

// OS page cache counters at one moment (they only grow).
struct OsCounters {
  uint64_t hits = 0, seq = 0, random = 0;
  static OsCounters Read(pythia::OsPageCache& os);
};

// Counters of the layers under a replay, summed over the replays measured.
struct LayerCounters {
  pythia::BufferPoolStats pool;
  pythia::PrefetchSessionStats prefetch;
  OsCounters os;
  uint64_t io_ops = 0;
  pythia::SimTime io_busy_us = 0;

  void AddSession(const pythia::PrefetchSessionStats& s);
  // Adds the OS cache's growth since `before` and the I/O scheduler's
  // totals, which ColdRestart resets.
  void AddStorage(pythia::SimEnvironment* env, const OsCounters& before);
  // The core.prefetcher, bufmgr, storage.os_cache, storage.io and
  // storage.retries counters.
  void ReportTo(Report* report) const;
};

// Per-access costs collected by the instrumented replay loop.
struct ReplayTimers {
  uint64_t accesses = 0;
  uint64_t pump_ns = 0;
  uint64_t onfetch_ns = 0;
  std::vector<float> fetch_sample_ns;  // FetchPage calls, every stride-th
  uint32_t sample_stride = 1;
  pythia::SimTime backlog_max_us = 0;  // IoScheduler backlog at accesses
  void Merge(const ReplayTimers& other);
};

// ReplayQuery's loop, driven from the benchmark so each public call
// (PrefetchSession::Pump, BufferPool::FetchPage, PrefetchSession::OnFetch)
// is timed. Same arguments and the same result as ReplayQuery, except that
// pool_stats is the pool's cumulative stats (equal to ReplayQuery's delta
// when the pool's stats were reset just before).
pythia::ReplayResult TimedReplay(const pythia::QueryTrace& trace,
                                 const std::vector<pythia::PageId>& pages,
                                 const pythia::PrefetcherOptions& options,
                                 pythia::SimEnvironment* env,
                                 ReplayTimers* timers);

// Exact equality of replay results (status code, virtual time, access
// count, every pool and session counter).
bool SameReplay(const pythia::ReplayResult& a, const pythia::ReplayResult& b);

// Each workload fills `report` with every end-to-end metric (untraced) or
// every per-layer metric (traced).
void RunSingleCold(const RunContext& ctx, Report* report);
void RunFleetOpen(const RunContext& ctx, Report* report);
void RunThreadsShared(const RunContext& ctx, Report* report);

// The metrics every run prints: the end-to-end table for untraced runs and
// the per-layer table for traced runs, each name with its unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& LayerMetrics();

// Reorders `report` to follow `table` and records a failed check for any
// metric missing, repeated, unknown or in the wrong unit. With
// `zero_missing`, a table metric the workload did not measure (its layer is
// not exercised) is added as 0 instead.
void Conform(Report* report, const std::vector<MetricSpec>& table,
             bool zero_missing);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
