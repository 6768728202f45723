#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "bench/common.h"

namespace perfbench {

using namespace pythia;

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- Spans -----------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_next_span_id{1};
}  // namespace

uint64_t SpanRecorder::Begin(const char* name, uint64_t request) {
  Span s;
  s.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.name = name;
  s.request = request;
  s.lane = lane_;
  open_.push_back(spans_.size());
  spans_.push_back(std::move(s));
  spans_.back().start_ns = NowNs();
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  const int64_t now = NowNs();
  // Spans close innermost first (they are scoped), so the match is on top.
  if (open_.empty() || spans_[open_.back()].id != id) {
    std::fprintf(stderr, "perfbench: span %" PRIu64 " closed out of order\n",
                 id);
    std::abort();
  }
  spans_[open_.back()].end_ns = now;
  open_.pop_back();
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration_ns() / 1e3);
  }
  return out;
}

std::vector<double> SpanRecorder::SelfUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(SelfNs(s, spans_) / 1e3);
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                 ",\"parent\":%" PRIu64 ",\"request\":%" PRIu64 "}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.lane,
                 (s.start_ns - t0) / 1e3, s.duration_ns() / 1e3, s.id,
                 s.parent, s.request);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- Report ----------------------------------------------------------------

void Report::Add(const std::string& name, double value, const std::string& unit,
                 size_t samples) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::AddPercentile(const std::string& name,
                           const std::vector<double>& values, double q,
                           const std::string& unit, bool optional) {
  const std::optional<double> v = Percentile(values, q);
  if (!v.has_value() && !optional) {
    Fail(name + ": " + std::to_string(values.size()) +
         " samples are too few for this percentile");
  }
  Add(name, v.value_or(0.0), unit, values.size());
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit, size_t samples) {
  notes_.push_back(Metric{name, value, unit, samples});
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::Digest(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    virtual_digest ^= (value >> (8 * i)) & 0xff;
    virtual_digest *= 1099511628211ULL;
  }
}

// --- Fixture ---------------------------------------------------------------

namespace {

Workload Generate(const Database& db, TemplateId id, int num_queries,
                  uint64_t seed) {
  WorkloadOptions options;
  options.num_queries = num_queries;
  options.seed = seed;
  Result<Workload> w = GenerateWorkload(db, id, options);
  if (!w.ok()) {
    std::fprintf(stderr, "perfbench: workload generation failed: %s\n",
                 w.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*w);
}

WorkloadModel Train(const Database& db, const Workload& workload,
                    uint64_t seed) {
  PredictorOptions options = bench::DefaultPredictor();
  options.seed = seed;
  Result<WorkloadModel> m = WorkloadModel::Train(db, workload, options);
  if (!m.ok()) {
    std::fprintf(stderr, "perfbench: training failed: %s\n",
                 m.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*m);
}

}  // namespace

Fixture BuildFixture(uint64_t seed, bool train, int held_out_per_template) {
  Fixture fx;
  const int64_t t0 = NowNs();
  // The canonical bench/common.h database: its shape sets the models'
  // output layers, and a per-seed database would move every wall-clock
  // metric with the model size. The seed varies traces and weights.
  fx.db = bench::Dsb();
  fx.wl18 = Generate(*fx.db, TemplateId::kDsb18, bench::kNumQueries,
                     DeriveSeed(seed, 2));
  fx.wl91 = Generate(*fx.db, TemplateId::kDsb91, bench::kNumQueries,
                     DeriveSeed(seed, 3));
  if (held_out_per_template > 0) {
    fx.held18 = Generate(*fx.db, TemplateId::kDsb18, held_out_per_template,
                         DeriveSeed(seed, 4));
    fx.held91 = Generate(*fx.db, TemplateId::kDsb91, held_out_per_template,
                         DeriveSeed(seed, 5));
    for (int i = 0; i < held_out_per_template; ++i) {
      fx.held_out.push_back(&fx.held91.queries[i]);
      fx.held_out.push_back(&fx.held18.queries[i]);
    }
  }
  const int64_t t1 = NowNs();
  if (train) {
    fx.m18.emplace(Train(*fx.db, fx.wl18, DeriveSeed(seed, 6)));
    fx.m91.emplace(Train(*fx.db, fx.wl91, DeriveSeed(seed, 7)));
  }
  const int64_t t2 = NowNs();
  fx.generate_s = (t1 - t0) / 1e9;
  fx.train_s = (t2 - t1) / 1e9;
  fx.setup_s = (t2 - t0) / 1e9;
  return fx;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Layer counters --------------------------------------------------------

OsCounters OsCounters::Read(OsPageCache& os) {
  return OsCounters{os.hits(), os.sequential_reads(), os.random_reads()};
}

void LayerCounters::AddSession(const PrefetchSessionStats& s) {
  prefetch.issued += s.issued;
  prefetch.already_buffered += s.already_buffered;
  prefetch.consumed += s.consumed;
  prefetch.dropped_faulty += s.dropped_faulty;
  prefetch.dropped_corrupt += s.dropped_corrupt;
  prefetch.timed_out += s.timed_out;
  prefetch.shed_by_governor += s.shed_by_governor;
  prefetch.dropped_brownout += s.dropped_brownout;
}

void LayerCounters::AddStorage(SimEnvironment* env, const OsCounters& before) {
  const OsCounters now = OsCounters::Read(env->os_cache());
  os.hits += now.hits - before.hits;
  os.seq += now.seq - before.seq;
  os.random += now.random - before.random;
  io_ops += env->io().scheduled_ops();
  for (size_t c = 0; c < env->io().num_channels(); ++c) {
    io_busy_us += env->io().channel_busy_us(c);
  }
}

void LayerCounters::ReportTo(Report* report) const {
  const PrefetchSessionStats& pf = prefetch;
  report->Add("core.prefetcher.useful_ratio",
              static_cast<double>(pf.consumed) /
                  static_cast<double>(pf.issued + pf.already_buffered),
              "ratio");
  report->Add("core.prefetcher.issued", pf.issued, "count");
  report->Add("core.prefetcher.dropped",
              pf.dropped_faulty + pf.dropped_corrupt + pf.timed_out +
                  pf.shed_by_governor + pf.dropped_brownout,
              "count");
  report->Add("bufmgr.hit_ratio",
              static_cast<double>(pool.buffer_hits) / pool.fetches, "ratio");
  report->Add("bufmgr.prefetch_hits", pool.prefetch_hits, "count");
  report->Add("bufmgr.prefetch_wait_hits", pool.prefetch_wait_hits, "count");
  report->Add("bufmgr.prefetch_wait_ms", pool.prefetch_wait_us / 1e3,
              "virtual_ms");
  report->Add("bufmgr.evictions", pool.evictions, "count");
  report->Add("bufmgr.uncached_reads", pool.uncached_reads, "count");
  report->Add("storage.os_cache.hit_ratio",
              static_cast<double>(os.hits) /
                  static_cast<double>(os.hits + os.seq + os.random),
              "ratio");
  report->Add("storage.os_cache.seq_reads", os.seq, "count");
  report->Add("storage.os_cache.random_reads", os.random, "count");
  report->Add("storage.io.scheduled_ops", io_ops, "count");
  report->Add("storage.io.busy_ms", io_busy_us / 1e3, "virtual_ms");
  report->Add("storage.retries", pool.read_retries, "count");
}

// --- Instrumented replay ---------------------------------------------------

void ReplayTimers::Merge(const ReplayTimers& other) {
  accesses += other.accesses;
  pump_ns += other.pump_ns;
  onfetch_ns += other.onfetch_ns;
  fetch_sample_ns.insert(fetch_sample_ns.end(), other.fetch_sample_ns.begin(),
                         other.fetch_sample_ns.end());
  backlog_max_us = std::max(backlog_max_us, other.backlog_max_us);
}

ReplayResult TimedReplay(const QueryTrace& trace,
                         const std::vector<PageId>& pages,
                         const PrefetcherOptions& options, SimEnvironment* env,
                         ReplayTimers* timers) {
  ReplayResult result;
  const LatencyModel& latency = env->options().latency;
  std::unique_ptr<PrefetchSession> session;
  if (!pages.empty()) {
    PrefetcherOptions opts = options;
    if (opts.channel_breakers == nullptr) {
      opts.channel_breakers = env->channel_breakers();
    }
    session = std::make_unique<PrefetchSession>(
        pages, opts, &env->pool(), &env->os_cache(), &env->io(), latency);
  }
  SimTime now = 0;
  for (const PageAccess& access : trace.accesses) {
    now += static_cast<SimTime>(access.cpu_tuples_before) *
           latency.cpu_per_tuple_us;
    // Sampling every access would serialize threaded runs on the
    // scheduler mutex; every 16th keeps the maximum close.
    if ((timers->accesses & 15) == 0) {
      timers->backlog_max_us =
          std::max(timers->backlog_max_us, env->io().QueueBacklogUs(now));
    }
    const int64_t t0 = NowNs();
    if (session != nullptr) session->Pump(now);
    const int64_t t1 = NowNs();
    const Result<FetchResult> fetch = env->pool().FetchPage(access.page, now);
    const int64_t t2 = NowNs();
    timers->pump_ns += t1 - t0;
    if (timers->accesses % timers->sample_stride == 0) {
      timers->fetch_sample_ns.push_back(static_cast<float>(t2 - t1));
    }
    ++timers->accesses;
    if (!fetch.ok()) {
      result.status = fetch.status();
      break;
    }
    now += fetch->latency_us;
    ++result.completed_accesses;
    if (session != nullptr) {
      session->OnFetch(access.page, now);
      timers->onfetch_ns += NowNs() - t2;
    }
  }
  if (session != nullptr) {
    session->Finish();
    result.prefetch_stats = session->stats();
  }
  result.elapsed_us = now;
  result.pool_stats = env->pool().stats();
  return result;
}

bool SameReplay(const ReplayResult& a, const ReplayResult& b) {
  static_assert(std::has_unique_object_representations_v<BufferPoolStats>);
  static_assert(
      std::has_unique_object_representations_v<PrefetchSessionStats>);
  return a.status.code() == b.status.code() && a.elapsed_us == b.elapsed_us &&
         a.completed_accesses == b.completed_accesses &&
         std::memcmp(&a.pool_stats, &b.pool_stats, sizeof(a.pool_stats)) ==
             0 &&
         std::memcmp(&a.prefetch_stats, &b.prefetch_stats,
                     sizeof(a.prefetch_stats)) == 0;
}

// --- Metric tables ----------------------------------------------------------

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> table = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"speedup.p50", "x"},
      {"query_virtual_ms.p50", "virtual_ms"},
      {"query_virtual_ms.p99", "virtual_ms"},
      {"query_wall_us.p50", "us"},
      {"max_rate_in_slo", "1/virtual_s"},
      {"queries_per_wall_s", "1/s"},
      {"fetches_per_wall_s", "M/s"},
  };
  return table;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> table = {
      {"workload.generate_s", "s"},
      {"core.predictor.train_s", "s"},
      {"core.predictor.predict_us.p50", "us"},
      {"core.predictor.predict_us.p99", "us"},
      {"core.predictor.f1.p50", "ratio"},
      {"core.predictor.precision.p50", "ratio"},
      {"core.predictor.recall.p50", "ratio"},
      {"core.system.plan_us.p50", "us"},
      {"core.system.plan_us.p99", "us"},
      {"core.system.plan_self_us.p50", "us"},
      {"core.system.allocs_per_plan", "count"},
      {"core.prediction_cache.hit_ratio", "ratio"},
      {"core.batch_predictor.rows_per_forward", "rows"},
      {"core.batch_predictor.deduped", "count"},
      {"core.batch_predictor.call_us.p50", "us"},
      {"core.batch_predictor.wait_virtual_ms.p99", "virtual_ms"},
      {"core.replay.dflt_ns_per_access", "ns"},
      {"core.replay.pythia_ns_per_access", "ns"},
      {"core.replay.allocs_per_access", "count"},
      {"core.replay.concurrent_wall_ms", "ms"},
      {"core.prefetcher.pump_ns_per_access", "ns"},
      {"core.prefetcher.onfetch_ns_per_access", "ns"},
      {"core.prefetcher.useful_ratio", "ratio"},
      {"core.prefetcher.issued", "count"},
      {"core.prefetcher.dropped", "count"},
      {"core.governor.pages_shed", "count"},
      {"core.governor.rung_degrades", "count"},
      {"core.governor.queue_wait_ms.max", "virtual_ms"},
      {"core.governor.rejected", "count"},
      {"core.governor.deadline_stops", "count"},
      {"bufmgr.fetch_ns.p50", "ns"},
      {"bufmgr.fetch_ns.p99", "ns"},
      {"bufmgr.hit_ratio", "ratio"},
      {"bufmgr.prefetch_hits", "count"},
      {"bufmgr.prefetch_wait_hits", "count"},
      {"bufmgr.prefetch_wait_ms", "virtual_ms"},
      {"bufmgr.evictions", "count"},
      {"bufmgr.uncached_reads", "count"},
      {"bufmgr.lock_wait_ns_per_fetch", "ns"},
      {"bufmgr.lock_contended_frac", "ratio"},
      {"bufmgr.lock_hold_ns.mean", "ns"},
      {"storage.os_cache.hit_ratio", "ratio"},
      {"storage.os_cache.seq_reads", "count"},
      {"storage.os_cache.random_reads", "count"},
      {"storage.io.scheduled_ops", "count"},
      {"storage.io.busy_ms", "virtual_ms"},
      {"storage.io.backlog_ms.max", "virtual_ms"},
      {"storage.retries", "count"},
      {"storage.hedges_issued", "count"},
      {"storage.hedges_won", "count"},
      {"tracing.overhead_us", "us"},
      {"tracing.overhead_frac", "ratio"},
  };
  return table;
}

void Conform(Report* report, const std::vector<MetricSpec>& table,
             bool zero_missing) {
  std::vector<Report::Metric> measured = std::move(report->mutable_metrics());
  std::vector<Report::Metric>& out = report->mutable_metrics();
  out.clear();
  for (const MetricSpec& spec : table) {
    size_t found = 0;
    for (const Report::Metric& m : measured) {
      if (m.name != spec.name) continue;
      if (++found == 1) out.push_back(m);
      if (m.unit != spec.unit) {
        report->Fail(m.name + " reported in " + m.unit + ", expected " +
                     spec.unit);
      }
    }
    if (found > 1) report->Fail(std::string(spec.name) + " reported twice");
    if (found == 0 && zero_missing) {
      out.push_back(Report::Metric{spec.name, 0.0, spec.unit, 0});
    } else if (found == 0) {
      report->Fail(std::string(spec.name) + " was not measured");
    }
  }
  for (const Report::Metric& m : measured) {
    const bool known =
        std::any_of(table.begin(), table.end(),
                    [&](const MetricSpec& s) { return m.name == s.name; });
    if (!known) report->Fail(m.name + " is not in the metric table");
  }
}

}  // namespace perfbench
