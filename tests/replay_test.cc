#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "core/baselines.h"
#include "core/governor.h"
#include "core/replay.h"
#include "util/rng.h"

namespace pythia {
namespace {

// A trace with `seq` sequential pages of object 1 followed by `random_pages`
// scattered accesses to object 2, mimicking fact-scan + dimension probes.
QueryTrace MakeMixedTrace(uint32_t seq, uint32_t random_pages) {
  QueryTrace trace;
  for (uint32_t p = 0; p < seq; ++p) {
    trace.accesses.push_back(PageAccess{PageId{1, p}, true, 5});
  }
  for (uint32_t i = 0; i < random_pages; ++i) {
    // Stride to avoid accidental sequential runs.
    trace.accesses.push_back(
        PageAccess{PageId{2, (i * 37) % 1000}, false, 5});
  }
  return trace;
}

SimOptions SmallSim() {
  SimOptions options;
  options.buffer_pages = 512;
  options.os_cache_pages = 2048;
  return options;
}

TEST(ReplayTest, ElapsedAccountsCpuAndIo) {
  SimEnvironment env(SmallSim());
  QueryTrace trace;
  trace.accesses.push_back(PageAccess{PageId{1, 0}, false, 10});
  const ReplayResult r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  const LatencyModel& lat = env.options().latency;
  EXPECT_EQ(r.elapsed_us, 10 * lat.cpu_per_tuple_us +
                              lat.disk_random_read_us);
}

TEST(ReplayTest, RepeatAccessIsBufferHit) {
  SimEnvironment env(SmallSim());
  QueryTrace trace;
  trace.accesses.push_back(PageAccess{PageId{1, 0}, false, 0});
  trace.accesses.push_back(PageAccess{PageId{1, 0}, false, 0});
  const ReplayResult r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  EXPECT_EQ(r.pool_stats.buffer_hits, 1u);
  EXPECT_EQ(r.pool_stats.disk_random_reads, 1u);
}

TEST(ReplayTest, SequentialScanUsesReadahead) {
  SimEnvironment env(SmallSim());
  const QueryTrace trace = MakeMixedTrace(100, 0);
  const ReplayResult r = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  // OS readahead turns most of the scan into cache copies.
  EXPECT_GT(r.pool_stats.os_cache_copies, 50u);
  EXPECT_LT(r.pool_stats.disk_random_reads, 5u);
}

TEST(ReplayTest, PrefetchingNonSeqPagesSpeedsUpQuery) {
  const QueryTrace trace = MakeMixedTrace(50, 200);

  SimEnvironment env(SmallSim());
  const ReplayResult dflt = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);

  env.ColdRestart();
  PrefetcherOptions options;
  options.start_delay_us = 0;
  const std::vector<PageId> oracle = OraclePages(trace);
  const ReplayResult prefetched = ReplayQuery(trace, oracle, options, &env);

  EXPECT_LT(prefetched.elapsed_us, dflt.elapsed_us);
  // A substantial speedup, not a rounding artifact.
  EXPECT_GT(static_cast<double>(dflt.elapsed_us) / prefetched.elapsed_us,
            1.5);
  // Clean hits plus wait-hits: both were served out of prefetched frames
  // (wait-hits paid part of the device time and are tracked separately).
  EXPECT_GT(prefetched.pool_stats.prefetch_hits +
                prefetched.pool_stats.prefetch_wait_hits,
            100u);
}

TEST(ReplayTest, ColdRestartResetsState) {
  SimEnvironment env(SmallSim());
  const QueryTrace trace = MakeMixedTrace(20, 50);
  const ReplayResult first = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  // Warm rerun is much faster; after ColdRestart timing matches cold run.
  const ReplayResult warm = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  EXPECT_LT(warm.elapsed_us, first.elapsed_us);
  env.ColdRestart();
  const ReplayResult cold = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  EXPECT_EQ(cold.elapsed_us, first.elapsed_us);
}

TEST(ReplayTest, WrongPrefetchDoesNotSlowQueryMuch) {
  // Prefetching useless pages must cost (almost) nothing for the query
  // itself — the paper's "practically no regression" claim.
  const QueryTrace trace = MakeMixedTrace(50, 100);
  SimEnvironment env(SmallSim());
  const ReplayResult dflt = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  env.ColdRestart();
  std::vector<PageId> wrong;
  for (uint32_t p = 0; p < 100; ++p) wrong.push_back(PageId{9, p});
  PrefetcherOptions options;
  options.start_delay_us = 0;
  const ReplayResult r = ReplayQuery(trace, wrong, options, &env);
  EXPECT_LT(r.elapsed_us, dflt.elapsed_us * 1.10);
}

TEST(ReplayTest, ConcurrentSingleQueryMatchesSolo) {
  const QueryTrace trace = MakeMixedTrace(30, 60);
  SimEnvironment env(SmallSim());
  const ReplayResult solo = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);

  env.ColdRestart();
  ConcurrentQuery q;
  q.trace = &trace;
  const ConcurrentResult conc = ReplayConcurrent({q}, &env);
  EXPECT_EQ(conc.end_us[0] - conc.start_us[0], solo.elapsed_us);
  EXPECT_EQ(conc.makespan_us, solo.elapsed_us);
}

TEST(ReplayTest, ConcurrentQueriesShareBufferPool) {
  // Two identical queries running together: the second benefits from pages
  // the first brought in, so total time < 2x solo cold time.
  const QueryTrace trace = MakeMixedTrace(30, 120);
  SimEnvironment env(SmallSim());
  const ReplayResult solo = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);

  env.ColdRestart();
  ConcurrentQuery a, b;
  a.trace = &trace;
  b.trace = &trace;
  const ConcurrentResult conc = ReplayConcurrent({a, b}, &env);
  EXPECT_LT(conc.total_query_us, 2 * solo.elapsed_us);
}

TEST(ReplayTest, ArrivalTimesRespected) {
  const QueryTrace trace = MakeMixedTrace(5, 5);
  SimEnvironment env(SmallSim());
  ConcurrentQuery a, b;
  a.trace = &trace;
  b.trace = &trace;
  b.arrival_us = 1000000;
  const ConcurrentResult conc = ReplayConcurrent({a, b}, &env);
  EXPECT_EQ(conc.start_us[1], 1000000u);
  EXPECT_GT(conc.end_us[1], 1000000u);
  EXPECT_LT(conc.end_us[0], conc.end_us[1]);
}

TEST(ReplayTest, ConcurrentWithPrefetchBeatsWithout) {
  const QueryTrace t1 = MakeMixedTrace(30, 150);
  const QueryTrace t2 = MakeMixedTrace(30, 150);
  SimEnvironment env(SmallSim());

  ConcurrentQuery a, b;
  a.trace = &t1;
  b.trace = &t2;
  const ConcurrentResult plain = ReplayConcurrent({a, b}, &env);

  env.ColdRestart();
  a.prefetch_pages = OraclePages(t1);
  b.prefetch_pages = OraclePages(t2);
  a.prefetch_options.start_delay_us = 0;
  b.prefetch_options.start_delay_us = 0;
  const ConcurrentResult fetched = ReplayConcurrent({a, b}, &env);
  EXPECT_LT(fetched.total_query_us, plain.total_query_us);
}

TEST(ReplayTest, EmptyTraceCompletesImmediately) {
  SimEnvironment env(SmallSim());
  QueryTrace empty;
  const ReplayResult r = ReplayQuery(empty, {}, PrefetcherOptions{}, &env);
  EXPECT_EQ(r.elapsed_us, 0u);
  ConcurrentQuery q;
  q.trace = &empty;
  q.arrival_us = 42;
  const ConcurrentResult conc = ReplayConcurrent({q}, &env);
  EXPECT_EQ(conc.end_us[0], 42u);
}

// ---------------------------------------------------------------------------
// Event-heap ReplayConcurrent vs the reference linear-scan loop.
// ---------------------------------------------------------------------------

// One randomly drawn batch: environment, admission/deadline knobs, optional
// governor, and queries whose trace pointers index into `traces`.
struct FleetCase {
  SimOptions sim;
  bool governed = false;
  GovernorOptions governor;
  size_t max_active_queries = 0;
  size_t admission_queue_limit = 16;
  SimTime default_deadline_us = 0;
  std::vector<QueryTrace> traces;
  std::vector<ConcurrentQuery> queries;
};

// Few distinct arrival times, zero-CPU accesses and a small page universe,
// so arrivals tie with each other and with running clocks; 15% empty
// traces; admission caps of none, one, all and a few; transient read
// errors with short retry budgets so queries die mid-trace.
FleetCase DrawFleet(uint64_t seed) {
  Pcg32 rng(seed, 0xf1ee7ULL);
  FleetCase fc;
  fc.sim.buffer_pages = 24 + rng.UniformU32(64);
  fc.sim.buffer_shards = rng.UniformU32(2) == 0 ? 1 : 4;
  fc.sim.os_cache_pages = 64 + rng.UniformU32(128);
  fc.sim.os_readahead_pages = rng.UniformU32(2) == 0 ? 0 : 8;
  fc.sim.io_channels = 1 + rng.UniformU32(4);
  const double error_probs[] = {0.0, 0.05, 0.3};
  fc.sim.faults.transient_error_prob = error_probs[rng.UniformU32(3)];
  fc.sim.faults.tail_latency_prob = rng.UniformU32(2) == 0 ? 0.0 : 0.05;
  fc.sim.faults.aio_stall_prob = rng.UniformU32(2) == 0 ? 0.0 : 0.05;
  fc.sim.faults.seed = seed;
  fc.sim.retry.max_attempts = 1 + rng.UniformU32(3);

  const size_t n = 1 + rng.UniformU32(40);
  const size_t caps[] = {0, 1, n, 2 + rng.UniformU32(4)};
  fc.max_active_queries = caps[rng.UniformU32(4)];
  const size_t limits[] = {0, 1, 3, 16};
  fc.admission_queue_limit = limits[rng.UniformU32(4)];
  fc.default_deadline_us =
      rng.UniformU32(2) == 0 ? 0 : 200 + rng.UniformU32(3000);
  fc.governed = rng.UniformU32(3) != 0;
  fc.governor.max_pinned_pages = 4 + rng.UniformU32(40);
  fc.governor.max_outstanding_aio = 2 + rng.UniformU32(16);
  fc.governor.cached_only_above = 0.2 + 0.1 * rng.UniformU32(4);
  fc.governor.readahead_above = fc.governor.cached_only_above + 0.2;
  fc.governor.no_prefetch_above = fc.governor.readahead_above + 0.15;

  fc.traces.resize(n);
  for (QueryTrace& t : fc.traces) {
    if (rng.UniformU32(100) < 15) continue;  // empty trace
    const uint32_t len = 1 + rng.UniformU32(60);
    for (uint32_t a = 0; a < len; ++a) {
      const uint32_t cpu[] = {0, 0, 1, 3, 20};
      t.accesses.push_back(PageAccess{
          PageId{1 + rng.UniformU32(3), rng.UniformU32(100)},
          rng.UniformU32(2) == 0, cpu[rng.UniformU32(5)]});
    }
  }
  fc.queries.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ConcurrentQuery& q = fc.queries[i];
    q.trace = &fc.traces[i];
    q.arrival_us = 100 * rng.UniformU32(6);
    if (rng.UniformU32(4) == 0) q.deadline_us = 100 + rng.UniformU32(2000);
    q.planned.rung = static_cast<DegradationRung>(rng.UniformU32(2));
    q.planned.predicted_pages = rng.UniformU32(50);
    q.planned.engaged = rng.UniformU32(2) == 0;
    if (rng.UniformU32(10) < 6) {
      for (const PageAccess& a : q.trace->accesses) {
        if (rng.UniformU32(3) != 0) q.prefetch_pages.push_back(a.page);
      }
      for (uint32_t k = rng.UniformU32(10); k > 0; --k) {
        q.prefetch_pages.push_back(
            PageId{1 + rng.UniformU32(3), rng.UniformU32(100)});
      }
      q.prefetch_options.readahead_window = 2 + rng.UniformU32(30);
      q.prefetch_options.start_delay_us = rng.UniformU32(500);
      q.prefetch_options.prefetch_timeout_us =
          rng.UniformU32(2) == 0 ? 0 : 100 + rng.UniformU32(1000);
      q.prefetch_options.priority = static_cast<int>(rng.UniformU32(3));
    }
  }
  return fc;
}

struct FleetRun {
  ConcurrentResult result;
  BufferPoolStats pool;
  GovernorStats governor;
  size_t pinned_frames = 0;
};

FleetRun RunFleet(const FleetCase& fc, bool reference) {
  SimEnvironment env(fc.sim);
  std::unique_ptr<PrefetchGovernor> governor;
  ConcurrentOptions options;
  options.max_active_queries = fc.max_active_queries;
  options.admission_queue_limit = fc.admission_queue_limit;
  options.default_deadline_us = fc.default_deadline_us;
  if (fc.governed) {
    governor = std::make_unique<PrefetchGovernor>(
        fc.governor, &env.pool(), &env.io(), &env.os_cache());
    options.governor = governor.get();
  }
  FleetRun run;
  run.result = reference
                   ? reference::ReplayConcurrent(fc.queries, options, &env)
                   : ReplayConcurrent(fc.queries, options, &env);
  run.pool = env.pool().stats();
  if (governor != nullptr) run.governor = governor->stats();
  run.pinned_frames = env.pool().pinned_frames();
  return run;
}

// All-uint64 structs compare bytewise, so no field can be skipped.
template <typename T>
bool SameBytes(const T& a, const T& b) {
  static_assert(sizeof(T) % sizeof(uint64_t) == 0);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

void ExpectSameRun(const FleetRun& want, const FleetRun& got,
                   uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const ConcurrentResult& w = want.result;
  const ConcurrentResult& g = got.result;
  EXPECT_EQ(w.start_us, g.start_us);
  EXPECT_EQ(w.end_us, g.end_us);
  ASSERT_EQ(w.queries.size(), g.queries.size());
  for (size_t i = 0; i < w.queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const QueryRunMetrics& a = w.queries[i];
    const QueryRunMetrics& b = g.queries[i];
    EXPECT_EQ(a.status.code(), b.status.code());
    EXPECT_EQ(a.status.message(), b.status.message());
    EXPECT_EQ(a.elapsed_us, b.elapsed_us);
    EXPECT_EQ(a.engaged, b.engaged);
    EXPECT_EQ(a.rung, b.rung);
    EXPECT_EQ(a.degraded_by_breaker, b.degraded_by_breaker);
    EXPECT_EQ(a.degraded_by_watchdog, b.degraded_by_watchdog);
    EXPECT_EQ(a.degraded_by_governor, b.degraded_by_governor);
    EXPECT_EQ(a.deadline_exceeded, b.deadline_exceeded);
    EXPECT_EQ(a.queue_wait_us, b.queue_wait_us);
    EXPECT_EQ(a.accuracy.precision, b.accuracy.precision);
    EXPECT_EQ(a.accuracy.recall, b.accuracy.recall);
    EXPECT_EQ(a.accuracy.f1, b.accuracy.f1);
    EXPECT_EQ(a.accuracy.true_positives, b.accuracy.true_positives);
    EXPECT_EQ(a.accuracy.predicted, b.accuracy.predicted);
    EXPECT_EQ(a.accuracy.actual, b.accuracy.actual);
    EXPECT_EQ(a.predicted_pages, b.predicted_pages);
    EXPECT_TRUE(SameBytes(a.pool_stats, b.pool_stats));
    EXPECT_TRUE(SameBytes(a.prefetch_stats, b.prefetch_stats));
  }
  EXPECT_TRUE(SameBytes(w.admission, g.admission));
  EXPECT_EQ(w.makespan_us, g.makespan_us);
  EXPECT_EQ(w.total_query_us, g.total_query_us);
  EXPECT_TRUE(SameBytes(want.pool, got.pool));
  EXPECT_TRUE(SameBytes(want.governor, got.governor));
  EXPECT_EQ(got.pinned_frames, 0u);
}

TEST(ReplayConcurrentDifferentialTest, HeapMatchesLinearScanOnRandomFleets) {
  AdmissionStats seen;
  uint64_t failed = 0, empty = 0, shed_or_denied = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const FleetCase fc = DrawFleet(seed);
    const FleetRun want = RunFleet(fc, /*reference=*/true);
    const FleetRun got = RunFleet(fc, /*reference=*/false);
    ExpectSameRun(want, got, seed);
    if (HasFailure()) break;  // one diverging seed is enough to read
    seen.admitted_after_wait += want.result.admission.admitted_after_wait;
    seen.rejected += want.result.admission.rejected;
    seen.deadline_stops += want.result.admission.deadline_stops;
    for (size_t i = 0; i < fc.queries.size(); ++i) {
      const QueryRunMetrics& m = want.result.queries[i];
      if (m.status.code() == StatusCode::kIoError) ++failed;
      if (fc.traces[i].accesses.empty()) ++empty;
      shed_or_denied += m.prefetch_stats.shed_by_governor +
                        m.prefetch_stats.denied_by_governor;
    }
  }
  // The draws reached every path the two loops could disagree on.
  EXPECT_GT(seen.admitted_after_wait, 0u);
  EXPECT_GT(seen.rejected, 0u);
  EXPECT_GT(seen.deadline_stops, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(empty, 0u);
  EXPECT_GT(shed_or_denied, 0u);
}

TEST(ReplayConcurrentDifferentialTest, QueuedBehindEmptyTraceUsesFallback) {
  // One slot; the running query's finish admits an empty-trace query that
  // ends on the spot, leaving nothing running or arriving while a third
  // query is still queued — the nothing-running fallback must admit it at
  // the latest event time.
  FleetCase fc;
  fc.max_active_queries = 1;
  fc.traces.resize(3);
  for (uint32_t p = 0; p < 5; ++p) {
    fc.traces[0].accesses.push_back(PageAccess{PageId{1, p}, false, 2});
    fc.traces[2].accesses.push_back(PageAccess{PageId{2, p}, false, 2});
  }
  fc.queries.resize(3);
  for (size_t i = 0; i < 3; ++i) fc.queries[i].trace = &fc.traces[i];
  const FleetRun want = RunFleet(fc, /*reference=*/true);
  const FleetRun got = RunFleet(fc, /*reference=*/false);
  ExpectSameRun(want, got, 0);
  EXPECT_EQ(got.result.start_us[1], got.result.end_us[0]);
  EXPECT_EQ(got.result.end_us[1], got.result.start_us[1]);
  EXPECT_EQ(got.result.start_us[2], got.result.end_us[0]);
  EXPECT_EQ(got.result.admission.admitted_after_wait, 2u);
}

// ---------------------------------------------------------------------------
// Sharded environment + multi-threaded fleet replay.
// ---------------------------------------------------------------------------

TEST(ShardedReplayTest, ShardedSoloReplayMatchesUnsharded) {
  // Capacity well above the trace's distinct pages: sharding must be
  // invisible — same elapsed time, same counters, field for field.
  const QueryTrace trace = MakeMixedTrace(40, 120);
  auto run = [&](size_t shards, size_t channels) {
    SimOptions sim = SmallSim();
    sim.buffer_shards = shards;
    sim.storage_channels = channels;
    SimEnvironment env(sim);
    return ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  };
  const ReplayResult base = run(1, 1);
  const ReplayResult sharded = run(4, 2);
  ASSERT_TRUE(base.status.ok());
  ASSERT_TRUE(sharded.status.ok());
  EXPECT_EQ(base.elapsed_us, sharded.elapsed_us);
  EXPECT_EQ(base.pool_stats.fetches, sharded.pool_stats.fetches);
  EXPECT_EQ(base.pool_stats.buffer_hits, sharded.pool_stats.buffer_hits);
  EXPECT_EQ(base.pool_stats.os_cache_copies,
            sharded.pool_stats.os_cache_copies);
  EXPECT_EQ(base.pool_stats.disk_seq_reads, sharded.pool_stats.disk_seq_reads);
  EXPECT_EQ(base.pool_stats.disk_random_reads,
            sharded.pool_stats.disk_random_reads);
}

TEST(ShardedReplayTest, StripedEnvironmentWithFaultsIsDeterministic) {
  // Multi-channel environment with per-channel fault streams: the same
  // single-threaded replay twice from the same seeds must be bit-identical
  // (derived per-channel injector seeds are pure functions of the base
  // seed), and ResetFaults must rewind every channel's stream.
  const QueryTrace trace = MakeMixedTrace(30, 90);
  SimOptions sim = SmallSim();
  sim.buffer_shards = 2;
  sim.storage_channels = 4;
  sim.faults.transient_error_prob = 0.05;
  sim.faults.tail_latency_prob = 0.05;
  sim.faults.seed = 1234;
  SimEnvironment env(sim);
  const ReplayResult a = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  env.ColdRestart();
  env.ResetFaults();
  const ReplayResult b = ReplayQuery(trace, {}, PrefetcherOptions{}, &env);
  ASSERT_TRUE(a.status.ok());
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.pool_stats.read_retries, b.pool_stats.read_retries);
  EXPECT_EQ(a.pool_stats.disk_random_reads, b.pool_stats.disk_random_reads);
}

TEST(ShardedReplayTest, ParallelFleetCompletesEveryThread) {
  SimOptions sim = SmallSim();
  sim.buffer_shards = 4;
  sim.storage_channels = 2;
  sim.profile_pool_locks = true;
  SimEnvironment env(sim);

  // Give each thread its own object so prefetch plans and scans are
  // distinguishable per thread; thread 0 runs demand-only.
  std::vector<QueryTrace> traces;
  std::vector<ParallelReplayThread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    QueryTrace trace;
    for (uint32_t i = 0; i < 200; ++i) {
      trace.accesses.push_back(
          PageAccess{PageId{10 + t, (i * 37) % 500}, false, 2});
    }
    traces.push_back(std::move(trace));
  }
  for (uint32_t t = 0; t < 4; ++t) {
    ParallelReplayThread thread;
    thread.trace = &traces[t];
    if (t != 0) {
      for (uint32_t i = 0; i < 200; ++i) {
        thread.prefetch_pages.push_back(PageId{10 + t, (i * 37) % 500});
      }
    }
    threads.push_back(std::move(thread));
  }

  const ParallelReplayResult r =
      ReplayParallelFleet(threads, ParallelReplayOptions{}, &env);
  ASSERT_EQ(r.threads.size(), 4u);
  uint64_t completed = 0;
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_TRUE(r.threads[t].status.ok()) << "thread " << t;
    EXPECT_EQ(r.threads[t].completed_accesses, 200u) << "thread " << t;
    completed += r.threads[t].completed_accesses;
  }
  EXPECT_EQ(r.pool_stats.fetches, completed);
  // Prefetching threads actually prefetched.
  EXPECT_GT(r.pool_stats.prefetches_started, 0u);
  // No pins survive the joined sessions, whatever the interleaving.
  EXPECT_EQ(env.pool().pinned_frames(), 0u);
  // Lock profiling saw at least one acquisition per fetch.
  EXPECT_GE(r.lock_stats.acquisitions, completed);
  EXPECT_GE(r.wall_ms, 0.0);
}

TEST(OraclePagesTest, AccessOrderPreserved) {
  QueryTrace trace;
  trace.accesses.push_back(PageAccess{PageId{2, 9}, false, 0});
  trace.accesses.push_back(PageAccess{PageId{1, 3}, false, 0});
  trace.accesses.push_back(PageAccess{PageId{2, 9}, false, 0});  // dup
  trace.accesses.push_back(PageAccess{PageId{1, 0}, true, 0});   // seq
  const std::vector<PageId> pages = OraclePages(trace);
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0], (PageId{2, 9}));
  EXPECT_EQ(pages[1], (PageId{1, 3}));
}

}  // namespace
}  // namespace pythia
