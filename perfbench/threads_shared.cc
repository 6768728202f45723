// threads_shared: real threads. ReplayParallelFleet runs one thread per
// core over a 4-shard buffer pool and 4 storage channels. Round after round,
// each thread replays the next distinct DSB query trace, once on demand
// reads and once with its OraclePages list. It is the only workload where
// the shard, channel and IoScheduler mutexes contend, and no model is
// needed, so set-up is short and core.predictor does nothing.
//
// A round holds one query per thread rather than a long concatenation: each
// round is one query_wall_us sample, and a window holds 500 of them.
#include <algorithm>
#include <thread>

#include "bench/common.h"
#include "core/baselines.h"
#include "harness.h"
#include "util/rng.h"

namespace perfbench {

using namespace pythia;

namespace {

constexpr size_t kShards = 4;
constexpr size_t kChannels = 4;
// Round walls per window: enough for a per-window p90. The p99, printed
// but not in the result, pools every window to reach its 1000 samples.
constexpr size_t kWindowSamples = 500;
constexpr size_t kWindows = 3;
// Hard stop, well inside the 180 s a run may take with set-up included.
constexpr int64_t kMaxRunNs = 120'000'000'000;
constexpr int kSetups = 3;
constexpr double kSloMs = 1000.0;

// One query trace with its OraclePages list.
struct Item {
  const QueryTrace* trace = nullptr;
  std::vector<PageId> oracle;
};

struct Items {
  std::vector<Item> items;  // every generated query
  double mean_accesses = 0.0;
};

Items MakeItems(const Fixture& fx) {
  Items out;
  size_t accesses = 0;
  for (const Workload* w : {&fx.wl18, &fx.wl91}) {
    for (const WorkloadQuery& q : w->queries) {
      out.items.push_back(Item{&q.trace, OraclePages(q.trace)});
      accesses += q.trace.accesses.size();
    }
  }
  out.mean_accesses =
      static_cast<double>(accesses) / static_cast<double>(out.items.size());
  return out;
}

// Deals each round `threads` distinct queries from a seeded shuffle, and
// reshuffles after every pass over the queries: repeating one pass's
// groupings would let a handful of unlucky groupings set the p99.
class RoundDealer {
 public:
  RoundDealer(const Items& items, unsigned threads, uint64_t seed)
      : items_(items), threads_(threads), rng_(DeriveSeed(seed, 10)) {
    for (size_t i = 0; i < items.items.size(); ++i) order_.push_back(i);
    Shuffle();
  }

  std::vector<const Item*> Next() {
    if (next_ + threads_ > order_.size()) Shuffle();
    std::vector<const Item*> out;
    for (unsigned t = 0; t < threads_; ++t) {
      out.push_back(&items_.items[order_[next_++]]);
    }
    return out;
  }

 private:
  void Shuffle() {
    for (size_t i = order_.size(); i > 1; --i) {
      const uint32_t j = rng_.UniformU32(static_cast<uint32_t>(i));
      std::swap(order_[i - 1], order_[j]);
    }
    next_ = 0;
  }

  const Items& items_;
  unsigned threads_;
  Pcg32 rng_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

SimOptions SharedSim(bool profile_locks) {
  SimOptions sim = bench::DefaultSim();
  sim.buffer_shards = kShards;
  sim.storage_channels = kChannels;
  sim.profile_pool_locks = profile_locks;
  return sim;
}

PrefetcherOptions OracleOptions() {
  PrefetcherOptions p;
  p.order = PrefetchOrder::kAccessOrder;  // as RunQuery does for ORCL
  return p;
}

// Every thread finished, completed each access exactly once, and left no
// pin behind.
void CheckRound(const ParallelReplayResult& r,
                const std::vector<ParallelReplayThread>& in,
                SimEnvironment* env, Report* report) {
  uint64_t expected = 0;
  for (size_t t = 0; t < in.size(); ++t) {
    ++report->attempted;
    const ParallelThreadResult& out = r.threads[t];
    if (!out.status.ok()) {
      ++report->failed;
      report->Fail("a replay thread failed: " + out.status.ToString());
    }
    if (out.completed_accesses != in[t].trace->accesses.size()) {
      report->Fail("a replay thread did not complete every access");
    }
    expected += in[t].trace->accesses.size();
  }
  if (r.pool_stats.fetches != expected) {
    report->Fail("the pool served " + std::to_string(r.pool_stats.fetches) +
                 " fetches for " + std::to_string(expected) + " accesses");
  }
  if (env->pool().pinned_frames() != 0) {
    report->Fail("buffer pins leaked after a round");
  }
}

std::vector<ParallelReplayThread> RoundInput(
    const std::vector<const Item*>& work, bool oracle) {
  std::vector<ParallelReplayThread> in(work.size());
  for (size_t t = 0; t < work.size(); ++t) {
    in[t].trace = work[t]->trace;
    if (oracle) in[t].prefetch_pages = work[t]->oracle;
  }
  return in;
}

// A round lasts about as long as its longest query. A round whose longest
// query is longer than the mean is scaled down to a mean-length query, so
// the p99 does not just track the few longest traces a seed generates.
// Shorter rounds are not scaled up: that would inflate thread start-up.
double PerQueryScale(const Items& items, const std::vector<const Item*>& work) {
  size_t longest = 1;
  for (const Item* item : work) {
    longest = std::max(longest, item->trace->accesses.size());
  }
  return std::min(1.0, items.mean_accesses / static_cast<double>(longest));
}

// Wall-clock results of one window of kWindowSamples round walls.
struct Window {
  std::vector<double> wall_us;  // per round, scaled per query
  double seconds = 0.0;
  uint64_t queries = 0, fetches = 0;
};

void RunUntraced(const RunContext& ctx, const Items& items,
                 SimEnvironment* env, Report* report) {
  RoundDealer dealer(items, ctx.threads, ctx.seed);
  ParallelReplayOptions demand_opts, oracle_opts;
  oracle_opts.prefetch = OracleOptions();
  std::vector<double> virtual_ms, speedup, rates;
  // Each wall-clock metric is taken per window and reported as the median
  // over windows: a burst of load from elsewhere on the machine stalls
  // lock holders and would otherwise own the p99.
  std::vector<Window> windows(1);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(ctx.seconds * 1e9);
  for (;;) {
    const std::vector<const Item*> work = dealer.Next();
    const std::vector<ParallelReplayThread> demand_in =
        RoundInput(work, false);
    const std::vector<ParallelReplayThread> oracle_in = RoundInput(work, true);
    env->ColdRestart();
    const ParallelReplayResult demand =
        ReplayParallelFleet(demand_in, demand_opts, env);
    CheckRound(demand, demand_in, env, report);
    env->ColdRestart();
    const ParallelReplayResult oracle =
        ReplayParallelFleet(oracle_in, oracle_opts, env);
    CheckRound(oracle, oracle_in, env, report);

    Window& w = windows.back();
    double rate = 0.0;
    for (unsigned t = 0; t < ctx.threads; ++t) {
      const ParallelThreadResult& o = oracle.threads[t];
      virtual_ms.push_back(o.elapsed_us / 1e3);
      speedup.push_back(static_cast<double>(demand.threads[t].elapsed_us) /
                        static_cast<double>(o.elapsed_us));
      rate += 1e6 / o.elapsed_us;
      w.fetches += 2 * work[t]->trace->accesses.size();
      w.queries += 2;
    }
    rates.push_back(rate);
    const double scale = PerQueryScale(items, work);
    for (const ParallelReplayResult* r : {&demand, &oracle}) {
      w.wall_us.push_back(r->wall_ms * 1e3 * scale);
      w.seconds += r->wall_ms / 1e3;
    }
    if (w.wall_us.size() < kWindowSamples) continue;
    // Whole windows only, at least kWindows of them and --seconds.
    if ((windows.size() >= kWindows && NowNs() >= deadline) ||
        NowNs() - start > kMaxRunNs) {
      break;
    }
    windows.emplace_back();
  }
  std::vector<double> p50, p90, all_us, query_rate, fetch_rate;
  for (const Window& w : windows) {
    p50.push_back(Percentile(w.wall_us, 0.5).value_or(0.0));
    p90.push_back(Percentile(w.wall_us, 0.9).value_or(0.0));
    all_us.insert(all_us.end(), w.wall_us.begin(), w.wall_us.end());
    query_rate.push_back(w.queries / w.seconds);
    fetch_rate.push_back(w.fetches / w.seconds / 1e6);
  }
  const size_t samples = all_us.size();
  // All threads together form a closed loop of `threads` clients; their
  // combined completion rate is in SLO when the per-query p99 is.
  const RungOutcome closed_loop{Percentile(rates, 0.5).value_or(0.0),
                                Percentile(virtual_ms, 0.99), 0,
                                report->failed};
  report->AddPercentile("speedup.p50", speedup, 0.5, "x", false);
  report->AddPercentile("query_virtual_ms.p50", virtual_ms, 0.5, "virtual_ms",
                        false);
  report->AddPercentile("query_virtual_ms.p99", virtual_ms, 0.99,
                        "virtual_ms", false);
  report->Add("query_wall_us.p50", Median(p50), "us", samples);
  report->Note("query_wall_us.p90", Median(p90), "us", samples);
  report->Note("query_wall_us.p99", Percentile(all_us, 0.99).value_or(0.0),
               "us", samples);
  report->Add("max_rate_in_slo", MaxRateInSlo({closed_loop}, kSloMs),
              "1/virtual_s", rates.size());
  report->Add("queries_per_wall_s", Median(query_rate), "1/s", samples);
  report->Add("fetches_per_wall_s", Median(fetch_rate), "M/s", samples);
}

// The traced run alternates ReplayParallelFleet with the same rounds driven
// by the benchmark's own threads through TimedReplay, which times each
// public call; their wall-clock difference is the tracing overhead.
void RunTraced(const RunContext& ctx, const Items& items,
               SimEnvironment* env, Report* report) {
  RoundDealer dealer(items, ctx.threads, ctx.seed);
  ParallelReplayOptions oracle_opts;
  oracle_opts.prefetch = OracleOptions();
  PrefetcherOptions session_opts = OracleOptions();
  ReplayTimers timers;
  LayerCounters layers;
  BufferPoolLockStats locks;
  double untraced_us = 0.0, traced_us = 0.0;  // per-query scaled, as above
  uint64_t traced_fetches = 0, rounds = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(ctx.seconds * 1e9);
  for (size_t round = 0; NowNs() < deadline || round == 0; ++round) {
    const std::vector<const Item*> work = dealer.Next();
    const std::vector<ParallelReplayThread> in = RoundInput(work, true);
    env->ColdRestart();
    const ParallelReplayResult plain =
        ReplayParallelFleet(in, oracle_opts, env);
    CheckRound(plain, in, env, report);
    const double scale = PerQueryScale(items, work);
    untraced_us += plain.wall_ms * 1e3 * scale;

    env->ColdRestart();
    const BufferPoolLockStats locks0 = env->pool().lock_stats();
    const OsCounters os_before = OsCounters::Read(env->os_cache());
    std::vector<ReplayResult> results(in.size());
    std::vector<ReplayTimers> thread_timers(in.size());
    std::vector<SpanRecorder> recorders;
    for (size_t t = 0; t < in.size(); ++t) {
      recorders.emplace_back(static_cast<uint32_t>(t + 1));
      thread_timers[t].sample_stride = 8;
    }
    const int64_t t0 = NowNs();
    {
      std::vector<std::thread> workers;
      for (size_t t = 0; t < in.size(); ++t) {
        workers.emplace_back([&, t] {
          ScopedSpan span(&recorders[t], "core.replay.thread", round);
          results[t] = TimedReplay(*in[t].trace, in[t].prefetch_pages,
                                   session_opts, env, &thread_timers[t]);
        });
      }
      for (std::thread& w : workers) w.join();
    }
    traced_us += (NowNs() - t0) / 1e3 * scale;
    ParallelReplayResult traced;
    traced.pool_stats = env->pool().stats();  // reset by ColdRestart
    for (size_t t = 0; t < in.size(); ++t) {
      ParallelThreadResult r;
      r.status = results[t].status;
      r.completed_accesses = results[t].completed_accesses;
      traced.threads.push_back(r);
      timers.Merge(thread_timers[t]);
      ctx.spans->Merge(recorders[t]);
      layers.AddSession(results[t].prefetch_stats);
      traced_fetches += in[t].trace->accesses.size();
    }
    ++rounds;
    CheckRound(traced, in, env, report);
    AccumulateStats(&layers.pool, traced.pool_stats);
    layers.AddStorage(env, os_before);
    const BufferPoolLockStats locks1 = env->pool().lock_stats();
    locks.acquisitions += locks1.acquisitions - locks0.acquisitions;
    locks.contended += locks1.contended - locks0.contended;
    locks.wait_ns += locks1.wait_ns - locks0.wait_ns;
    locks.hold_ns += locks1.hold_ns - locks0.hold_ns;
    locks.hold_samples += locks1.hold_samples - locks0.hold_samples;
  }

  std::vector<double> fetch_ns(timers.fetch_sample_ns.begin(),
                               timers.fetch_sample_ns.end());
  report->AddPercentile("bufmgr.fetch_ns.p50", fetch_ns, 0.5, "ns", true);
  report->AddPercentile("bufmgr.fetch_ns.p99", fetch_ns, 0.99, "ns", true);
  report->Add("core.prefetcher.pump_ns_per_access",
              static_cast<double>(timers.pump_ns) / timers.accesses, "ns",
              timers.accesses);
  report->Add("core.prefetcher.onfetch_ns_per_access",
              static_cast<double>(timers.onfetch_ns) / timers.accesses, "ns",
              timers.accesses);
  layers.ReportTo(report);
  report->Add("bufmgr.lock_wait_ns_per_fetch",
              static_cast<double>(locks.wait_ns) / traced_fetches, "ns",
              traced_fetches);
  report->Add("bufmgr.lock_contended_frac",
              static_cast<double>(locks.contended) /
                  static_cast<double>(locks.acquisitions),
              "ratio", locks.acquisitions);
  report->Add("bufmgr.lock_hold_ns.mean",
              static_cast<double>(locks.hold_ns) /
                  static_cast<double>(locks.hold_samples),
              "ns", locks.hold_samples);
  report->Add("storage.io.backlog_ms.max", timers.backlog_max_us / 1e3,
              "virtual_ms");
  report->Add("tracing.overhead_us", (traced_us - untraced_us) / rounds, "us",
              rounds);
  report->Add("tracing.overhead_frac", traced_us / untraced_us - 1.0,
              "ratio");
}

}  // namespace

void RunThreadsShared(const RunContext& ctx, Report* report) {
  // Set-up is short here, so it is repeated and its median reported.
  std::vector<double> setups;
  Fixture fx;
  for (int i = 0; i < kSetups; ++i) {
    fx = BuildFixture(ctx.seed, /*train=*/false, 0);
    setups.push_back(fx.setup_s);
  }
  const Items items = MakeItems(fx);
  // Thread interleaving makes the replays' virtual times vary; the inputs
  // are what a seed fixes.
  for (const Item& item : items.items) {
    report->Digest(item.trace->accesses.size());
    report->Digest(item.oracle.size());
  }
  SimEnvironment env(SharedSim(/*profile_locks=*/ctx.traced));
  if (ctx.traced) {
    report->Add("workload.generate_s", fx.generate_s, "s");
    RunTraced(ctx, items, &env, report);
    return;
  }
  report->Add("setup_s", Median(setups), "s", setups.size());
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  RunUntraced(ctx, items, &env, report);
}

}  // namespace perfbench
