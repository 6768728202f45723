// fleet_open: an open loop in virtual time. Sessions arrive as a Poisson
// process at each rate of a fixed ladder and pick t91/t18 training queries
// with Zipf (theta 0.99) popularity, so hot plans repeat. Plans go through
// the BatchPredictor; sessions replay through ReplayConcurrent with
// admission control and the governor, on a warm shared pool whose four
// storage channels inject 0.1% transient read errors and brown out channel
// 0, with hedged reads and channel breakers on. This exercises the
// prediction cache, batched decoder GEMMs, admission, governor shedding,
// retries and hedges; per-query forwards are rare. The storage layers run
// warm and failing here, where single_cold runs them cold and clean.
//
// Latency counts from each session's due arrival time, so admission-queue
// waits are included and the batch-flush wait delays its prefetching. The
// generator's clock is virtual, so it never runs late.
#include <algorithm>
#include <cstdio>
#include <iterator>

#include "bench/common.h"
#include "core/batch_predictor.h"
#include "harness.h"

namespace perfbench {

using namespace pythia;

namespace {

constexpr size_t kSessions = 1000;
// Sessions per virtual second. The nominal rung sits inside the SLO; the
// top rung overloads admission. Each rung replays for 5-8 s of wall time,
// so the ladder is kept short.
constexpr double kRates[] = {200.0, 400.0};
constexpr size_t kNominal = 0;
constexpr double kSloMs = 1000.0;
// Planning is cheap next to replay, so the nominal traffic's planning is
// repeated on fresh systems, before the ladder and after each rung. Each
// window of arrivals keeps its best wall time over these passes, which are
// spread over about 30 s.
constexpr size_t kPlanPasses = 1 + std::size(kRates);
constexpr size_t kWindow = 10;  // arrivals per query_wall_us sample
constexpr size_t kPlanSessions = 3000;
constexpr size_t kMaxActive = 64;
constexpr size_t kQueueLimit = 128;
// A refused session counts as missing any latency limit; in latency
// percentiles it stands for this many virtual ms (ten times the SLO).
constexpr double kRefusedMs = 10 * kSloMs;
constexpr SimTime kDeadlineUs = 500000;
constexpr SimTime kStartDelayUs = 500;

SimOptions FleetSim(uint64_t seed) {
  SimOptions sim = bench::DefaultSim();
  sim.storage_channels = 4;
  sim.faults.transient_error_prob = 0.001;
  sim.faults.brownout_latency_mult = 3.0;
  sim.faults.brownout_start_read = 2000;
  sim.faults.brownout_duration_reads = 10000;
  sim.faults.seed = DeriveSeed(seed, 9);
  // Objects hash onto channels, and nearly every read of these templates
  // lands on channel 0; a brownout anywhere else would never fire.
  sim.brownout_channel = 0;
  sim.channel_health.enabled = true;
  sim.channel_health.hedging_enabled = true;
  sim.channel_breakers = true;
  return sim;
}

const WorkloadQuery& SessionQuery(const Fixture& fx,
                                  const FleetSessionSpec& s) {
  const Workload& w = s.workload_index == 0 ? fx.wl18 : fx.wl91;
  return w.queries[w.train_indices[s.query_index]];
}

// One fresh environment and system per rung, so rungs are independent and
// each rung's prediction cache warms only from its own sessions.
struct RungStack {
  RungStack(Fixture& fx, uint64_t seed)
      : env(FleetSim(seed)), system(&env) {
    system.AddWorkload(fx.wl18, fx.m18->Clone());
    system.AddWorkload(fx.wl91, fx.m91->Clone());
    system.EnableGovernor(GovernorOptions{});
  }
  SimEnvironment env;
  PythiaSystem system;
};

struct RungRun {
  std::vector<BatchPrediction> predictions;  // by session; empty for DFLT
  ConcurrentResult result;
  std::vector<double> latency_ms;           // refused ones as kRefusedMs
  std::vector<double> latency_by_session;   // ms, -1 when not completed
  std::vector<double> arrival_us;           // planner wall per arrival
  std::vector<double> call_us;              // Submit and flushing PumpTo
  uint64_t rejected = 0, failed = 0, accesses = 0;
  double plan_wall_s = 0.0, replay_wall_s = 0.0;
  BatchPredictorStats batch;
  PredictionCacheStats cache;
  GovernorStats governor;
  LayerCounters layers;
  ChannelHealthCounters health;
};

// Drives the arrivals through the BatchPredictor, timing every call. Each
// arrival is charged the wall time of its PumpTo and Submit, including any
// flush they run.
void Plan(const Fixture& fx, const std::vector<FleetSessionSpec>& specs,
          PythiaSystem* system, SpanRecorder* spans, RungRun* run) {
  BatchPredictorOptions options;
  options.flush_deadline_us = 20000;
  BatchPredictor bp(system, options);
  std::vector<BatchPrediction> done;
  run->arrival_us.assign(specs.size(), 0.0);
  auto timed = [&](const char* name, uint64_t session, bool is_submit,
                   auto&& call) {
    const size_t before = done.size();
    int64_t t0 = 0, t1 = 0;
    {
      ScopedSpan span(spans, name, session);
      t0 = NowNs();
      call();
      t1 = NowNs();
    }
    const double us = (t1 - t0) / 1e3;
    if (is_submit || done.size() > before) run->call_us.push_back(us);
    run->arrival_us[std::min(session, specs.size() - 1)] += us;
  };
  const int64_t start = NowNs();
  for (size_t i = 0; i < specs.size(); ++i) {
    const SimTime arrival = static_cast<SimTime>(specs[i].arrival_us);
    timed("core.batch_predictor.pump", i, false,
          [&] { bp.PumpTo(arrival, &done); });
    timed("core.batch_predictor.submit", i, true, [&] {
      bp.Submit(i, SessionQuery(fx, specs[i]), arrival, &done);
    });
  }
  if (bp.pending() > 0) {
    const SimTime due = bp.NextDeadline();
    timed("core.batch_predictor.pump", specs.size(), false,
          [&] { bp.PumpTo(due, &done); });
  }
  run->plan_wall_s = (NowNs() - start) / 1e9;
  run->batch = bp.stats();
  run->predictions.resize(specs.size());
  for (BatchPrediction& p : done) run->predictions[p.ticket] = std::move(p);
  if (bp.pending() != 0 || done.size() != specs.size()) {
    run->failed = specs.size();
  }
}

RungRun RunRung(Fixture& fx, const std::vector<FleetSessionSpec>& specs,
                bool pythia, uint64_t seed, SpanRecorder* spans,
                Report* report) {
  RungStack stack(fx, seed);
  RungRun run;
  if (pythia) {
    Plan(fx, specs, &stack.system, spans, &run);
    if (run.failed != 0) report->Fail("the batch predictor lost sessions");
  }
  std::vector<ConcurrentQuery> batch(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ConcurrentQuery& cq = batch[i];
    cq.trace = &SessionQuery(fx, specs[i]).trace;
    cq.arrival_us = static_cast<SimTime>(specs[i].arrival_us);
    cq.prefetch_options.start_delay_us = kStartDelayUs;
    cq.prefetch_options.priority = specs[i].priority;
    cq.prefetch_options.governor = stack.system.governor();
    if (pythia) {
      BatchPrediction& p = run.predictions[i];
      cq.prefetch_pages = p.pages;
      // The session cannot prefetch before its window flushed.
      cq.prefetch_options.start_delay_us += p.ready_us - cq.arrival_us;
      cq.planned = p.planned;
    }
  }
  ConcurrentOptions copts;
  copts.governor = stack.system.governor();
  copts.max_active_queries = kMaxActive;
  copts.admission_queue_limit = kQueueLimit;
  copts.default_deadline_us = kDeadlineUs;
  {
    ScopedSpan span(spans, "core.replay.concurrent", 0);
    const int64_t t0 = NowNs();
    run.result = ReplayConcurrent(batch, copts, &stack.env);
    run.replay_wall_s = (NowNs() - t0) / 1e9;
  }

  run.latency_by_session.assign(specs.size(), -1.0);
  uint64_t expected_fetches = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const QueryRunMetrics& m = run.result.queries[i];
    if (m.status.code() == StatusCode::kResourceExhausted) {
      ++run.rejected;
      run.latency_ms.push_back(kRefusedMs);
    } else if (!m.status.ok()) {
      ++run.failed;
      report->Fail("a session failed: " + m.status.ToString());
    } else {
      const double ms = (run.result.end_us[i] - batch[i].arrival_us) / 1e3;
      run.latency_ms.push_back(ms);
      run.latency_by_session[i] = ms;
      expected_fetches += batch[i].trace->accesses.size();
    }
  }
  if (run.rejected != run.result.admission.rejected) {
    report->Fail("admission rejections do not balance");
  }
  run.layers.pool = stack.env.pool().stats();
  if (run.failed == 0 && run.layers.pool.fetches != expected_fetches) {
    report->Fail("sessions completed " +
                 std::to_string(run.layers.pool.fetches) +
                 " accesses, expected " + std::to_string(expected_fetches));
  }
  run.accesses = expected_fetches;
  if (stack.env.pool().pinned_frames() != 0 ||
      stack.system.governor()->pinned_pages() != 0) {
    report->Fail("pins leaked after a rung");
  }
  run.cache = stack.system.prediction_cache_stats();
  run.governor = stack.system.governor()->stats();
  for (const QueryRunMetrics& m : run.result.queries) {
    run.layers.AddSession(m.prefetch_stats);
  }
  run.layers.AddStorage(&stack.env, OsCounters{});
  run.health = stack.env.channel_health()->counters();

  report->attempted += specs.size();
  for (size_t i = 0; i < specs.size(); ++i) {
    report->Digest(static_cast<uint64_t>(run.result.end_us[i]));
    report->Digest(static_cast<uint64_t>(run.result.queries[i].status.code()));
    report->Digest(run.result.queries[i].prefetch_stats.consumed);
  }
  return run;
}

// Every delivered page list must equal what PythiaSystem::PrefetchPlan gives
// the same query on an ungoverned system; unplanned sessions get none.
void CheckPlans(const Fixture& fx, const std::vector<FleetSessionSpec>& specs,
                const RungRun& run, PythiaSystem* reference, Report* report) {
  for (size_t i = 0; i < specs.size(); ++i) {
    const BatchPrediction& p = run.predictions[i];
    if (!p.planned.engaged) {
      if (!p.pages.empty()) report->Fail("an unplanned session got pages");
      continue;
    }
    QueryRunMetrics m;
    const std::vector<PageId> expected = reference->PrefetchPlan(
        SessionQuery(fx, specs[i]), RunMode::kPythia, &m);
    if (p.pages != expected) {
      report->Fail("batched pages of session " + std::to_string(i) +
                   " differ from PrefetchPlan");
      return;
    }
  }
}

std::vector<FleetSessionSpec> Arrivals(const Fixture& fx, double rate,
                                       uint64_t seed,
                                       size_t sessions = kSessions) {
  FleetOptions options;
  options.num_sessions = sessions;
  options.arrivals = ArrivalProcess::kPoisson;
  options.mean_gap_us = 1e6 / rate;
  options.query_theta = 0.99;
  // Same seed on every rung: the same sessions, only spaced differently.
  options.seed = DeriveSeed(seed, 8);
  return GenerateFleetArrivals(
      {fx.wl18.train_indices.size(), fx.wl91.train_indices.size()}, options);
}

void AddLayerMetrics(const RungRun& run, Report* report) {
  report->Add("core.prediction_cache.hit_ratio",
              static_cast<double>(run.cache.hits) /
                  static_cast<double>(run.cache.hits + run.cache.misses),
              "ratio");
  const double rows_per_forward =
      run.batch.model_batches == 0
          ? 0.0
          : static_cast<double>(run.batch.forward_rows) /
                static_cast<double>(run.batch.model_batches);
  report->Add("core.batch_predictor.rows_per_forward", rows_per_forward,
              "rows", run.batch.model_batches);
  report->Add("core.batch_predictor.deduped", run.batch.deduped, "count");
  report->AddPercentile("core.batch_predictor.call_us.p50", run.call_us, 0.5,
                        "us", true);
  report->Add("core.replay.concurrent_wall_ms", run.replay_wall_s * 1e3, "ms");
  run.layers.ReportTo(report);
  report->Add("core.governor.pages_shed", run.governor.pages_shed, "count");
  report->Add("core.governor.rung_degrades", run.governor.rung_degrades,
              "count");
  const AdmissionStats& adm = run.result.admission;
  report->Add("core.governor.queue_wait_ms.max", adm.max_queue_wait_us / 1e3,
              "virtual_ms");
  report->Add("core.governor.rejected", adm.rejected, "count");
  report->Add("core.governor.deadline_stops", adm.deadline_stops, "count");
  report->Add("storage.hedges_issued", run.health.hedges_issued, "count");
  report->Add("storage.hedges_won", run.health.hedges_won, "count");
}

void Run(const RunContext& ctx, Fixture& fx, Report* report) {
  SimEnvironment reference_env(bench::DefaultSim());
  PythiaSystem reference(&reference_env);
  reference.AddWorkload(fx.wl18, fx.m18->Clone());
  reference.AddWorkload(fx.wl91, fx.m91->Clone());

  if (ctx.traced) {
    // Per-layer numbers come from the nominal rung. An untraced planning
    // pass first gives the baseline for the tracing overhead.
    const double rate = kRates[kNominal];
    const std::vector<FleetSessionSpec> specs = Arrivals(fx, rate, ctx.seed);
    RungRun untraced;
    {
      RungStack stack(fx, ctx.seed);
      Plan(fx, specs, &stack.system, nullptr, &untraced);
    }
    RungRun run = RunRung(fx, specs, true, ctx.seed, ctx.spans, report);
    CheckPlans(fx, specs, run, &reference, report);
    report->failed += run.failed + run.rejected;
    report->Add("workload.generate_s", fx.generate_s, "s");
    report->Add("core.predictor.train_s", fx.train_s, "s");
    AddLayerMetrics(run, report);
    std::vector<double> wait_ms;
    for (size_t i = 0; i < specs.size(); ++i) {
      const SimTime arrival = static_cast<SimTime>(specs[i].arrival_us);
      wait_ms.push_back((run.predictions[i].ready_us - arrival) / 1e3);
    }
    report->AddPercentile("core.batch_predictor.wait_virtual_ms.p99", wait_ms,
                          0.99, "virtual_ms", true);
    report->Add("tracing.overhead_us",
                (run.plan_wall_s - untraced.plan_wall_s) * 1e6 / specs.size(),
                "us", specs.size());
    report->Add("tracing.overhead_frac",
                run.plan_wall_s / untraced.plan_wall_s - 1.0, "ratio");
    return;
  }

  // The planner's wall time is measured on a longer stream of the same
  // nominal traffic, planned without replay; its first kSessions arrivals
  // are the nominal rung's and must plan exactly as they did there.
  const std::vector<FleetSessionSpec> plan_specs =
      Arrivals(fx, kRates[kNominal], ctx.seed, kPlanSessions);
  std::vector<double> best_window_us, best_arrival_us;
  std::vector<std::vector<BatchPrediction>> plan_predictions;
  auto plan_pass = [&] {
    RungRun rep;
    RungStack stack(fx, ctx.seed);
    Plan(fx, plan_specs, &stack.system, nullptr, &rep);
    rep.predictions.resize(kSessions);
    plan_predictions.push_back(std::move(rep.predictions));
    // A hit costs a lookup, a miss a share of some later flush, so single
    // arrivals form two far-apart modes and any percentile near their
    // boundary jumps between seeds. Means over 10 consecutive arrivals
    // smooth that into one distribution.
    std::vector<double> window_us;
    for (size_t i = 0; i + kWindow <= kPlanSessions; i += kWindow) {
      double total = 0.0;
      for (size_t k = i; k < i + kWindow; ++k) total += rep.arrival_us[k];
      window_us.push_back(total / kWindow);
    }
    KeepBest(&best_window_us, window_us);
    KeepBest(&best_arrival_us, rep.arrival_us);
  };

  plan_pass();
  std::vector<RungOutcome> rungs;
  std::vector<RungRun> runs;
  for (size_t r = 0; r < std::size(kRates); ++r) {
    const std::vector<FleetSessionSpec> specs =
        Arrivals(fx, kRates[r], ctx.seed);
    RungRun run = RunRung(fx, specs, true, ctx.seed, nullptr, report);
    CheckPlans(fx, specs, run, &reference, report);
    if (r <= kNominal) report->failed += run.rejected;
    report->failed += run.failed;
    rungs.push_back(RungOutcome{kRates[r], Percentile(run.latency_ms, 0.99),
                                run.rejected, run.failed});
    runs.push_back(std::move(run));
    plan_pass();
  }
  // The same nominal sessions without prefetching, for the speedup.
  runs.push_back(RunRung(fx, Arrivals(fx, kRates[kNominal], ctx.seed), false,
                         ctx.seed, nullptr, report));
  const RungRun& dflt = runs.back();
  report->failed += dflt.failed + dflt.rejected;

  const RungRun& nominal = runs[kNominal];
  for (const std::vector<BatchPrediction>& predictions : plan_predictions) {
    for (size_t i = 0; i < kSessions; ++i) {
      if (predictions[i].pages != nominal.predictions[i].pages) {
        report->Fail("repeated planning of the nominal rung differs");
        break;
      }
    }
  }
  const std::optional<double> plan_p90 = Percentile(best_window_us, 0.9);
  if (!plan_p90.has_value()) report->Fail("too few windows for a p90");
  std::vector<double> speedup;
  for (size_t i = 0; i < kSessions; ++i) {
    const double p = nominal.latency_by_session[i];
    const double d = dflt.latency_by_session[i];
    if (p > 0 && d > 0) speedup.push_back(d / p);
  }
  // Throughput is summed over every replay of the run, the DFLT one too,
  // so it spans about 30 s of wall time and a short burst of load from
  // elsewhere moves it little. Refused sessions are not counted: they cost
  // nothing, and their number varies with the seed.
  uint64_t completed = 0, accesses = 0;
  double total_s = 0.0, replay_s = 0.0;
  for (const RungRun& run : runs) {
    completed += kSessions - run.rejected - run.failed;
    accesses += run.accesses;
    total_s += run.plan_wall_s + run.replay_wall_s;
    replay_s += run.replay_wall_s;
  }
  report->Add("setup_s", fx.setup_s, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->AddPercentile("speedup.p50", speedup, 0.5, "x", false);
  report->AddPercentile("query_virtual_ms.p50", nominal.latency_ms, 0.5,
                        "virtual_ms", false);
  report->AddPercentile("query_virtual_ms.p99", nominal.latency_ms, 0.99,
                        "virtual_ms", false);
  report->Add("query_wall_us.p50",
              Percentile(best_window_us, 0.5).value_or(0.0), "us",
              kPlanPasses * best_window_us.size());
  report->Note("query_wall_us.p90", plan_p90.value_or(0.0), "us",
              kPlanPasses * best_window_us.size());
  report->Note("query_wall_us.p99",
               Percentile(best_arrival_us, 0.99).value_or(0.0), "us",
               kPlanPasses * best_arrival_us.size());
  report->Add("max_rate_in_slo", MaxRateInSlo(rungs, kSloMs), "1/virtual_s",
              rungs.size());
  report->Add("queries_per_wall_s", completed / total_s, "1/s", completed);
  report->Add("fetches_per_wall_s", accesses / replay_s / 1e6, "M/s",
              completed);
  for (const RungOutcome& r : rungs) {
    std::fprintf(stderr,
                 "fleet_open rung %.0f/s: p99 %.1f virtual ms, %llu rejected\n",
                 r.rate, r.p99_ms.value_or(-1.0),
                 static_cast<unsigned long long>(r.rejected));
  }
}

}  // namespace

void RunFleetOpen(const RunContext& ctx, Report* report) {
  Fixture fx = BuildFixture(ctx.seed, /*train=*/true, 0);
  OnOneLane([&] { Run(ctx, fx, report); });
}

}  // namespace perfbench
