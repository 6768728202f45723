// single_cold: the paper's single-query protocol (Section 5.1). One
// closed-loop client runs held-out t91/t18 queries, each cold (buffer pool
// restarted, OS cache dropped) under DFLT and then PYTHIA. The held-out
// queries come from a seed the models never saw, so nearly every plan misses
// the prediction cache: per-query transformer forwards and cold replay do
// the work, while batching, the governor and the pool locks stay idle.
#include <algorithm>
#include <unordered_set>

#include "alloc_count.h"
#include "bench/common.h"
#include "harness.h"

namespace perfbench {

using namespace pythia;

namespace {

constexpr int kHeldOutPerTemplate = 500;
constexpr double kSloMs = 1000.0;
constexpr size_t kMinSamples = 1000;
// Untraced runs make whole passes over the held-out queries, for at least
// --seconds and at least this many passes.
constexpr int kMinPasses = 6;

// A fresh system per pass, so every pass starts with an empty prediction
// cache and untouched breaker/watchdog state and repeats the first exactly.
struct Stack {
  Stack(Fixture& fx, SimEnvironment* env) : system(env) {
    system.AddWorkload(fx.wl18, fx.m18->Clone());
    system.AddWorkload(fx.wl91, fx.m91->Clone());
  }
  PythiaSystem system;
};

bool SameAccuracy(const PrecisionRecall& a, const PrecisionRecall& b) {
  return a.true_positives == b.true_positives && a.predicted == b.predicted &&
         a.actual == b.actual && a.precision == b.precision &&
         a.recall == b.recall && a.f1 == b.f1;
}

// Checks one replayed query: it finished, every access completed exactly
// once, and no buffer pin outlived it.
void CheckRun(const QueryRunMetrics& m, const WorkloadQuery& q,
              SimEnvironment* env, Report* report) {
  ++report->attempted;
  if (!m.status.ok()) {
    ++report->failed;
    report->Fail("query failed: " + m.status.ToString());
  } else if (m.pool_stats.fetches != q.trace.accesses.size()) {
    report->Fail("a query completed " + std::to_string(m.pool_stats.fetches) +
                 " of " + std::to_string(q.trace.accesses.size()) +
                 " accesses");
  }
  if (env->pool().pinned_frames() != 0) {
    report->Fail("buffer pins leaked after a query");
  }
}

struct Virtual {
  SimTime dflt_us = 0;
  SimTime pythia_us = 0;
  PrecisionRecall accuracy;
  bool engaged = false;
};

void RunUntraced(const RunContext& ctx, Fixture& fx, Report* report) {
  const std::vector<const WorkloadQuery*>& queries = fx.held_out;
  const PrefetcherOptions popts;
  std::vector<Virtual> first(queries.size());
  // Each query's wall time is its best over the passes. The passes spread a
  // query's repetitions over the whole run, so a stretch of load from
  // elsewhere on the machine slows some of them and not the kept one.
  std::vector<double> best_query_us;  // PYTHIA RunQuery
  std::vector<double> best_pair_us;   // DFLT and PYTHIA RunQuery together
  uint64_t fetches_per_pass = 0;
  int passes = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(ctx.seconds * 1e9);
  for (; passes < kMinPasses || NowNs() < deadline; ++passes) {
    SimEnvironment env(bench::DefaultSim());
    Stack stack(fx, &env);
    std::vector<double> query_us, pair_us;
    for (size_t i = 0; i < queries.size(); ++i) {
      const WorkloadQuery& q = *queries[i];
      const int64_t t0 = NowNs();
      const QueryRunMetrics d =
          stack.system.RunQuery(q, RunMode::kDefault, popts);
      const int64_t t1 = NowNs();
      const QueryRunMetrics p =
          stack.system.RunQuery(q, RunMode::kPythia, popts);
      const int64_t t2 = NowNs();
      CheckRun(d, q, &env, report);
      CheckRun(p, q, &env, report);
      query_us.push_back((t2 - t1) / 1e3);
      pair_us.push_back((t2 - t0) / 1e3);
      const Virtual v{d.elapsed_us, p.elapsed_us, p.accuracy, p.engaged};
      if (passes == 0) {
        first[i] = v;
        fetches_per_pass += 2 * q.trace.accesses.size();
      } else if (v.dflt_us != first[i].dflt_us ||
                 v.pythia_us != first[i].pythia_us ||
                 v.engaged != first[i].engaged ||
                 !SameAccuracy(v.accuracy, first[i].accuracy)) {
        report->Fail("query " + std::to_string(i) +
                     " changed its virtual result between passes");
      }
    }
    KeepBest(&best_query_us, query_us);
    KeepBest(&best_pair_us, pair_us);
  }

  std::vector<double> speedup, virtual_ms;
  for (const Virtual& v : first) {
    speedup.push_back(static_cast<double>(v.dflt_us) /
                      static_cast<double>(v.pythia_us));
    virtual_ms.push_back(v.pythia_us / 1e3);
    report->Digest(static_cast<uint64_t>(v.dflt_us));
    report->Digest(static_cast<uint64_t>(v.pythia_us));
    report->Digest(v.accuracy.true_positives);
    report->Digest(v.accuracy.predicted);
  }
  // One closed-loop client completes 1 / mean latency sessions per virtual
  // second; that is its rate, in SLO when the p99 is.
  const RungOutcome closed_loop{1e3 / Mean(virtual_ms),
                                Percentile(virtual_ms, 0.99), 0,
                                report->failed};
  report->Add("setup_s", fx.setup_s, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->AddPercentile("speedup.p50", speedup, 0.5, "x", false);
  report->AddPercentile("query_virtual_ms.p50", virtual_ms, 0.5, "virtual_ms",
                        false);
  report->AddPercentile("query_virtual_ms.p99", virtual_ms, 0.99,
                        "virtual_ms", false);
  // The percentiles are over queries, one best time each; the sample counts
  // give every timed call.
  const size_t samples = best_query_us.size() * passes;
  if (!PercentileSupported(best_query_us.size(), 0.99)) {
    report->Fail("too few held-out queries for a p99");
  }
  report->Add("query_wall_us.p50",
              Percentile(best_query_us, 0.5).value_or(0.0), "us", samples);
  report->Note("query_wall_us.p90",
               Percentile(best_query_us, 0.9).value_or(0.0), "us", samples);
  report->Note("query_wall_us.p99",
               Percentile(best_query_us, 0.99).value_or(0.0), "us", samples);
  report->Add("max_rate_in_slo", MaxRateInSlo({closed_loop}, kSloMs),
              "1/virtual_s", virtual_ms.size());
  double pass_us = 0.0;
  for (double us : best_pair_us) pass_us += us;
  report->Add("queries_per_wall_s", 2 * best_pair_us.size() / (pass_us / 1e6),
              "1/s", 2 * samples);
  // Fetches per µs are millions per second.
  report->Add("fetches_per_wall_s", fetches_per_pass / pass_us, "M/s",
              2 * samples);
}

void RunTraced(const RunContext& ctx, Fixture& fx, Report* report) {
  const std::vector<const WorkloadQuery*>& queries = fx.held_out;
  const PrefetcherOptions popts;
  SpanRecorder* spans = ctx.spans;
  std::vector<double> plan_us, untraced_query_us, f1, precision, recall;
  uint64_t plan_allocs = 0, plans = 0, replay_allocs = 0, replay_accesses = 0;
  double dflt_ns = 0, pythia_ns = 0;
  uint64_t dflt_accesses = 0, pythia_accesses = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  ReplayTimers timers[2];  // DFLT, PYTHIA
  LayerCounters layers;    // PYTHIA replays of the first pass
  std::vector<Virtual> first(queries.size());
  const std::vector<PageId> no_pages;

  // Run at least --seconds, and on until the predict_us p99 has its 1000
  // samples (one pass of held-out queries falls a few hits short).
  const int64_t deadline = NowNs() + static_cast<int64_t>(ctx.seconds * 1e9);
  size_t predictions = 0;
  auto done = [&] {
    return NowNs() >= deadline && predictions >= kMinSamples;
  };
  bool out_of_time = false;
  for (int pass = 0; !out_of_time; ++pass) {
    SimEnvironment env(bench::DefaultSim());
    Stack ref(fx, &env);    // PythiaSystem::PrefetchPlan, untouched
    Stack split(fx, &env);  // the same plan from its public parts
    for (size_t i = 0; i < queries.size(); ++i) {
      if (pass > 0 && done()) {
        out_of_time = true;
        break;
      }
      const WorkloadQuery& q = *queries[i];
      const uint64_t request = pass * queries.size() + i;

      // Reference: the program's own calls, timed and allocation-counted.
      QueryRunMetrics ref_metrics;
      uint64_t a0 = AllocationCount();
      int64_t w0 = NowNs();
      const std::vector<PageId> ref_pages =
          ref.system.PrefetchPlan(q, RunMode::kPythia, &ref_metrics);
      int64_t w1 = NowNs();
      plan_allocs += AllocationCount() - a0;
      ++plans;
      plan_us.push_back((w1 - w0) / 1e3);
      double untraced_us = (w1 - w0) / 1e3;

      ReplayResult ref_replay[2];
      for (int mode = 0; mode < 2; ++mode) {
        env.ColdRestart();
        a0 = AllocationCount();
        w0 = NowNs();
        ref_replay[mode] =
            ReplayQuery(q.trace, mode == 0 ? no_pages : ref_pages, popts, &env);
        w1 = NowNs();
        replay_allocs += AllocationCount() - a0;
        replay_accesses += q.trace.accesses.size();
        (mode == 0 ? dflt_ns : pythia_ns) += static_cast<double>(w1 - w0);
        (mode == 0 ? dflt_accesses : pythia_accesses) +=
            q.trace.accesses.size();
        if (mode == 1) untraced_us += (w1 - w0) / 1e3;
      }
      untraced_query_us.push_back(untraced_us);

      // Traced: planning split into MatchWorkload, the prediction-cache
      // lookup and WorkloadModel::Predict; replay driven access by access.
      std::vector<PageId> pages;
      PrecisionRecall accuracy;
      bool engaged = false;
      ReplayResult split_replay[2];
      // Planning does not touch the environment, so the restart can come
      // first and stay outside the query span, as in the untraced timing.
      env.ColdRestart();
      const OsCounters os_before = OsCounters::Read(env.os_cache());
      {
        ScopedSpan query_span(spans, "query", request);
        {
          ScopedSpan plan_span(spans, "core.system.plan", request);
          PythiaSystem& sys = split.system;
          if (WorkloadModel* model = sys.MatchWorkload(q)) {
            const PredictionKey key{
                static_cast<uint64_t>(sys.WorkloadIndex(model)),
                model->revision(), PredictionCache::PlanKey(q.tokens)};
            if (!sys.prediction_cache().Lookup(key, &pages)) {
              std::unordered_set<PageId> predicted;
              {
                ScopedSpan predict_span(spans, "core.predictor.predict",
                                        request);
                predicted = model->Predict(q.tokens);
              }
              ++predictions;
              pages.assign(predicted.begin(), predicted.end());
              std::sort(pages.begin(), pages.end());
              sys.prediction_cache().Insert(key, pages);
            }
            const std::unordered_set<PageId> predicted(pages.begin(),
                                                       pages.end());
            const std::unordered_set<PageId> truth = model->RestrictToModeled(
                ProcessTrace(q.trace, model->options().removal));
            accuracy = ComputeSetMetrics(predicted, truth);
            engaged = true;
          }
        }
        ScopedSpan replay_span(spans, "core.replay.pythia", request);
        split_replay[1] = TimedReplay(q.trace, pages, popts, &env, &timers[1]);
      }
      if (pass == 0) {
        AccumulateStats(&layers.pool, split_replay[1].pool_stats);
        layers.AddSession(split_replay[1].prefetch_stats);
        layers.AddStorage(&env, os_before);
      }
      env.ColdRestart();
      {
        ScopedSpan replay_span(spans, "core.replay.dflt", request);
        split_replay[0] =
            TimedReplay(q.trace, no_pages, popts, &env, &timers[0]);
      }

      // The split-up calls must reproduce the program's results exactly.
      if (pages != ref_pages || engaged != ref_metrics.engaged ||
          (engaged && !SameAccuracy(accuracy, ref_metrics.accuracy))) {
        report->Fail("split-up planning differs from PrefetchPlan on query " +
                     std::to_string(i));
      }
      for (int mode = 0; mode < 2; ++mode) {
        ++report->attempted;
        if (!ref_replay[mode].status.ok()) ++report->failed;
        if (!SameReplay(ref_replay[mode], split_replay[mode])) {
          report->Fail("split-up replay differs from ReplayQuery on query " +
                       std::to_string(i));
        }
        if (ref_replay[mode].completed_accesses != q.trace.accesses.size()) {
          report->Fail("a replay did not complete every access");
        }
      }
      if (env.pool().pinned_frames() != 0) {
        report->Fail("buffer pins leaked after a query");
      }
      if (pass == 0) {
        first[i] = Virtual{split_replay[0].elapsed_us,
                           split_replay[1].elapsed_us, accuracy, engaged};
        if (engaged) {
          f1.push_back(accuracy.f1);
          precision.push_back(accuracy.precision);
          recall.push_back(accuracy.recall);
        }
      } else if (split_replay[0].elapsed_us != first[i].dflt_us ||
                 split_replay[1].elapsed_us != first[i].pythia_us) {
        report->Fail("query " + std::to_string(i) +
                     " changed its virtual result between passes");
      }
    }
    cache_hits += split.system.prediction_cache_stats().hits;
    cache_misses += split.system.prediction_cache_stats().misses;
    if (done()) out_of_time = true;
  }
  for (const Virtual& v : first) {
    report->Digest(static_cast<uint64_t>(v.dflt_us));
    report->Digest(static_cast<uint64_t>(v.pythia_us));
    report->Digest(v.accuracy.true_positives);
    report->Digest(v.accuracy.predicted);
  }

  const std::vector<double> traced_query_us = spans->DurationsUs("query");
  const double traced_p50 = Percentile(traced_query_us, 0.5).value_or(0.0);
  const double untraced_p50 =
      Percentile(untraced_query_us, 0.5).value_or(0.0);
  std::vector<double> fetch_ns;
  for (const ReplayTimers& t : timers) {
    fetch_ns.insert(fetch_ns.end(), t.fetch_sample_ns.begin(),
                    t.fetch_sample_ns.end());
  }
  const ReplayTimers& pythia_timers = timers[1];

  report->Add("workload.generate_s", fx.generate_s, "s");
  report->Add("core.predictor.train_s", fx.train_s, "s");
  const std::vector<double> predict_us =
      spans->DurationsUs("core.predictor.predict");
  report->AddPercentile("core.predictor.predict_us.p50", predict_us, 0.5, "us",
                        true);
  report->AddPercentile("core.predictor.predict_us.p99", predict_us, 0.99,
                        "us", true);
  report->AddPercentile("core.predictor.f1.p50", f1, 0.5, "ratio", true);
  report->AddPercentile("core.predictor.precision.p50", precision, 0.5,
                        "ratio", true);
  report->AddPercentile("core.predictor.recall.p50", recall, 0.5, "ratio",
                        true);
  report->AddPercentile("core.system.plan_us.p50", plan_us, 0.5, "us", true);
  report->AddPercentile("core.system.plan_us.p99", plan_us, 0.99, "us", true);
  report->AddPercentile("core.system.plan_self_us.p50",
                        spans->SelfUs("core.system.plan"), 0.5, "us", true);
  report->Add("core.system.allocs_per_plan",
              static_cast<double>(plan_allocs) / plans, "count", plans);
  report->Add("core.prediction_cache.hit_ratio",
              static_cast<double>(cache_hits) /
                  static_cast<double>(cache_hits + cache_misses),
              "ratio");
  report->Add("core.replay.dflt_ns_per_access", dflt_ns / dflt_accesses, "ns",
              dflt_accesses);
  report->Add("core.replay.pythia_ns_per_access", pythia_ns / pythia_accesses,
              "ns", pythia_accesses);
  report->Add("core.replay.allocs_per_access",
              static_cast<double>(replay_allocs) / replay_accesses, "count",
              replay_accesses);
  report->Add("core.prefetcher.pump_ns_per_access",
              static_cast<double>(pythia_timers.pump_ns) /
                  pythia_timers.accesses,
              "ns", pythia_timers.accesses);
  report->Add("core.prefetcher.onfetch_ns_per_access",
              static_cast<double>(pythia_timers.onfetch_ns) /
                  pythia_timers.accesses,
              "ns", pythia_timers.accesses);
  layers.ReportTo(report);
  report->AddPercentile("bufmgr.fetch_ns.p50", fetch_ns, 0.5, "ns", true);
  report->AddPercentile("bufmgr.fetch_ns.p99", fetch_ns, 0.99, "ns", true);
  report->Add("storage.io.backlog_ms.max",
              std::max(timers[0].backlog_max_us, timers[1].backlog_max_us) /
                  1e3,
              "virtual_ms");
  report->Add("tracing.overhead_us", traced_p50 - untraced_p50, "us",
              traced_query_us.size());
  report->Add("tracing.overhead_frac", traced_p50 / untraced_p50 - 1.0,
              "ratio", traced_query_us.size());
}

}  // namespace

void RunSingleCold(const RunContext& ctx, Report* report) {
  Fixture fx = BuildFixture(ctx.seed, /*train=*/true, kHeldOutPerTemplate);
  OnOneLane([&] {
    if (ctx.traced) {
      RunTraced(ctx, fx, report);
    } else {
      RunUntraced(ctx, fx, report);
    }
  });
}

}  // namespace perfbench
