#include "core/replay.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <numeric>
#include <queue>
#include <thread>
#include <utility>

#include "util/metrics_registry.h"
#include "util/trace.h"

namespace pythia {

SimEnvironment::SimEnvironment(const SimOptions& options)
    : options_(options) {
  OsPageCache::Options os_options;
  os_options.capacity_pages = options.os_cache_pages;
  os_options.readahead_pages = options.os_readahead_pages;
  os_options.num_channels = options.storage_channels;
  os_cache_ = std::make_unique<OsPageCache>(os_options, options.latency);
  const size_t channels = os_cache_->num_channels();

  BufferPool::Options pool_options;
  pool_options.capacity_pages = options.buffer_pages;
  pool_options.policy = options.policy;
  pool_options.retry = options.retry;
  pool_options.num_shards = options.buffer_shards;
  pool_options.seed = options.disk_content_seed;
  pool_options.profile_locks = options.profile_pool_locks;
  pool_ = std::make_unique<BufferPool>(pool_options, os_cache_.get(),
                                       options.latency);
  io_ = std::make_unique<IoScheduler>(options.io_channels);

  // Single-channel (the default): one injector and one disk shared by
  // everything, exactly the historical wiring, so seed benches are
  // bit-identical. Multi-channel: channel 0 keeps injector_/disk_, channels
  // 1..N-1 get their own instances — injector seeds derived from the base
  // seed and channel index (independent but reproducible fault streams),
  // disks sharing the content seed (identical page images) — and the AIO
  // scheduler gets a dedicated stall stream. FaultInjector and
  // SimulatedDisk are not thread-safe; per-channel instances let the
  // channel mutexes do the serialization.
  // Single-gray-channel scenario: brownout_channel >= 0 confines the
  // configured brownout window to that one channel's injector; every other
  // derived config has it stripped (seeds are untouched, so the error/spike
  // streams stay identical either way).
  const auto scoped_faults = [&](FaultConfig config, size_t channel) {
    if (options.brownout_channel >= 0 &&
        static_cast<size_t>(options.brownout_channel) != channel) {
      config.brownout_latency_mult = 1.0;
      config.brownout_duration_reads = 0;
    }
    return config;
  };
  if (options.faults.enabled()) {
    injector_ =
        std::make_unique<FaultInjector>(scoped_faults(options.faults, 0));
    os_cache_->set_fault_injector(injector_.get());
    if (channels > 1) {
      for (size_t c = 1; c < channels; ++c) {
        FaultConfig config = options.faults;
        config.seed = options.faults.seed ^ (0x9e3779b97f4a7c15ULL * c);
        channel_injectors_.push_back(
            std::make_unique<FaultInjector>(scoped_faults(config, c)));
        os_cache_->set_channel_fault_injector(c,
                                              channel_injectors_.back().get());
      }
      FaultConfig aio_config = options.faults;
      aio_config.seed = options.faults.seed ^ 0xa10a10a10a10a10aULL;
      aio_injector_ = std::make_unique<FaultInjector>(aio_config);
      io_->set_fault_injector(aio_injector_.get());
    } else {
      io_->set_fault_injector(injector_.get());
    }
  }
  if (options.channel_health.enabled) {
    health_ =
        std::make_unique<ChannelHealthTracker>(channels, options.channel_health);
    os_cache_->set_health_tracker(health_.get());
    // The AIO-side tracker is telemetry only: hedging is a cache-read
    // remedy, and a second hedging tracker would double-count against the
    // io.hedge.* registry mirrors.
    ChannelHealthOptions aio_health_options = options.channel_health;
    aio_health_options.hedging_enabled = false;
    aio_health_ = std::make_unique<ChannelHealthTracker>(io_->num_channels(),
                                                         aio_health_options);
    io_->set_health_tracker(aio_health_.get());
    if (options.channel_breakers) {
      breakers_ = std::make_unique<ChannelBreakerBoard>(
          options.channel_breaker, health_.get());
    }
  }
  if (options.faults.corruption_enabled() || options.verify_page_checksums) {
    disk_ = std::make_unique<SimulatedDisk>(options.disk_content_seed,
                                            injector_.get());
    os_cache_->set_disk(disk_.get());
    for (size_t c = 1; c < channels; ++c) {
      FaultInjector* channel_injector =
          options.faults.enabled() ? channel_injectors_[c - 1].get() : nullptr;
      channel_disks_.push_back(std::make_unique<SimulatedDisk>(
          options.disk_content_seed, channel_injector));
      os_cache_->set_channel_disk(c, channel_disks_.back().get());
    }
  }
}

void SimEnvironment::ColdRestart() {
  pool_->Reset();
  pool_->ResetStats();
  os_cache_->DropCaches();
  io_->Reset();
}

void SimEnvironment::ResetFaults() {
  if (injector_ != nullptr) injector_->Reset();
  for (auto& injector : channel_injectors_) injector->Reset();
  if (aio_injector_ != nullptr) aio_injector_->Reset();
}

void SimEnvironment::ResetChannelHealth() {
  if (health_ != nullptr) health_->Reset();
  if (aio_health_ != nullptr) aio_health_->Reset();
  if (breakers_ != nullptr) breakers_->Reset();
}

ReplayResult ReplayQuery(const QueryTrace& trace,
                         const std::vector<PageId>& prefetch_pages,
                         const PrefetcherOptions& prefetch_options,
                         SimEnvironment* env) {
  ReplayResult result;
  const BufferPoolStats before = env->pool().stats();
  const LatencyModel& latency = env->options().latency;

  std::unique_ptr<PrefetchSession> session;
  if (!prefetch_pages.empty()) {
    PrefetcherOptions opts = prefetch_options;
    if (opts.channel_breakers == nullptr) {
      opts.channel_breakers = env->channel_breakers();
    }
    session = std::make_unique<PrefetchSession>(prefetch_pages, opts,
                                                &env->pool(), &env->os_cache(),
                                                &env->io(), latency);
  }

  SimTime now = 0;
  for (const PageAccess& access : trace.accesses) {
    now += static_cast<SimTime>(access.cpu_tuples_before) *
           latency.cpu_per_tuple_us;
    // Keep the tracer's context time fresh for record sites below this layer
    // that carry no clock of their own (OS cache, simulated disk).
    PYTHIA_TRACE_SET_TIME(now);
    if (session != nullptr) session->Pump(now);
    const Result<FetchResult> fetch = env->pool().FetchPage(access.page, now);
    if (!fetch.ok()) {
      // Unrecoverable foreground read: abort the query, releasing every
      // prefetch pin so the pool is left clean for the next run.
      result.status = fetch.status();
      break;
    }
    now += fetch->latency_us;
    ++result.completed_accesses;
    if (session != nullptr) session->OnFetch(access.page, now);
  }
  if (session != nullptr) {
    session->Finish();
    result.prefetch_stats = session->stats();
  }
  result.elapsed_us = now;
  PYTHIA_TRACE_SPAN("query", "replay", 0, now, "accesses",
                    result.completed_accesses);
  result.pool_stats = env->pool().stats();
  SubtractStats(&result.pool_stats, before);
  return result;
}

ConcurrentResult ReplayConcurrent(const std::vector<ConcurrentQuery>& queries,
                                  const ConcurrentOptions& options,
                                  SimEnvironment* env) {
  const LatencyModel& latency = env->options().latency;
  const size_t n = queries.size();

  struct QueryState {
    SimTime clock = 0;
    SimTime deadline_at = 0;  // 0 = no deadline
    size_t next_access = 0;
    std::unique_ptr<PrefetchSession> session;
    DegradationRung worst_rung = DegradationRung::kFullNeural;
    bool deadline_exceeded = false;
  };
  std::vector<QueryState> states(n);
  ConcurrentResult result;
  result.start_us.resize(n);
  result.end_us.resize(n);
  result.queries.resize(n);

  // Each concurrent query gets its own trace track; the event loop switches
  // the tracer's current track as it context-switches between queries.
  Tracer& tracer = Tracer::Global();
  const bool tracing = tracer.enabled();
  std::vector<uint32_t> tracks(tracing ? n : 0, 0);
  if (tracing) {
    for (size_t i = 0; i < n; ++i) tracks[i] = tracer.StartQueryTrack();
  }

  // Pending arrivals, in event order: by arrival time, then index.
  std::vector<size_t> arrivals(n);
  std::iota(arrivals.begin(), arrivals.end(), size_t{0});
  std::stable_sort(arrivals.begin(), arrivals.end(), [&](size_t a, size_t b) {
    return queries[a].arrival_us < queries[b].arrival_us;
  });
  size_t next_arrival = 0;  // cursor into `arrivals`
  // Running queries, min-heap by (clock, index): exactly the admitted,
  // unfinished ones. A query's clock only moves while it is popped.
  using RunEvent = std::pair<SimTime, size_t>;
  std::priority_queue<RunEvent, std::vector<RunEvent>, std::greater<>>
      running;

  size_t active = 0;
  std::deque<size_t> wait_queue;  // FIFO of queued indices
  // Latest virtual time any event has been processed at. Queue admissions
  // can never happen before it — a freed slot is only usable "now".
  SimTime watermark = 0;
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& admitted_after_wait = reg.counter("overload.admitted_after_wait");
  Histogram& queue_wait = reg.histogram("overload.queue_wait_us");
  Counter& admission_rejected = reg.counter("overload.admission_rejected");
  Counter& deadline_stops = reg.counter("overload.deadline_stops");

  auto finish_query = [&](size_t i, SimTime end, Status status) {
    QueryState& st = states[i];
    if (st.session != nullptr) {
      st.session->Finish();
      result.queries[i].prefetch_stats = st.session->stats();
    }
    result.end_us[i] = end;
    QueryRunMetrics& m = result.queries[i];
    m.status = std::move(status);
    m.elapsed_us = end - result.start_us[i];
    m.rung = MaxRung(m.rung, st.worst_rung);
    m.deadline_exceeded = st.deadline_exceeded;
    if (st.worst_rung != DegradationRung::kFullNeural ||
        m.prefetch_stats.shed_by_governor > 0 ||
        m.prefetch_stats.denied_by_governor > 0) {
      m.degraded_by_governor = true;
    }
    PYTHIA_TRACE_SPAN("query", "replay", result.start_us[i], end, "accesses",
                      st.next_access);
    watermark = std::max(watermark, end);
    --active;
  };

  // Starts query `i` at virtual time `start` (its admission time). Every
  // admission path goes through here, so this is where a query joins the
  // running heap — unless its trace is empty and it finishes on the spot.
  auto admit = [&](size_t i, SimTime start) {
    QueryState& st = states[i];
    st.clock = start;
    result.start_us[i] = start;
    result.queries[i] = queries[i].planned;
    const SimTime wait = start - queries[i].arrival_us;
    result.queries[i].queue_wait_us = wait;
    result.admission.max_queue_wait_us =
        std::max(result.admission.max_queue_wait_us, wait);
    if (wait > 0) {
      ++result.admission.admitted_after_wait;
      admitted_after_wait.Increment();
      queue_wait.Record(wait);
      PYTHIA_TRACE_INSTANT("overload", "admit.queued", start, "query",
                           static_cast<uint64_t>(i), "wait_us",
                           static_cast<uint64_t>(wait));
    } else {
      ++result.admission.admitted_immediately;
    }
    ++active;
    SimTime budget = queries[i].deadline_us > 0 ? queries[i].deadline_us
                                                : options.default_deadline_us;
    st.deadline_at = budget > 0 ? start + budget : 0;
    if (!queries[i].prefetch_pages.empty()) {
      // The session's start delay is relative to the query's own start.
      PrefetcherOptions opts = queries[i].prefetch_options;
      opts.start_delay_us += start;
      if (opts.governor == nullptr) opts.governor = options.governor;
      if (opts.channel_breakers == nullptr) {
        opts.channel_breakers = env->channel_breakers();
      }
      st.session = std::make_unique<PrefetchSession>(
          queries[i].prefetch_pages, opts, &env->pool(), &env->os_cache(),
          &env->io(), latency);
    }
    if (queries[i].trace->accesses.empty()) {
      finish_query(i, start, Status::OK());
    } else {
      running.emplace(start, i);
    }
  };

  // Arrival-time admission decision for query `i`.
  auto on_arrival = [&](size_t i) {
    const SimTime arrival = queries[i].arrival_us;
    if (options.max_active_queries == 0 ||
        active < options.max_active_queries) {
      admit(i, arrival);
      return;
    }
    if (wait_queue.size() < options.admission_queue_limit) {
      wait_queue.push_back(i);
      PYTHIA_TRACE_INSTANT("overload", "admit.enqueue", arrival, "query",
                           static_cast<uint64_t>(i), "depth",
                           static_cast<uint64_t>(wait_queue.size()));
      return;
    }
    // Saturated and the queue is full: reject outright rather than build an
    // unbounded backlog. The query never runs; it costs the system nothing.
    result.start_us[i] = arrival;
    result.end_us[i] = arrival;
    result.queries[i].status =
        Status::ResourceExhausted("admission queue full");
    ++result.admission.rejected;
    admission_rejected.Increment();
    PYTHIA_TRACE_INSTANT("overload", "admit.reject", arrival, "query",
                         static_cast<uint64_t>(i));
  };

  // A slot freed at time `t`: admit the queue head, at its arrival time or
  // `t`, whichever is later.
  auto admit_from_queue = [&](SimTime t) {
    if (wait_queue.empty()) return;
    if (options.max_active_queries != 0 &&
        active >= options.max_active_queries) {
      return;
    }
    const size_t i = wait_queue.front();
    wait_queue.pop_front();
    admit(i, std::max(queries[i].arrival_us, t));
  };

  // Event loop: the next event is either the earliest unprocessed arrival
  // or the smallest running-query clock; arrivals win ties so admission
  // state is up to date before work advances past that instant. Among equal
  // keys the lowest query index goes first (stable arrival order, and the
  // index in the heap key). Each step is O(log N): a cursor bump or one
  // heap pop and push.
  for (;;) {
    if (next_arrival < n &&
        (running.empty() || queries[arrivals[next_arrival]].arrival_us <=
                                running.top().first)) {
      on_arrival(arrivals[next_arrival++]);
      continue;
    }
    if (running.empty()) {
      if (!wait_queue.empty()) {
        // Nothing running and nothing arriving, yet queries are queued
        // (e.g. the freed slot went to an empty-trace query that finished
        // instantly): admit the head at the latest event time so
        // saturation can never strand work or admit into the past.
        const size_t i = wait_queue.front();
        wait_queue.pop_front();
        admit(i, std::max(queries[i].arrival_us, watermark));
        continue;
      }
      break;
    }

    const size_t pick = running.top().second;
    running.pop();
    QueryState& st = states[pick];
    if (tracing) {
      tracer.SetTrack(tracks[pick]);
      tracer.SetTime(st.clock);
    }

    // Deadline budget: past it, stop speculating — shed the session (pins
    // released, governor tokens returned) and finish on demand reads.
    if (st.deadline_at != 0 && st.clock >= st.deadline_at &&
        st.session != nullptr && !st.session->finished()) {
      st.deadline_exceeded = true;
      ++result.admission.deadline_stops;
      deadline_stops.Increment();
      result.queries[pick].prefetch_stats = st.session->stats();
      st.session->Finish();
      PYTHIA_TRACE_INSTANT("overload", "deadline.stop", st.clock, "query",
                           static_cast<uint64_t>(pick));
    }

    const PageAccess& access =
        queries[pick].trace->accesses[st.next_access];
    st.clock += static_cast<SimTime>(access.cpu_tuples_before) *
                latency.cpu_per_tuple_us;
    PYTHIA_TRACE_SET_TIME(st.clock);
    if (options.governor != nullptr) {
      st.worst_rung =
          MaxRung(st.worst_rung, options.governor->Evaluate(st.clock));
    }
    if (st.session != nullptr) st.session->Pump(st.clock);
    const Result<FetchResult> fetch =
        env->pool().FetchPage(access.page, st.clock);
    if (!fetch.ok()) {
      // This query dies at the failing access; the rest of the batch keeps
      // running against a pool with its pins released.
      finish_query(pick, st.clock, fetch.status());
      admit_from_queue(st.clock);
      continue;
    }
    st.clock += fetch->latency_us;
    if (st.session != nullptr) st.session->OnFetch(access.page, st.clock);

    if (++st.next_access >= queries[pick].trace->accesses.size()) {
      finish_query(pick, st.clock, Status::OK());
      admit_from_queue(st.clock);
    } else {
      running.emplace(st.clock, pick);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    result.makespan_us = std::max(result.makespan_us, result.end_us[i]);
    result.total_query_us += result.end_us[i] - result.start_us[i];
  }
  return result;
}

ConcurrentResult ReplayConcurrent(const std::vector<ConcurrentQuery>& queries,
                                  SimEnvironment* env) {
  return ReplayConcurrent(queries, ConcurrentOptions{}, env);
}

ParallelReplayResult ReplayParallelFleet(
    const std::vector<ParallelReplayThread>& threads,
    const ParallelReplayOptions& options, SimEnvironment* env) {
  const LatencyModel& latency = env->options().latency;
  const size_t n = threads.size();
  ParallelReplayResult result;
  result.threads.resize(n);
  const BufferPoolStats stats_before = env->pool().stats();
  const BufferPoolLockStats lock_before = env->pool().lock_stats();

  // Body of one fleet thread: the ReplayQuery loop minus tracer context
  // switching (the tracer's SetTime/SetTrack are single-threaded; event
  // recording itself is spinlock-guarded and safe, so sites below this
  // layer stay harmless if tracing happens to be on).
  auto run_thread = [&](size_t idx) {
    const ParallelReplayThread& in = threads[idx];
    ParallelThreadResult& out = result.threads[idx];
    std::unique_ptr<PrefetchSession> session;
    if (!in.prefetch_pages.empty()) {
      PrefetcherOptions opts = options.prefetch;
      opts.governor = nullptr;  // the ladder is single-threaded control
      // The breaker board IS thread-safe (one mutex, lock-free tracker
      // reads), so fleet threads shed off browned-out channels too.
      if (opts.channel_breakers == nullptr) {
        opts.channel_breakers = env->channel_breakers();
      }
      session = std::make_unique<PrefetchSession>(
          in.prefetch_pages, opts, &env->pool(), &env->os_cache(), &env->io(),
          latency);
    }
    SimTime now = 0;
    for (const PageAccess& access : in.trace->accesses) {
      now += static_cast<SimTime>(access.cpu_tuples_before) *
             latency.cpu_per_tuple_us;
      if (session != nullptr) session->Pump(now);
      const Result<FetchResult> fetch = env->pool().FetchPage(access.page, now);
      if (!fetch.ok()) {
        out.status = fetch.status();
        break;
      }
      now += fetch->latency_us;
      ++out.completed_accesses;
      if (session != nullptr) session->OnFetch(access.page, now);
    }
    if (session != nullptr) {
      session->Finish();
      out.prefetch_stats = session->stats();
    }
    out.elapsed_us = now;
  };

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (size_t i = 0; i < n; ++i) workers.emplace_back(run_thread, i);
  // Joined in thread index order; results were written into index-addressed
  // slots, so the merge below is independent of the real interleaving.
  for (std::thread& t : workers) t.join();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  result.pool_stats = env->pool().stats();
  SubtractStats(&result.pool_stats, stats_before);
  const BufferPoolLockStats lock_after = env->pool().lock_stats();
  result.lock_stats.acquisitions =
      lock_after.acquisitions - lock_before.acquisitions;
  result.lock_stats.contended = lock_after.contended - lock_before.contended;
  result.lock_stats.wait_ns = lock_after.wait_ns - lock_before.wait_ns;
  result.lock_stats.hold_ns = lock_after.hold_ns - lock_before.hold_ns;
  result.lock_stats.hold_samples =
      lock_after.hold_samples - lock_before.hold_samples;
  return result;
}

}  // namespace pythia
