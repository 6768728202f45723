// Reference concurrent replay: the original event loop, verbatim, which
// finds the next event by scanning every query on every step (O(N) per
// replayed access).
//
// Kept in its own translation unit as the oracle that the event-heap loop
// in replay.cc is tested against (tests/replay_test.cc,
// ReplayConcurrentDifferentialTest): the same virtual-time results for
// every batch, including tie orders, admission, deadlines, the governor and
// mid-trace failures. Do not optimize it.
#include <algorithm>
#include <deque>
#include <limits>

#include "core/replay.h"
#include "util/metrics_registry.h"
#include "util/trace.h"

namespace pythia::reference {

ConcurrentResult ReplayConcurrent(const std::vector<ConcurrentQuery>& queries,
                                  const ConcurrentOptions& options,
                                  SimEnvironment* env) {
  const LatencyModel& latency = env->options().latency;
  const size_t n = queries.size();

  enum class Phase { kPendingArrival, kQueued, kRunning, kDone };
  struct QueryState {
    Phase phase = Phase::kPendingArrival;
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

  size_t active = 0;
  std::deque<size_t> wait_queue;  // FIFO of kQueued indices
  // Latest virtual time any event has been processed at. Queue admissions
  // can never happen before it — a freed slot is only usable "now".
  SimTime watermark = 0;
  MetricsRegistry& reg = MetricsRegistry::Global();

  auto finish_query = [&](size_t i, SimTime end, Status status) {
    QueryState& st = states[i];
    if (st.session != nullptr) {
      st.session->Finish();
      result.queries[i].prefetch_stats = st.session->stats();
    }
    st.phase = Phase::kDone;
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

  // Starts query `i` at virtual time `start` (its admission time).
  auto admit = [&](size_t i, SimTime start) {
    QueryState& st = states[i];
    st.phase = Phase::kRunning;
    st.clock = start;
    result.start_us[i] = start;
    result.queries[i] = queries[i].planned;
    const SimTime wait = start - queries[i].arrival_us;
    result.queries[i].queue_wait_us = wait;
    result.admission.max_queue_wait_us =
        std::max(result.admission.max_queue_wait_us, wait);
    if (wait > 0) {
      ++result.admission.admitted_after_wait;
      reg.counter("overload.admitted_after_wait").Increment();
      reg.histogram("overload.queue_wait_us").Record(wait);
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
      states[i].phase = Phase::kQueued;
      wait_queue.push_back(i);
      PYTHIA_TRACE_INSTANT("overload", "admit.enqueue", arrival, "query",
                           static_cast<uint64_t>(i), "depth",
                           static_cast<uint64_t>(wait_queue.size()));
      return;
    }
    // Saturated and the queue is full: reject outright rather than build an
    // unbounded backlog. The query never runs; it costs the system nothing.
    states[i].phase = Phase::kDone;
    result.start_us[i] = arrival;
    result.end_us[i] = arrival;
    result.queries[i].status =
        Status::ResourceExhausted("admission queue full");
    ++result.admission.rejected;
    reg.counter("overload.admission_rejected").Increment();
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
  // state is up to date before work advances past that instant.
  for (;;) {
    size_t next_arrival = n;
    SimTime arrival_t = std::numeric_limits<SimTime>::max();
    size_t pick = n;
    SimTime best = std::numeric_limits<SimTime>::max();
    for (size_t i = 0; i < n; ++i) {
      switch (states[i].phase) {
        case Phase::kPendingArrival:
          if (queries[i].arrival_us < arrival_t) {
            arrival_t = queries[i].arrival_us;
            next_arrival = i;
          }
          break;
        case Phase::kRunning:
          if (states[i].clock < best) {
            best = states[i].clock;
            pick = i;
          }
          break;
        default:
          break;
      }
    }

    if (next_arrival < n && arrival_t <= best) {
      on_arrival(next_arrival);
      continue;
    }
    if (pick == n) {
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
      reg.counter("overload.deadline_stops").Increment();
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
    }
  }

  for (size_t i = 0; i < n; ++i) {
    result.makespan_us = std::max(result.makespan_us, result.end_us[i]);
    result.total_query_us += result.end_us[i] - result.start_us[i];
  }
  return result;
}

}  // namespace pythia::reference
