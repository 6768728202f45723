#include "core/watchdog.h"

#include "util/metrics.h"
#include "util/metrics_registry.h"
#include "util/trace.h"

namespace pythia {

const char* ModelHealthName(ModelHealth health) {
  switch (health) {
    case ModelHealth::kHealthy: return "healthy";
    case ModelHealth::kDegraded: return "degraded";
    case ModelHealth::kProbation: return "probation";
  }
  return "unknown";
}

PredictionWatchdog::PredictionWatchdog(const WatchdogOptions& options)
    : options_(options),
      core_({.window = options.window,
             .min_samples = options.min_samples,
             .cooldown = options.probation_queries,
             .required_probe_successes = options.required_probe_successes}) {}

bool PredictionWatchdog::AllowPrediction() {
  HysteresisTransition transition = HysteresisTransition::kNone;
  const bool allowed = core_.Allow(&transition);
  if (transition == HysteresisTransition::kHalfOpen) {
    MetricsRegistry::Global()
        .counter("watchdog.transitions.probation")
        .Increment();
  }
  return allowed;
}

void PredictionWatchdog::Record(uint64_t attempted, uint64_t consumed) {
  if (attempted < options_.min_attempted) return;
  const double ratio = SafeDiv(static_cast<double>(consumed),
                               static_cast<double>(attempted));
  ++sessions_judged_;
  const double floor = options_.min_useful_ratio;
  const HysteresisStats& stats = core_.snapshot().stats;
  switch (core_.Record(ratio, ratio < floor,
                       [&] { return WindowRatio() < floor; })) {
    case HysteresisTransition::kTrip:
      if (post_swap_remaining_ > 0) post_swap_demoted_ = true;
      MetricsRegistry::Global().counter("watchdog.transitions.demote")
          .Increment();
      PYTHIA_TRACE_INSTANT_CTX("watchdog", "demote", "demotions",
                               stats.trips);
      break;
    case HysteresisTransition::kRecover:
      MetricsRegistry::Global().counter("watchdog.transitions.reinstate")
          .Increment();
      PYTHIA_TRACE_INSTANT_CTX("watchdog", "reinstate", "reinstatements",
                               stats.recoveries);
      break;
    default:
      break;
  }
  // The post-swap probation window counts judged sessions; a demotion above
  // saw it still open and latched post_swap_demoted_.
  if (post_swap_remaining_ > 0) --post_swap_remaining_;
}

double PredictionWatchdog::WindowRatio() const {
  const auto& window = core_.snapshot().window;
  if (window.empty()) return 0.0;
  double total = 0.0;
  for (double r : window) total += r;
  return total / static_cast<double>(window.size());
}

WatchdogStats PredictionWatchdog::stats() const {
  const HysteresisStats& s = core_.snapshot().stats;
  return {.demotions = s.trips,
          .probes = s.probes,
          .reinstatements = s.recoveries,
          .degraded_queries = s.rejected,
          .sessions_judged = sessions_judged_};
}

void PredictionWatchdog::RestartForNewModel(size_t probation_sessions) {
  core_.Restart();
  post_swap_remaining_ = probation_sessions;
  post_swap_demoted_ = false;
}

WatchdogCheckpointState PredictionWatchdog::CheckpointState() const {
  const auto& m = core_.snapshot();
  WatchdogCheckpointState state;
  state.health = static_cast<uint32_t>(m.state);
  state.window.assign(m.window.begin(), m.window.end());
  state.probation_remaining = m.cooldown_remaining;
  state.probe_successes = m.probe_successes;
  state.post_swap_remaining = post_swap_remaining_;
  state.post_swap_demoted = post_swap_demoted_;
  state.stats = stats();
  return state;
}

void PredictionWatchdog::RestoreCheckpointState(
    const WatchdogCheckpointState& state) {
  const WatchdogStats& s = state.stats;
  core_.Restore({.state = static_cast<HysteresisState>(state.health),
                 .window = {state.window.begin(), state.window.end()},
                 .cooldown_remaining = state.probation_remaining,
                 .probe_successes = state.probe_successes,
                 .stats = {.trips = s.demotions,
                           .probes = s.probes,
                           .rejected = s.degraded_queries,
                           .recoveries = s.reinstatements}});
  sessions_judged_ = s.sessions_judged;
  post_swap_remaining_ = state.post_swap_remaining;
  post_swap_demoted_ = state.post_swap_demoted;
}

void PredictionWatchdog::Reset() {
  core_.Restore({});
  sessions_judged_ = 0;
  post_swap_remaining_ = 0;
  post_swap_demoted_ = false;
}

}  // namespace pythia
