#include "core/circuit_breaker.h"

#include "util/trace.h"

namespace pythia {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

bool IsHealthyPrefetch(const PrefetchSessionStats& stats,
                       const PrefetchHealthPolicy& policy) {
  const uint64_t attempted = stats.issued + stats.already_buffered +
                             stats.dropped_faulty;
  if (attempted < policy.min_attempted) return true;
  const uint64_t faulted = stats.dropped_faulty + stats.timed_out;
  if (static_cast<double>(faulted) >
      policy.max_fault_fraction * static_cast<double>(attempted)) {
    return false;
  }
  const uint64_t unconsumed = attempted > stats.consumed
                                  ? attempted - stats.consumed
                                  : 0;
  return static_cast<double>(unconsumed) <=
         policy.max_waste_fraction * static_cast<double>(attempted);
}

CircuitBreaker::CircuitBreaker(const CircuitBreakerOptions& options)
    : failure_threshold_(options.failure_threshold),
      core_({.window = options.window,
             .min_samples = options.min_samples,
             .cooldown = options.cooldown_queries,
             .required_probe_successes = options.required_probe_successes}) {}

void CircuitBreaker::Record(bool healthy) {
  const auto too_unhealthy = [this] {
    const auto& window = core_.snapshot().window;
    size_t unhealthy = 0;
    for (bool h : window) unhealthy += h ? 0 : 1;
    return static_cast<double>(unhealthy) >=
           failure_threshold_ * static_cast<double>(window.size());
  };
  switch (core_.Record(healthy, !healthy, too_unhealthy)) {
    case HysteresisTransition::kTrip:
      PYTHIA_TRACE_INSTANT_CTX("breaker", "trip", "trips", stats().trips);
      break;
    case HysteresisTransition::kRecover:
      PYTHIA_TRACE_INSTANT_CTX("breaker", "recover", "recoveries",
                               stats().recoveries);
      break;
    default:
      break;
  }
}

}  // namespace pythia
