// The closed -> open -> half-open hysteresis machine shared by the prefetch
// circuit breaker (core/circuit_breaker.h) and the per-model prediction
// watchdog (core/watchdog.h). The two differ only in what a sample is and
// how it is judged; the adapters pass those judgements in and turn the
// returned transitions into their own trace instants and registry counters.
//
//  - closed: the gate admits. Samples go into a sliding window; once
//    `min_samples` are in it and the caller's window judgement says so, the
//    machine trips open.
//  - open: the gate refuses and counts `cooldown` calls down. At zero it
//    moves to half-open, but that call is still refused: the *next* one
//    probes. Samples are ignored (a session already running at the trip).
//  - half-open: the gate admits probes. One bad sample trips it again;
//    `required_probe_successes` good ones close it and clear the window.
//
// ChannelBreakerBoard (core/channel_breaker.h) is deliberately not built on
// this: it leaves the open state when a health score recovers rather than
// after a cooldown, and closes when a probe budget drains rather than after
// a run of good probes.
#ifndef PYTHIA_CORE_HYSTERESIS_H_
#define PYTHIA_CORE_HYSTERESIS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

namespace pythia {

// The ordinals are those of BreakerState and ModelHealth, and are written
// into checkpoint manifests through WatchdogCheckpointState::health.
enum class HysteresisState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

enum class HysteresisTransition { kNone, kTrip, kHalfOpen, kRecover };

struct HysteresisOptions {
  size_t window;
  size_t min_samples;
  size_t cooldown;
  size_t required_probe_successes;
};

struct HysteresisStats {
  uint64_t trips = 0;       // closed/half-open -> open transitions
  uint64_t probes = 0;      // gate calls admitted while half-open
  uint64_t rejected = 0;    // gate calls refused while open
  uint64_t recoveries = 0;  // half-open -> closed transitions
};

template <typename Sample>
class Hysteresis {
 public:
  // Everything the machine holds, as checkpoints capture and restore it.
  struct Snapshot {
    HysteresisState state = HysteresisState::kClosed;
    std::deque<Sample> window;
    size_t cooldown_remaining = 0;
    size_t probe_successes = 0;
    HysteresisStats stats;
  };

  explicit Hysteresis(const HysteresisOptions& options) : options_(options) {}

  // The gate, called before each eligible query. A move to half-open is
  // written to `*transition` when one is given.
  bool Allow(HysteresisTransition* transition = nullptr) {
    switch (m_.state) {
      case HysteresisState::kClosed:
        return true;
      case HysteresisState::kOpen:
        ++m_.stats.rejected;
        if (m_.cooldown_remaining > 0) --m_.cooldown_remaining;
        if (m_.cooldown_remaining == 0) {
          m_.state = HysteresisState::kHalfOpen;
          m_.probe_successes = 0;
          if (transition != nullptr) {
            *transition = HysteresisTransition::kHalfOpen;
          }
        }
        return false;
      case HysteresisState::kHalfOpen:
        ++m_.stats.probes;
        return true;
    }
    return true;
  }

  // Records one sample. `sample_bad` is the verdict a probe is judged by;
  // `window_bad()` judges the closed-state window (snapshot().window), and
  // is asked only once `min_samples` are in it.
  template <typename WindowBad>
  HysteresisTransition Record(const Sample& sample, bool sample_bad,
                              WindowBad window_bad) {
    switch (m_.state) {
      case HysteresisState::kClosed:
        m_.window.push_back(sample);
        while (m_.window.size() > options_.window) m_.window.pop_front();
        if (m_.window.size() < options_.min_samples || !window_bad()) {
          return HysteresisTransition::kNone;
        }
        Trip();
        return HysteresisTransition::kTrip;
      case HysteresisState::kOpen:
        return HysteresisTransition::kNone;
      case HysteresisState::kHalfOpen:
        if (sample_bad) {
          Trip();
          return HysteresisTransition::kTrip;
        }
        if (++m_.probe_successes < options_.required_probe_successes) {
          return HysteresisTransition::kNone;
        }
        m_.state = HysteresisState::kClosed;
        m_.window.clear();
        ++m_.stats.recoveries;
        return HysteresisTransition::kRecover;
    }
    return HysteresisTransition::kNone;
  }

  const Snapshot& snapshot() const { return m_; }

  // Back to closed with an empty window; the stats are kept.
  void Restart() {
    m_ = Snapshot{HysteresisState::kClosed, {}, 0, 0, m_.stats};
  }

  // Reinstates a captured machine (Restore({}) resets it); a window longer
  // than the configured one keeps its newest samples.
  void Restore(Snapshot m) {
    m_ = std::move(m);
    while (m_.window.size() > options_.window) m_.window.pop_front();
  }

 private:
  void Trip() {
    m_.state = HysteresisState::kOpen;
    m_.cooldown_remaining = options_.cooldown;
    m_.window.clear();
    m_.probe_successes = 0;
    ++m_.stats.trips;
  }

  HysteresisOptions options_;
  Snapshot m_;
};

}  // namespace pythia

#endif  // PYTHIA_CORE_HYSTERESIS_H_
