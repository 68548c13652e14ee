// The discrete-event simulator: a clock plus a pending-event set.
//
// Components hold a Simulator& and schedule callbacks with at()/after().
// A run is fully deterministic given the scheduled events and RNG seeds.
//
// Periodic timers get a dedicated fast lane: a repeating tick is a pair of
// fields (next fire time, insertion seq) the run loop merges against the
// event heap, instead of a heap push + pop + two callback relocations per
// period. The lane draws its seq from the same counter the heap uses, at
// the same instant a pushed tick would have consumed it, so the merge
// order is exactly the order the heap-based implementation produced —
// sub-microsecond cadences (the memory controller ticks every 100ns) stop
// dominating the event core without perturbing any schedule.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace hostcc::sim {

// Lane record for one repeating timer. Owned by its PeriodicTimer (whose
// address is stable: the timer is non-movable); the Simulator keeps only a
// pointer. next == Time::max() means "no tick armed" (stopped, or the
// tick currently executing has not re-armed yet).
struct PeriodicLane {
  Time next = Time::max();
  std::uint64_t seq = 0;
  Time period;
  Time armed_at;
  EventFn fn;
  bool active = false;
};

class Simulator {
 public:
  Time now() const { return now_; }

  // Schedules `fn` at absolute time `when` (must not be in the past).
  EventHandle at(Time when, EventFn fn) {
    assert(when >= now_ && "cannot schedule into the past");
    return queue_.push(when, std::move(fn));
  }

  // Schedules `fn` after a relative delay.
  EventHandle after(Time delay, EventFn fn) { return at(now_ + delay, std::move(fn)); }

  // Runs events until the queue is empty or the clock would pass `deadline`,
  // then advances the clock to `deadline` — except for run()'s unbounded
  // deadline, which leaves it at the last executed event so a later after()
  // cannot overflow Time.
  void run_until(Time deadline) {
    for (;;) {
      const Time qt = queue_.next_time();  // Time::max() when empty
      PeriodicLane* const lane = next_lane_;
      const bool fire_lane =
          lane != nullptr && lane->next <= deadline &&
          (lane->next < qt || (lane->next == qt && lane->seq < queue_.top_seq()));
      if (fire_lane) {
        now_ = lane->next;
        ++events_executed_;
        lane->next = Time::max();  // in-tick marker; stop()/set_period() see "not armed"
        lane->fn();
        if (lane->active && lane->next == Time::max()) {
          lane->armed_at = now_;
          lane->next = now_ + lane->period;
          lane->seq = queue_.take_seq();
        }
        refresh_next_lane();
      } else if (!queue_.empty() && qt <= deadline) {
        now_ = qt;
        ++events_executed_;
        queue_.pop_top_and_run();
      } else {
        break;
      }
    }
    if (now_ < deadline && deadline != Time::max()) now_ = deadline;
  }

  // Runs until no events remain.
  void run() { run_until(Time::max()); }

  bool idle() const { return queue_.empty() && next_lane_ == nullptr; }
  std::uint64_t events_executed() const { return events_executed_; }
  // Live (non-cancelled) events pending in the heap; periodic lanes are
  // not counted. Feeds the profiler's queue-depth timeline.
  std::size_t pending_events() const { return queue_.size(); }

  // --- periodic-lane registry (used by PeriodicTimer) ---

  void register_lane(PeriodicLane* lane) {
    lanes_.push_back(lane);
    refresh_next_lane();
  }

  void unregister_lane(PeriodicLane* lane) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i] == lane) {
        lanes_[i] = lanes_.back();
        lanes_.pop_back();
        break;
      }
    }
    refresh_next_lane();
  }

  // Must be called after any mutation of a registered lane's fields.
  void lane_updated() { refresh_next_lane(); }

  std::uint64_t take_seq() { return queue_.take_seq(); }

 private:
  // Caches the earliest armed lane so the run loop pays one comparison per
  // event, not a scan. Lanes are few (one per PeriodicTimer) and mutate
  // rarely relative to event dispatch.
  void refresh_next_lane() {
    next_lane_ = nullptr;
    for (PeriodicLane* l : lanes_) {
      if (!l->active || l->next == Time::max()) continue;
      if (next_lane_ == nullptr || l->next < next_lane_->next ||
          (l->next == next_lane_->next && l->seq < next_lane_->seq)) {
        next_lane_ = l;
      }
    }
  }

  Time now_ = Time::zero();
  EventQueue queue_;
  std::uint64_t events_executed_ = 0;
  std::vector<PeriodicLane*> lanes_;
  PeriodicLane* next_lane_ = nullptr;
};

// A repeating timer: fires `fn` every `period` until stopped or destroyed.
// Backed by a Simulator periodic lane, so a tick costs no heap traffic.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Time period, EventFn fn) : sim_(sim) {
    lane_.period = period;
    lane_.fn = std::move(fn);
    sim_.register_lane(&lane_);
  }
  ~PeriodicTimer() {
    stop();
    sim_.unregister_lane(&lane_);
  }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start() {
    if (lane_.active) return;
    lane_.active = true;
    lane_.armed_at = sim_.now();
    lane_.next = sim_.now() + lane_.period;
    lane_.seq = sim_.take_seq();
    sim_.lane_updated();
  }

  void stop() {
    lane_.active = false;
    lane_.next = Time::max();
    sim_.lane_updated();
  }

  bool running() const { return lane_.active; }
  Time period() const { return lane_.period; }

  // Changes the period, re-arming the in-flight tick so the new cadence
  // takes effect immediately: the next tick fires at (last arm time + new
  // period), or right away if that instant has already passed. The hostCC
  // sampler's cadence adjustments rely on not waiting out the old period.
  void set_period(Time period) {
    if (period == lane_.period) return;
    lane_.period = period;
    if (lane_.active && lane_.next != Time::max()) {
      const Time due = lane_.armed_at + period;
      lane_.next = due > sim_.now() ? due : sim_.now();
      lane_.seq = sim_.take_seq();
      sim_.lane_updated();
    }
  }

 private:
  Simulator& sim_;
  PeriodicLane lane_;
};

}  // namespace hostcc::sim
