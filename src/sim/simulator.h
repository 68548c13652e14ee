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
//
// A lane can also sleep: it stays armed and its ticks keep drawing their
// seqs in order, but they are not dispatched; each one only adds to the
// lane's skipped count, which the owner takes when it next needs its state
// (the memory controller replays the skipped quanta's EWMA decay). Before
// the loop dispatches an entry (t, x), every sleeping tick ordered before
// it is fired this way, so every dispatched callback — and every seq drawn
// by one — is exactly what it was with the lane awake. The catch-up is
// done in bulk: sleeping lanes are caught up before every dispatch, so
// each one's next tick lies within one period of the clock, and k lanes
// sharing a period therefore tick in a fixed cyclic order (their (next,
// seq) order). A lane ranked i that fires c ticks draws its last seq at
// position (c-1)*k + i of that cycle. events_executed() counts dispatched
// callbacks only.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
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
  bool sleeping = false;
  std::size_t sleep_slot = 0;  // index in Simulator::sleeping_ while sleeping
  std::uint64_t skipped = 0;   // ticks fired asleep, not yet taken by the owner
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
  // then fires the sleeping ticks up to `deadline` and advances the clock
  // to it — except for run()'s unbounded deadline, which leaves the clock
  // (and the sleeping lanes) at the last executed event, so a later after()
  // cannot overflow Time.
  void run_until(Time deadline) {
    for (;;) {
      const Time qt = queue_.next_time();  // Time::max() when empty
      PeriodicLane* const lane = next_lane_;
      const bool fire_lane =
          lane != nullptr && lane->next <= deadline &&
          (lane->next < qt || (lane->next == qt && lane->seq < queue_.top_seq()));
      if (fire_lane) {
        if (ticks_before(sleep_next_, sleep_seq_, lane->next, lane->seq)) {
          fire_sleeping(lane->next, lane->seq);
        }
        now_ = lane->next;
        ++events_executed_;
        lane->next = Time::max();  // in-tick marker; stop()/set_period() see "not armed"
        lane->fn();
        if (lane->active && lane->next == Time::max()) {
          lane->armed_at = now_;
          lane->next = now_ + lane->period;
          lane->seq = queue_.take_seq();
          if (lane->sleeping) sleeper_armed(lane);  // put to sleep by its own tick
        }
        refresh_next_lane();
      } else if (!queue_.empty() && qt <= deadline) {
        if (ticks_before(sleep_next_, sleep_seq_, qt, queue_.top_seq())) {
          fire_sleeping(qt, queue_.top_seq());
        }
        now_ = qt;
        ++events_executed_;
        queue_.pop_top_and_run();
      } else {
        break;
      }
    }
    if (deadline == Time::max()) return;
    if (ticks_before(sleep_next_, sleep_seq_, deadline, kThroughInstant)) {
      fire_sleeping(deadline, kThroughInstant);
    }
    if (now_ < deadline) now_ = deadline;
  }

  // Runs until no events remain (sleeping lanes do not keep it running).
  void run() { run_until(Time::max()); }

  bool idle() const { return queue_.empty() && next_lane_ == nullptr; }
  // Dispatched callbacks only: a sleeping lane's ticks are not counted.
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
  void lane_updated(PeriodicLane* lane) {
    if (lane->sleeping) {
      sleeper_armed(lane);
    } else {
      refresh_next_lane();
    }
  }

  // Moves an active lane from the dispatch merge to the sleeping set, or
  // back. Both are O(1) (a woken lane that was the earliest sleeper leaves
  // a stale lower bound, which the next catch-up recomputes), except that
  // putting the earliest awake lane to sleep from outside its own tick
  // rescans the awake lanes.
  void sleep_lane(PeriodicLane* lane) {
    assert(lane->active && !lane->sleeping);
    lane->sleeping = true;
    lane->sleep_slot = sleeping_.size();
    sleeping_.push_back(lane);
    if (lane->next == Time::max()) return;  // inside its own tick: armed after it
    if (next_lane_ == lane) refresh_next_lane();
    sleeper_armed(lane);
  }

  void wake_lane(PeriodicLane* lane) {
    assert(lane->sleeping);
    remove_sleeper(lane);
    if (lane->next == Time::max()) return;  // inside its own tick: re-armed awake
    if (next_lane_ == nullptr ||
        ticks_before(lane->next, lane->seq, next_lane_->next, next_lane_->seq)) {
      next_lane_ = lane;
    }
  }

  // Takes a lane out of the sleeping set (wake, or stop while asleep).
  void remove_sleeper(PeriodicLane* lane) {
    const std::size_t slot = lane->sleep_slot;
    PeriodicLane* const last = sleeping_.back();
    sleeping_[slot] = last;
    last->sleep_slot = slot;
    sleeping_.pop_back();
    if (slot != sleeping_.size()) sleeping_sorted_ = false;
    lane->sleeping = false;
  }

  std::uint64_t take_seq() { return queue_.take_seq(); }

 private:
  // Sleeping catch-up through an instant: every tick at `t` counts as
  // ordered before it, whatever its seq (run_until's deadline).
  static constexpr std::uint64_t kThroughInstant = std::numeric_limits<std::uint64_t>::max();

  static bool ticks_before(Time ta, std::uint64_t sa, Time tb, std::uint64_t sb) {
    return ta < tb || (ta == tb && sa < sb);
  }

  // Caches the earliest armed awake lane so the run loop pays one
  // comparison per event, not a scan. Lanes are few (one per
  // PeriodicTimer) and mutate rarely relative to event dispatch.
  void refresh_next_lane() {
    next_lane_ = nullptr;
    for (PeriodicLane* l : lanes_) {
      if (!l->active || l->sleeping || l->next == Time::max()) continue;
      if (next_lane_ == nullptr || ticks_before(l->next, l->seq, next_lane_->next, next_lane_->seq)) {
        next_lane_ = l;
      }
    }
  }

  // A sleeping lane got a new (next, seq): lower the catch-up bound to it
  // and note whether the set is still in (next, seq) order.
  void sleeper_armed(PeriodicLane* lane) {
    if (lane->next == Time::max()) return;  // in its own tick; the loop re-arms it
    if (ticks_before(lane->next, lane->seq, sleep_next_, sleep_seq_)) {
      sleep_next_ = lane->next;
      sleep_seq_ = lane->seq;
    }
    const std::size_t slot = lane->sleep_slot;
    const bool in_order =
        slot + 1 == sleeping_.size() &&
        (slot == 0 || !ticks_before(lane->next, lane->seq, sleeping_[slot - 1]->next,
                                    sleeping_[slot - 1]->seq));
    if (!in_order) sleeping_sorted_ = false;
  }

  // Fires, without dispatch, every sleeping tick ordered before (t, x),
  // then recomputes the catch-up bound. Lanes of one period are caught up
  // in bulk along their cycle; mixed periods fall back to one tick at a
  // time.
  void fire_sleeping(Time t, std::uint64_t x) {
    if (!sleeping_sorted_) sort_sleeping();
    const std::size_t k = sleeping_.size();
    if (k == 0) {
      sleep_next_ = Time::max();
      return;
    }
    const Time p = sleeping_[0]->period;
    bool one_period = true;
    for (const PeriodicLane* l : sleeping_) one_period = one_period && l->period == p;
    if (one_period) {
      fire_sleeping_cycle(t, x, p);
    } else {
      fire_sleeping_one_by_one(t, x);
    }
    sleep_next_ = sleeping_[0]->next;
    sleep_seq_ = sleeping_[0]->seq;
  }

  // Ticks of one sleeping lane ordered before (t, x): every one strictly
  // before t, plus the one at t if its seq is below x. Only a lane's
  // current tick can tie with an entry at t: a tick armed during the
  // catch-up draws a fresh seq, above every pending entry's.
  static std::int64_t ticks_due(const PeriodicLane* l, Time t, std::uint64_t x, std::int64_t p) {
    const std::int64_t d = (t - l->next).ps();
    if (x == kThroughInstant) return d >= 0 ? d / p + 1 : 0;
    if (d > 0) return (d + p - 1) / p;
    return d == 0 && l->seq < x ? 1 : 0;
  }

  // k lanes of period p, ranked by (next, seq), fire in cycle order: rank
  // i's j-th tick is the (j*k + i)-th of the catch-up. So the first
  // `lead` ranks fire c ticks and the rest c - 1 (or all fire c).
  void fire_sleeping_cycle(Time t, std::uint64_t x, Time p) {
    const std::size_t k = sleeping_.size();
    const std::int64_t ps = p.ps();
    const std::int64_t c = ticks_due(sleeping_[0], t, x, ps);
    if (c == 0) return;
    std::size_t lead = 1;
    while (lead < k && ticks_due(sleeping_[lead], t, x, ps) == c) ++lead;
#ifndef NDEBUG
    for (std::size_t i = lead; i < k; ++i) assert(ticks_due(sleeping_[i], t, x, ps) == c - 1);
#endif
    const std::uint64_t total = static_cast<std::uint64_t>(c) * k - (k - lead);
    const std::uint64_t base = queue_.take_seqs(total);
    for (std::size_t i = 0; i < k; ++i) {
      const std::int64_t n = i < lead ? c : c - 1;
      if (n == 0) break;
      PeriodicLane* l = sleeping_[i];
      l->next = l->next + Time::picoseconds(n * ps);
      l->armed_at = l->next - p;
      l->seq = base + static_cast<std::uint64_t>(n - 1) * k + i;
      l->skipped += static_cast<std::uint64_t>(n);
    }
    // The ranks that fired one tick more now trail the cycle.
    if (lead < k) {
      std::rotate(sleeping_.begin(), sleeping_.begin() + static_cast<std::ptrdiff_t>(lead),
                  sleeping_.end());
      for (std::size_t i = 0; i < k; ++i) sleeping_[i]->sleep_slot = i;
    }
  }

  void fire_sleeping_one_by_one(Time t, std::uint64_t x) {
    for (;;) {
      PeriodicLane* first = sleeping_[0];
      for (PeriodicLane* l : sleeping_) {
        if (ticks_before(l->next, l->seq, first->next, first->seq)) first = l;
      }
      if (!ticks_before(first->next, first->seq, t, x)) break;
      first->armed_at = first->next;
      first->next = first->next + first->period;
      first->seq = queue_.take_seq();
      ++first->skipped;
    }
    sort_sleeping();
  }

  void sort_sleeping() {
    std::sort(sleeping_.begin(), sleeping_.end(), [](const PeriodicLane* a, const PeriodicLane* b) {
      return ticks_before(a->next, a->seq, b->next, b->seq);
    });
    for (std::size_t i = 0; i < sleeping_.size(); ++i) sleeping_[i]->sleep_slot = i;
    sleeping_sorted_ = true;
  }

  Time now_ = Time::zero();
  EventQueue queue_;
  std::uint64_t events_executed_ = 0;
  std::vector<PeriodicLane*> lanes_;
  PeriodicLane* next_lane_ = nullptr;
  // Sleeping lanes, in (next, seq) order unless !sleeping_sorted_, and a
  // lower bound on their earliest tick: the one compare per dispatch.
  std::vector<PeriodicLane*> sleeping_;
  bool sleeping_sorted_ = true;
  Time sleep_next_ = Time::max();
  std::uint64_t sleep_seq_ = 0;
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
    sim_.lane_updated(&lane_);
  }

  // Stops the lane (awake or asleep). Skipped ticks stay for the owner.
  void stop() {
    if (lane_.sleeping) sim_.remove_sleeper(&lane_);
    lane_.active = false;
    lane_.next = Time::max();
    sim_.lane_updated(&lane_);
  }

  bool running() const { return lane_.active; }
  Time period() const { return lane_.period; }

  // Sleep: the lane keeps its cadence and tie order but stops dispatching
  // its callback; each tick it sleeps through adds one to skipped(). May be
  // called from inside the lane's own tick. No-op unless running and awake.
  void sleep() {
    if (lane_.active && !lane_.sleeping) sim_.sleep_lane(&lane_);
  }
  // Resumes dispatch at the lane's next tick, exactly where it would have
  // fired had the lane never slept. No-op unless asleep.
  void wake() {
    if (lane_.sleeping) sim_.wake_lane(&lane_);
  }
  bool sleeping() const { return lane_.sleeping; }

  // Ticks fired asleep since the last take: the owner replays what they
  // would have done.
  std::uint64_t skipped() const { return lane_.skipped; }
  std::uint64_t take_skipped() { return std::exchange(lane_.skipped, 0); }

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
      sim_.lane_updated(&lane_);
    }
  }

 private:
  Simulator& sim_;
  PeriodicLane lane_;
};

}  // namespace hostcc::sim
