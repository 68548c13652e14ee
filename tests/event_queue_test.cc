// Unit tests for the discrete-event queue and simulator.
#include "sim/event_queue.h"
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "alloc_hook.h"
#include "net/packet.h"
#include "sim/random.h"

namespace hostcc::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(Time::nanoseconds(30), [&] { order.push_back(3); });
  q.push(Time::nanoseconds(10), [&] { order.push_back(1); });
  q.push(Time::nanoseconds(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.push(Time::nanoseconds(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, CancelledEventsNeverFire) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.push(Time::nanoseconds(1), [&] { ++fired; });
  q.push(Time::nanoseconds(2), [&] { ++fired; });
  h.cancel();
  EXPECT_FALSE(h.pending());
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, SizeSkipsCancelled) {
  EventQueue q;
  EventHandle a = q.push(Time::nanoseconds(1), [] {});
  q.push(Time::nanoseconds(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  a.cancel();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, HandleReportsFiredAsNotPending) {
  EventQueue q;
  EventHandle h = q.push(Time::nanoseconds(1), [] {});
  EXPECT_TRUE(h.pending());
  q.pop().second();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueueTest, NextTimeOfEmptyIsMax) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), Time::max());
}

TEST(EventQueueTest, SizeExactWithBuriedCancellations) {
  // Cancelled entries below the heap top must not be counted (the old
  // tombstone design over-reported until they surfaced).
  EventQueue q;
  q.push(Time::nanoseconds(1), [] {});
  EventHandle b = q.push(Time::nanoseconds(5), [] {});
  EventHandle c = q.push(Time::nanoseconds(9), [] {});
  b.cancel();
  c.cancel();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  auto [when, fn] = q.pop();
  EXPECT_EQ(when, Time::nanoseconds(1));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, SameTimeFifoSurvivesInterleavedCancellation) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> hs;
  for (int i = 0; i < 8; ++i) {
    hs.push_back(q.push(Time::nanoseconds(5), [&order, i] { order.push_back(i); }));
  }
  hs[0].cancel();
  hs[3].cancel();
  for (int i = 8; i < 12; ++i) {
    q.push(Time::nanoseconds(5), [&order, i] { order.push_back(i); });
  }
  hs[6].cancel();
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 7, 8, 9, 10, 11}));
}

TEST(EventQueueTest, StaleHandleAfterFireAndSlotReuseIsNoOp) {
  EventQueue q;
  int fired = 0;
  EventHandle stale = q.push(Time::nanoseconds(1), [&] { ++fired; });
  q.pop().second();  // fires; the slot returns to the free list
  EXPECT_EQ(fired, 1);
  // The recycled slot now hosts a different event; the stale handle's
  // generation no longer matches, so cancel() must not touch it.
  EventHandle fresh = q.push(Time::nanoseconds(2), [&] { ++fired; });
  stale.cancel();
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, StaleHandleAfterCancelAndSlotReuseIsNoOp) {
  EventQueue q;
  int fired = 0;
  EventHandle stale = q.push(Time::nanoseconds(1), [&] { ++fired; });
  stale.cancel();
  EXPECT_EQ(q.size(), 0u);
  // Surfacing the dead entry recycles its slot...
  EXPECT_EQ(q.next_time(), Time::max());
  // ...so the next push reuses it under a newer generation.
  EventHandle fresh = q.push(Time::nanoseconds(2), [&] { ++fired; });
  stale.cancel();  // stale generation: no-op
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelReleasesCapturesImmediately) {
  EventQueue q;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  EventHandle h = q.push(Time::nanoseconds(1), [token = std::move(token)] {});
  EXPECT_FALSE(watch.expired());
  h.cancel();
  EXPECT_TRUE(watch.expired());  // captures destroyed at cancel, not at pop
}

TEST(EventQueueTest, SteadyStatePushPopDoesNotAllocate) {
  EventQueue q;
  net::PacketPool pool;
  net::PacketRef pkt = pool.make();
  pkt->payload = 4000;
  int sink = 0;
  const auto make_event = [&sink, pkt] { sink += static_cast<int>(pkt->payload); };
  // The datapath's common capture shape — a pooled ref plus a few words —
  // must stay within the event pool's inline storage...
  static_assert(EventFn::fits_inline<decltype(make_event)>);
  // ...while a by-value Packet capture deliberately does NOT fit anymore:
  // the slab slot was shrunk when the datapath moved to PacketRef, and a
  // regression back to struct captures would silently heap-allocate.
  const auto by_value = [&sink, p = net::Packet{}] { sink += static_cast<int>(p.payload); };
  static_assert(!EventFn::fits_inline<decltype(by_value)>);

  std::vector<EventHandle> hs;
  hs.reserve(64);
  const auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      hs.clear();
      for (int i = 0; i < 256; ++i) {
        EventHandle h = q.push(Time::nanoseconds(i % 61), make_event);
        if (i % 4 == 0) hs.push_back(h);  // exercise cancellation too
      }
      for (EventHandle& h : hs) h.cancel();
      while (!q.empty()) q.pop().second();
    }
  };
  churn(4);  // warm the slab and the heap vector up to capacity

  hostcc::testing::reset_alloc_count();
  hostcc::testing::set_alloc_counting(true);
  churn(8);
  hostcc::testing::set_alloc_counting(false);
  EXPECT_EQ(hostcc::testing::alloc_count(), 0u)
      << "event push/pop/cancel hit the heap at steady state";
  EXPECT_GT(sink, 0);
}

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> times;
  sim.after(Time::microseconds(3), [&] { times.push_back(sim.now().us()); });
  sim.after(Time::microseconds(1), [&] { times.push_back(sim.now().us()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.after(Time::microseconds(1), [&] { ++fired; });
  sim.after(Time::microseconds(10), [&] { ++fired; });
  sim.run_until(Time::microseconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::microseconds(5));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunLeavesClockAtLastEventAndCanResume) {
  Simulator sim;
  sim.run();  // nothing scheduled: the clock does not move
  EXPECT_EQ(sim.now(), Time::zero());
  sim.after(Time::microseconds(3), [] {});
  sim.run();
  EXPECT_EQ(sim.now(), Time::microseconds(3));
  // A later after() lands relative to the last event, not Time::max().
  Time fired_at;
  sim.after(Time::microseconds(2), [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, Time::microseconds(5));
  EXPECT_EQ(sim.now(), Time::microseconds(5));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.after(Time::nanoseconds(1), recurse);
  };
  sim.after(Time::nanoseconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
}

TEST(PeriodicTimerTest, FiresAtPeriodUntilStopped) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer t(sim, Time::microseconds(10), [&] { ++fired; });
  t.start();
  sim.run_until(Time::microseconds(35));
  EXPECT_EQ(fired, 3);
  t.stop();
  sim.run_until(Time::microseconds(100));
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTimerTest, SetPeriodReArmsThePendingTick) {
  Simulator sim;
  std::vector<double> fire_us;
  PeriodicTimer t(sim, Time::microseconds(10), [&] { fire_us.push_back(sim.now().us()); });
  t.start();  // first tick armed for t = 10us
  sim.run_until(Time::microseconds(2));
  // Shrinking the period mid-flight must not wait out the old tick: the
  // next fire moves to (arm time 0 + 4us) = 4us, then every 4us.
  t.set_period(Time::microseconds(4));
  sim.run_until(Time::microseconds(13));
  EXPECT_EQ(fire_us, (std::vector<double>{4.0, 8.0, 12.0}));
}

TEST(PeriodicTimerTest, SetPeriodAlreadyDueFiresImmediately) {
  Simulator sim;
  std::vector<double> fire_us;
  PeriodicTimer t(sim, Time::microseconds(10), [&] { fire_us.push_back(sim.now().us()); });
  t.start();
  sim.run_until(Time::microseconds(8));
  t.set_period(Time::microseconds(5));  // due instant (5us) already passed
  sim.run_until(Time::microseconds(20));
  EXPECT_EQ(fire_us, (std::vector<double>{8.0, 13.0, 18.0}));
}

TEST(PeriodicTimerTest, SetPeriodGrowsThePendingInterval) {
  Simulator sim;
  std::vector<double> fire_us;
  PeriodicTimer t(sim, Time::microseconds(5), [&] { fire_us.push_back(sim.now().us()); });
  t.start();
  sim.run_until(Time::microseconds(2));
  t.set_period(Time::microseconds(20));
  sim.run_until(Time::microseconds(45));
  EXPECT_EQ(fire_us, (std::vector<double>{20.0, 40.0}));
}

TEST(PeriodicTimerTest, StopInsideCallbackIsSafe) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer* tp = nullptr;
  PeriodicTimer t(sim, Time::microseconds(1), [&] {
    if (++fired == 2) tp->stop();
  });
  tp = &t;
  t.start();
  sim.run_until(Time::milliseconds(1));
  EXPECT_EQ(fired, 2);
}


TEST(PeriodicTimerTest, SleepingLaneStopsDispatchButKeepsItsCadence) {
  Simulator sim;
  std::vector<double> fire_us;
  PeriodicTimer t(sim, Time::microseconds(10), [&] { fire_us.push_back(sim.now().us()); });
  t.start();
  sim.run_until(Time::microseconds(15));
  t.sleep();
  sim.run_until(Time::microseconds(52));  // ticks at 20..50 fire asleep
  EXPECT_EQ(t.skipped(), 4u);
  EXPECT_EQ(sim.events_executed(), 1u);
  t.wake();
  sim.run_until(Time::microseconds(70));
  EXPECT_EQ(fire_us, (std::vector<double>{10.0, 60.0, 70.0}));
  EXPECT_EQ(t.take_skipped(), 4u);
  EXPECT_EQ(t.skipped(), 0u);
}

TEST(SimulatorTest, RunReturnsWhenOnlySleepingLanesRemain) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer* tp = nullptr;
  PeriodicTimer t(sim, Time::microseconds(1), [&] {
    if (++fired == 3) tp->sleep();  // from inside its own tick
  });
  tp = &t;
  t.start();
  sim.after(Time::microseconds(7) + Time::picoseconds(1), [] {});
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.now(), Time::microseconds(7) + Time::picoseconds(1));
  EXPECT_EQ(t.skipped(), 4u);  // 4..7us, caught up before the last event
  t.wake();
  sim.run_until(Time::microseconds(9));
  EXPECT_EQ(fired, 5);
}

// Differential check of sleeping lanes against lanes that stay awake and
// run no-op ticks while "asleep". Random heap events land on and off the
// lanes' tick grid, so ties between a lane tick and a heap event are
// common; lanes sleep and wake at random from heap events, from other
// lanes' ticks, from inside their own tick and between run_until() calls,
// and are stopped, restarted and re-periodized. Every dispatched
// (time, id) must match between the two runs, and every no-op tick of the
// reference must be a skipped tick of the sleeping run.
class SleepDifferential {
 public:
  SleepDifferential(std::uint64_t seed, bool sleep_for_real, bool mixed_periods)
      : rng_(seed), real_(sleep_for_real), mixed_(mixed_periods) {
    for (int i = 0; i < kLanes; ++i) {
      lanes_.push_back(std::make_unique<PeriodicTimer>(sim_, period_of(i, false),
                                                       [this, i] { tick(i); }));
    }
    asleep_.assign(kLanes, false);
    noop_ticks_.assign(kLanes, 0);
  }

  void run() {
    for (auto& l : lanes_) l->start();
    for (int i = 0; i < 40; ++i) schedule();
    Time t = Time::zero();
    while (t < kHorizon) {
      // Deadlines land on the grid about half of the time.
      t = t + Time::picoseconds(rng_.uniform_int(0, 1) == 0 ? kGrid * rng_.uniform_int(1, 40)
                                                            : rng_.uniform_int(1, 4000));
      sim_.run_until(t);
      if (rng_.uniform_int(0, 2) == 0) act();  // from outside the run loop
      schedule();
    }
    sim_.run_until(kHorizon + Time::picoseconds(kGrid * 20));
  }

  std::vector<std::tuple<std::int64_t, int>> log;
  std::uint64_t events() const { return sim_.events_executed(); }
  std::uint64_t skipped(int lane) const { return lanes_[lane]->skipped() + taken_[lane]; }
  std::uint64_t noop_ticks(int lane) const { return noop_ticks_[lane]; }
  static constexpr int kLanes = 4;

 private:
  static constexpr std::int64_t kGrid = 100;
  static constexpr Time kHorizon = Time::picoseconds(400000);

  Time period_of(int lane, bool alt) const {
    const std::int64_t base = mixed_ && lane == kLanes - 1 ? 3 * kGrid / 2 : kGrid;
    return Time::picoseconds(alt ? 2 * base : base);
  }

  void tick(int i) {
    if (!real_ && asleep_[i]) {
      ++noop_ticks_[i];
      return;
    }
    log.emplace_back(sim_.now().ps(), -1 - i);
    const std::int64_t r = rng_.uniform_int(0, 9);
    if (r == 0) {
      set_asleep(i, true);  // put itself to sleep
    } else if (r == 1) {
      set_asleep(i, true);
      set_asleep(i, false);  // and straight back
    } else if (r <= 3) {
      act();
    }
    if (rng_.uniform_int(0, 3) == 0) schedule();
  }

  void event(int id) {
    log.emplace_back(sim_.now().ps(), id);
    if (rng_.uniform_int(0, 2) == 0) act();
    const std::int64_t n = rng_.uniform_int(0, 2);
    for (std::int64_t k = 0; k < n; ++k) schedule();
  }

  void schedule() {
    if (next_id_ >= 6000) return;
    const std::int64_t now = sim_.now().ps();
    std::int64_t when = now;
    switch (rng_.uniform_int(0, 3)) {
      case 0: break;  // same instant
      case 1: when += rng_.uniform_int(1, kGrid - 1); break;
      case 2: when = (now / kGrid + 1 + rng_.uniform_int(0, 30)) * kGrid; break;  // on the grid
      default: when += rng_.uniform_int(1, 5000); break;
    }
    const int id = next_id_++;
    sim_.at(Time::picoseconds(when), [this, id] { event(id); });
  }

  // One random lane operation.
  void act() {
    const int i = static_cast<int>(rng_.uniform_int(0, kLanes - 1));
    switch (rng_.uniform_int(0, 9)) {
      case 0:
        lanes_[i]->stop();
        asleep_[i] = false;
        break;
      case 1:
        if (!lanes_[i]->running()) lanes_[i]->start();
        break;
      case 2: {
        // With equal periods every lane changes at once, so they stay equal.
        const bool alt = lanes_[i]->period() == period_of(i, false);
        if (mixed_) {
          lanes_[i]->set_period(period_of(i, alt));
        } else {
          for (int j = 0; j < kLanes; ++j) lanes_[j]->set_period(period_of(j, alt));
        }
        break;
      }
      default:
        set_asleep(i, !asleep_[i]);
        break;
    }
  }

  void set_asleep(int i, bool on) {
    if (!lanes_[i]->running() || asleep_[i] == on) return;
    asleep_[i] = on;
    if (!real_) return;
    if (on) {
      lanes_[i]->sleep();
    } else {
      lanes_[i]->wake();
      taken_[i] += lanes_[i]->take_skipped();
    }
  }

  Simulator sim_;
  Rng rng_;
  bool real_;
  bool mixed_;
  std::vector<std::unique_ptr<PeriodicTimer>> lanes_;
  std::vector<bool> asleep_;
  std::vector<std::uint64_t> noop_ticks_;
  std::uint64_t taken_[kLanes] = {};
  int next_id_ = 0;
};

void expect_sleep_matches_noop_ticks(bool mixed_periods) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SleepDifferential asleep(seed, true, mixed_periods);
    SleepDifferential awake(seed, false, mixed_periods);
    asleep.run();
    awake.run();
    ASSERT_GT(asleep.log.size(), 1000u) << "seed " << seed;
    const auto diverged = std::mismatch(asleep.log.begin(), asleep.log.end(), awake.log.begin(),
                                        awake.log.end());
    ASSERT_TRUE(diverged.first == asleep.log.end() && diverged.second == awake.log.end())
        << "seed " << seed << ": logs diverge at entry " << (diverged.first - asleep.log.begin());
    std::uint64_t noop = 0;
    for (int i = 0; i < SleepDifferential::kLanes; ++i) {
      EXPECT_EQ(asleep.skipped(i), awake.noop_ticks(i)) << "seed " << seed << " lane " << i;
      noop += awake.noop_ticks(i);
    }
    EXPECT_GT(noop, 100u) << "seed " << seed;
    EXPECT_EQ(asleep.events() + noop, awake.events()) << "seed " << seed;
  }
}

TEST(SleepingLaneDifferentialTest, EqualPeriodsDispatchLikeNoOpTicks) {
  expect_sleep_matches_noop_ticks(false);
}

TEST(SleepingLaneDifferentialTest, MixedPeriodsDispatchLikeNoOpTicks) {
  expect_sleep_matches_noop_ticks(true);
}

}  // namespace
}  // namespace hostcc::sim
