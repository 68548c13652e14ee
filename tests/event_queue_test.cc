// Unit tests for the discrete-event queue and simulator.
#include "sim/event_queue.h"
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alloc_hook.h"
#include "net/packet.h"

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

}  // namespace
}  // namespace hostcc::sim
