// Unit tests for individual host-substrate components: MBA throttle, MSR
// bank, memory controller, DDIO model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <string>

#include "apps/mem_app.h"
#include "host/config.h"
#include "host/cpu.h"
#include "host/ddio.h"
#include "host/host.h"
#include "host/iio.h"
#include "host/mba.h"
#include "host/memctrl.h"
#include "host/msr.h"
#include "host/pcie.h"
#include "host/tx.h"
#include "net/packet.h"
#include "sim/ewma.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace hostcc::host {
namespace {

// ------------------------------------------------------------------- MBA

TEST(MbaTest, LevelChangeTakesEffectAfterMsrWriteLatency) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  mba.request_level(2);
  EXPECT_EQ(mba.effective_level(), 0);
  sim.run_until(sim::Time::microseconds(21));
  EXPECT_EQ(mba.effective_level(), 0);  // still in flight
  sim.run_until(sim::Time::microseconds(23));
  EXPECT_EQ(mba.effective_level(), 2);
}

TEST(MbaTest, ConcurrentRequestsCoalesceToLatest) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  mba.request_level(1);
  mba.request_level(3);  // while the first write is in flight
  sim.run_until(sim::Time::microseconds(23));
  EXPECT_EQ(mba.effective_level(), 1);  // first write lands first
  sim.run_until(sim::Time::microseconds(45));
  EXPECT_EQ(mba.effective_level(), 3);  // follow-up write applies the latest
  EXPECT_EQ(mba.msr_writes_issued(), 2);
}

TEST(MbaTest, RapidChurnCoalescesWithoutIntermediateLevels) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  std::vector<int> applied;
  mba.set_on_level_change([&](int lvl) { applied.push_back(lvl); });
  // A burst of requests while the first write is in flight must collapse
  // to exactly one follow-up write for the most recent level — the
  // skipped intermediates (4, 3) never become effective.
  mba.request_level(1);
  mba.request_level(4);
  mba.request_level(3);
  mba.request_level(2);
  sim.run_until(sim::Time::microseconds(23));
  EXPECT_EQ(mba.effective_level(), 1);
  sim.run_until(sim::Time::microseconds(60));
  EXPECT_EQ(mba.effective_level(), 2);
  EXPECT_EQ(mba.msr_writes_issued(), 2);
  EXPECT_EQ(applied, (std::vector<int>{1, 2}));
  // A second burst: the first request starts a write immediately (the
  // actuator is idle), the second coalesces behind it.
  mba.request_level(4);
  mba.request_level(0);
  sim.run_until(sim::Time::microseconds(120));
  EXPECT_EQ(mba.effective_level(), 0);
  EXPECT_EQ(mba.msr_writes_issued(), 4);
  EXPECT_EQ(applied, (std::vector<int>{1, 2, 4, 0}));
}

TEST(MbaTest, OutOfRangeRequestsClampAndCount) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  mba.request_level(9);  // buggy policy: clamp, count, keep running
  sim.run_until(sim::Time::microseconds(25));
  EXPECT_EQ(mba.effective_level(), MbaThrottle::kMaxLevel);
  EXPECT_EQ(mba.out_of_range_requests(), 1u);
  mba.request_level(-2);
  sim.run_until(sim::Time::microseconds(50));
  EXPECT_EQ(mba.effective_level(), MbaThrottle::kMinLevel);
  EXPECT_EQ(mba.out_of_range_requests(), 2u);
}

TEST(MbaTest, PauseLevelHasNoAddedLatencyButPauses) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  mba.request_level(MbaThrottle::kMaxLevel);
  sim.run_until(sim::Time::microseconds(25));
  EXPECT_TRUE(mba.paused());
  EXPECT_EQ(mba.added_latency(), sim::Time::zero());
}

TEST(MbaTest, LatencyMonotoneInLevel) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  sim::Time prev = sim::Time::zero();
  for (int l = 0; l <= 3; ++l) {
    mba.request_level(l);
    sim.run_until(sim.now() + sim::Time::microseconds(25));
    EXPECT_GE(mba.added_latency(), prev) << "level " << l;
    prev = mba.added_latency();
  }
}

TEST(MbaTest, ObserverFiresOnEffectiveChange) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  int observed = -1;
  mba.set_on_level_change([&](int l) { observed = l; });
  mba.request_level(2);
  sim.run();
  EXPECT_EQ(observed, 2);
}

// ------------------------------------------------------------------- MSR

TEST(MsrTest, OccupancyIntegratesOverTime) {
  sim::Simulator sim;
  HostConfig cfg;
  MsrBank msrs(sim, cfg);
  // 80 lines held for 2us at 500MHz: ROCC += 80 * 2e-6 * 5e8 = 80000.
  sim.after(sim::Time::microseconds(2), [&] { msrs.integrate_occupancy(sim.now(), 80.0); });
  sim.run();
  EXPECT_NEAR(msrs.rocc_raw(), 80000.0, 1.0);
}

TEST(MsrTest, ReadLatenciesMatchConfig) {
  sim::Simulator sim;
  HostConfig cfg;
  MsrBank msrs(sim, cfg);
  double total = 0.0;
  for (int i = 0; i < 1000; ++i) total += msrs.read_rocc().latency.ns();
  EXPECT_NEAR(total / 1000.0, cfg.msr_read_latency_mean.ns(), 30.0);
  EXPECT_EQ(msrs.read_tsc().latency, cfg.tsc_read_latency);
}

TEST(MsrTest, InsertionsAccumulate) {
  sim::Simulator sim;
  HostConfig cfg;
  MsrBank msrs(sim, cfg);
  msrs.count_insertions(10.0);
  msrs.count_insertions(5.5);
  EXPECT_DOUBLE_EQ(msrs.rins_raw(), 15.5);
}

// ------------------------------------------------- memory controller

class FixedSource : public MemSource {
 public:
  FixedSource(std::string name, double demand_per_quantum, double pressure)
      : name_(std::move(name)), demand_(demand_per_quantum), pressure_(pressure) {}
  std::string name() const override { return name_; }
  Offer mem_offer(sim::Time, sim::Time) override { return {demand_, pressure_}; }
  void mem_granted(sim::Time, double b) override { granted += b; }
  double granted = 0.0;

 private:
  std::string name_;
  double demand_;
  double pressure_;
};

TEST(MemControllerTest, UnderloadedGrantsAllDemands) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  // Capacity per 100ns quantum = 44e9 * 100e-9 = 4400 bytes.
  FixedSource a("a", 1000, 1000), b("b", 2000, 500);
  mc.add_source(&a, true);
  mc.add_source(&b, false);
  sim.run_until(sim::Time::microseconds(10));  // 100 quanta
  EXPECT_NEAR(a.granted, 100 * 1000.0, 1500.0);
  EXPECT_NEAR(b.granted, 100 * 2000.0, 2500.0);
}

TEST(MemControllerTest, OverloadSharesProportionalToPressure) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource a("a", 10000, 3000), b("b", 10000, 1000);
  mc.add_source(&a, false);
  mc.add_source(&b, false);
  sim.run_until(sim::Time::microseconds(100));
  // Total granted per quantum = 4400; split 3:1.
  EXPECT_NEAR(a.granted / b.granted, 3.0, 0.05);
  EXPECT_NEAR(a.granted + b.granted, 1000 * 4400.0, 80000.0);
}

TEST(MemControllerTest, LeftoverRedistributedToHungrySources) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  // a has high pressure but tiny demand; b should soak up the rest.
  FixedSource a("a", 100, 100000), b("b", 100000, 100);
  mc.add_source(&a, false);
  mc.add_source(&b, false);
  sim.run_until(sim::Time::microseconds(100));
  EXPECT_NEAR(a.granted, 1000 * 100.0, 2000.0);
  EXPECT_NEAR(b.granted, 1000 * 4300.0, 50000.0);
}

TEST(MemControllerTest, UtilizationTracksLoad) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource a("a", 2200, 2200);  // half capacity
  mc.add_source(&a, false);
  sim.run_until(sim::Time::microseconds(100));
  EXPECT_NEAR(mc.utilization(), 0.5, 0.05);
}

TEST(MemControllerTest, LatencyRisesWithUtilization) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource low("low", 800, 800);
  mc.add_source(&low, false);
  sim.run_until(sim::Time::microseconds(50));
  const sim::Time l_low = mc.access_latency();
  FixedSource high("high", 8000, 8000);
  mc.add_source(&high, false);
  sim.run_until(sim::Time::microseconds(150));
  EXPECT_GT(mc.access_latency(), l_low);
  EXPECT_GT(mc.overload(), 1.0);  // offered demand exceeds capacity
}

TEST(MemControllerTest, HostLocalShareSeparatesClasses) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource net("net", 1100, 1100), local("local", 1100, 1100);
  mc.add_source(&net, true);
  mc.add_source(&local, false);
  sim.run_until(sim::Time::microseconds(100));
  EXPECT_NEAR(mc.host_local_share(), 0.25, 0.04);  // local = 11GB/s of 44
}

TEST(MemControllerTest, CheckpointReportsPerSourceRates) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource a("a", 1100, 1100);
  mc.add_source(&a, true);
  mc.checkpoint(sim.now());
  sim.run_until(sim::Time::milliseconds(1));
  const auto rates = mc.checkpoint(sim.now());
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0].as_gigabytes_per_sec(), 11.0, 0.5);
}

// ------------------------------------------- memory controller: idle path

// A source whose offer the test sets. It counts polls, and give() reports
// new work through the wake hook as a network-path source must.
class SwitchedSource : public MemSource {
 public:
  std::string name() const override { return "switched"; }
  Offer mem_offer(sim::Time, sim::Time) override {
    ++polls;
    return offer;
  }
  void mem_granted(sim::Time, double b) override { granted += b; }
  void give(double bytes) {
    offer = {bytes, bytes};
    mem_wake();
  }
  Offer offer;
  int polls = 0;
  double granted = 0.0;
};

// Quanta tick at multiples of mc_quantum from t = 0; tests step from
// half-quantum offsets so that every wake lands strictly between ticks.
void run_quanta(sim::Simulator& sim, const HostConfig& cfg, double k) {
  sim.run_until(sim.now() + cfg.mc_quantum * k);
}

// Schedules `fn` just after the first quantum tick that follows now.
void after_next_tick(sim::Simulator& sim, const HostConfig& cfg, std::function<void()> fn) {
  const std::int64_t q = cfg.mc_quantum.ps();
  const std::int64_t next_tick = (sim.now().ps() / q + 1) * q;
  sim.at(sim::Time::picoseconds(next_tick + 1), std::move(fn));
}

net::PacketRef test_packet(net::PacketPool& pool, sim::Bytes payload, net::FlowId flow = 1) {
  net::PacketRef p = pool.make();
  p->flow = flow;
  p->payload = payload;
  p->size = payload + net::kHeaderBytes;
  return p;
}

TEST(MemControllerIdleTest, SilentSourceIsNotPolledUntilItWakes) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  SwitchedSource net, local;
  mc.add_source(&net, true);
  mc.add_source(&local, false);
  run_quanta(sim, cfg, 1.5);  // the first quantum polls both: all zero
  EXPECT_EQ(net.polls, 1);
  EXPECT_EQ(local.polls, 1);
  run_quanta(sim, cfg, 20);
  EXPECT_EQ(net.polls, 1);     // idle: known to offer nothing
  EXPECT_EQ(local.polls, 21);  // host-local: polled every quantum

  net.give(1000);
  run_quanta(sim, cfg, 1);
  EXPECT_EQ(net.polls, 2);
  EXPECT_DOUBLE_EQ(net.granted, 1000.0);
  run_quanta(sim, cfg, 5);
  EXPECT_EQ(net.polls, 7);  // busy sources are polled every quantum
  EXPECT_DOUBLE_EQ(net.granted, 6000.0);

  // Withdrawing work needs no wake; the next poll sees it and idles again.
  net.offer = {};
  run_quanta(sim, cfg, 10);
  EXPECT_EQ(net.polls, 8);

  // Unparking returns to polling even without a wake.
  mc.set_quantum_active(false);
  run_quanta(sim, cfg, 3);
  net.offer = {500.0, 500.0};
  mc.set_quantum_active(true);
  run_quanta(sim, cfg, 1);
  EXPECT_EQ(net.polls, 9);
  EXPECT_DOUBLE_EQ(net.granted, 6500.0);
}

TEST(MemControllerIdleTest, IioMemoryInsertIsServedNextQuantum) {
  sim::Simulator sim;
  HostConfig cfg;
  cfg.iio_admit_latency = sim::Time::zero();  // eligible at once
  MemoryController mc(sim, cfg);
  MsrBank msrs(sim, cfg);
  PcieLink pcie(sim, cfg);
  IioBuffer iio(sim, cfg, msrs, pcie);
  iio.set_memctrl(&mc);
  mc.add_source(&iio, true);
  int delivered = 0;
  iio.set_deliver([&](net::PacketRef, bool) { ++delivered; });
  run_quanta(sim, cfg, 10.5);

  net::PacketPool pool;
  iio.insert(test_packet(pool, 1000), 1024, /*to_memory=*/true, /*eviction=*/false,
             /*last_chunk=*/true);
  run_quanta(sim, cfg, 1);
  EXPECT_EQ(mc.granted_bytes(0), 1024);
  EXPECT_EQ(delivered, 1);
}

TEST(MemControllerIdleTest, CpuDeliverIsServedNextQuantum) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  LlcDdio ddio(cfg, sim::Rng(1));
  CpuComplex cpu(sim, cfg, mc, ddio);
  mc.add_source(&cpu, true);
  run_quanta(sim, cfg, 10.5);
  EXPECT_EQ(mc.queue_wait(), sim::Time::zero());

  net::PacketPool pool;
  cpu.deliver(test_packet(pool, 4000), /*from_llc=*/false);
  run_quanta(sim, cfg, 1);
  // Polled: the busy core's outstanding requests are resident pressure.
  EXPECT_GT(mc.queue_wait(), sim::Time::zero());
}

TEST(MemControllerIdleTest, CopyBacklogGrowthIsServedNextQuantum) {
  sim::Simulator sim;
  HostConfig cfg;
  cfg.cpu_mem_stalls_per_byte = 0.0;  // a busy core puts no pressure on DRAM
  MemoryController mc(sim, cfg);
  LlcDdio ddio(cfg, sim::Rng(1));
  CpuComplex cpu(sim, cfg, mc, ddio);
  mc.add_source(&cpu, true);
  // The copy traffic appears as processing finishes; the first tick after
  // that serves it.
  sim::Bytes at_finish = -1;
  sim::Bytes after_tick = -1;
  cpu.set_stack_rx([&](net::Packet&) {
    at_finish = mc.granted_bytes(0);
    after_next_tick(sim, cfg, [&] { after_tick = mc.granted_bytes(0); });
  });
  run_quanta(sim, cfg, 10.5);

  net::PacketPool pool;
  cpu.deliver(test_packet(pool, 4000), /*from_llc=*/false);
  run_quanta(sim, cfg, 100);
  EXPECT_EQ(at_finish, 0);
  EXPECT_GT(after_tick, 0);
}

TEST(MemControllerIdleTest, TxSendIsServedNextQuantum) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  TxPath tx(cfg);
  mc.add_source(&tx, true);
  int out = 0;
  tx.set_egress([&](const net::Packet&) { ++out; });
  run_quanta(sim, cfg, 10.5);

  net::Packet p;
  p.size = 4096;
  p.payload = 4096 - net::kHeaderBytes;
  tx.send(p);
  EXPECT_EQ(out, 0);  // needs its DMA-read budget first
  run_quanta(sim, cfg, 1);
  EXPECT_EQ(out, 1);
}

TEST(MemControllerIdleTest, MappUnpausedFromMbaLevel4IsServedNextQuantum) {
  sim::Simulator sim;
  HostModel host(sim, HostConfig{}, "h");
  const HostConfig& cfg = host.config();
  apps::MemApp mapp(host, 8);
  const std::size_t mapp_idx = host.memctrl().source_count() - 1;
  sim::Bytes at_unpause = -1;
  sim::Bytes after_tick = -1;
  host.mba().set_on_level_change([&](int level) {
    if (level != 0) return;
    at_unpause = host.memctrl().granted_bytes(mapp_idx);
    after_next_tick(sim, cfg, [&] { after_tick = host.memctrl().granted_bytes(mapp_idx); });
  });

  host.mba().request_level(MbaThrottle::kMaxLevel);
  while (!host.mba().paused()) run_quanta(sim, cfg, 1);
  run_quanta(sim, cfg, 50);  // the in-service slots drain
  const sim::Bytes paused_bytes = host.memctrl().granted_bytes(mapp_idx);
  run_quanta(sim, cfg, 100);
  EXPECT_EQ(host.memctrl().granted_bytes(mapp_idx), paused_bytes);

  run_quanta(sim, cfg, 0.5);  // the MSR write then lands between ticks
  host.mba().request_level(0);
  while (host.mba().paused()) run_quanta(sim, cfg, 1);
  run_quanta(sim, cfg, 2);
  EXPECT_EQ(at_unpause, paused_bytes);
  EXPECT_GT(after_tick, paused_bytes);
}

// The memory controller's extra device latency for a smoothed utilization,
// written out independently of MemoryController.
sim::Time dram_extra_latency(double util) {
  const auto& c = HostConfig::kDramExtraCurve;
  constexpr std::size_t n = std::size(c);
  const double u = std::clamp(util, c[0].util, c[n - 1].util);
  for (std::size_t i = 1; i < n; ++i) {
    if (u <= c[i].util) {
      const double f = (u - c[i - 1].util) / (c[i].util - c[i - 1].util);
      return sim::Time::nanoseconds(c[i - 1].extra_ns + f * (c[i].extra_ns - c[i - 1].extra_ns));
    }
  }
  return sim::Time::nanoseconds(c[n - 1].extra_ns);
}

TEST(MemControllerIdleTest, IdleQuantaMatchZeroSampleEwmaUpdatesBitForBit) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  SwitchedSource a;
  mc.add_source(&a, true);
  a.give(3000);
  run_quanta(sim, cfg, 200.5);
  a.offer = {};

  // Reference EWMAs seeded with the controller's state after the last
  // loaded quantum (overload() is the raw smoothed utilization).
  sim::Ewma util(cfg.mc_util_ewma_weight);
  util.add(mc.overload());
  sim::Ewma rate(0.02);
  rate.add(mc.granted_rate(0).bits_per_sec());
  ASSERT_GT(util.value(), 0.5);
  ASSERT_GT(rate.value(), 1e11);

  // 60k quanta decay every value through the subnormal range to 0.
  for (int k = 1; k <= 60000; ++k) {
    run_quanta(sim, cfg, 1);
    util.add(0.0);
    rate.add(0.0);
    ASSERT_EQ(mc.overload(), util.value()) << "k=" << k;
    ASSERT_EQ(mc.utilization(), std::clamp(util.value(), 0.0, 1.0)) << "k=" << k;
    ASSERT_EQ(mc.granted_rate(0).bits_per_sec(), rate.value()) << "k=" << k;
    ASSERT_EQ(mc.extra_latency(), dram_extra_latency(util.value())) << "k=" << k;
    ASSERT_EQ(mc.queue_wait(), sim::Time::zero()) << "k=" << k;
  }
  EXPECT_EQ(a.polls, 201);
  EXPECT_EQ(mc.overload(), 0.0);
  EXPECT_EQ(mc.granted_rate(0).bits_per_sec(), 0.0);
}

// Two controllers with one history: `sleeper` has two network-path
// sources, so once idle its lane sleeps and its quanta are replayed on the
// next read; `ticker` has the same sources plus a silent host-local one,
// which keeps its lane dispatching every idle quantum (a poll that finds
// nothing applies the same zero-sample decay).
struct SleepPair {
  struct Side {
    explicit Side(const HostConfig& cfg, bool keep_ticking) : mc(sim, cfg) {
      mc.add_source(&a, true);
      mc.add_source(&b, true);
      if (keep_ticking) mc.add_source(&silent, false);
    }
    sim::Simulator sim;
    MemoryController mc;
    SwitchedSource a, b, silent;
  };
  HostConfig cfg;
  Side sleeper{cfg, false};
  Side ticker{cfg, true};

  template <typename F>
  void both(F f) {
    f(sleeper);
    f(ticker);
  }
  void run(double quanta) {
    both([&](Side& s) { run_quanta(s.sim, cfg, quanta); });
  }
  // Loads both controllers, then withdraws every offer.
  void load_then_idle() {
    both([](Side& s) {
      s.a.give(3000);
      s.b.give(1500);
    });
    run(200.5);
    both([](Side& s) {
      s.a.offer = {};
      s.b.offer = {};
    });
  }
};

// Every accessor of smoothed state, bit for bit.
void expect_same_smoothed_state(SleepPair& p, const std::string& where) {
  const MemoryController& s = p.sleeper.mc;
  const MemoryController& t = p.ticker.mc;
  EXPECT_EQ(s.utilization(), t.utilization()) << where;
  EXPECT_EQ(s.overload(), t.overload()) << where;
  EXPECT_EQ(s.extra_latency(), t.extra_latency()) << where;
  EXPECT_EQ(s.device_latency(), t.device_latency()) << where;
  EXPECT_EQ(s.queue_wait(), t.queue_wait()) << where;
  EXPECT_EQ(s.access_latency(), t.access_latency()) << where;
  EXPECT_EQ(s.source_wait(&p.sleeper.a), t.source_wait(&p.ticker.a)) << where;
  EXPECT_EQ(s.source_wait(&p.sleeper.b), t.source_wait(&p.ticker.b)) << where;
  EXPECT_EQ(s.host_local_share(), t.host_local_share()) << where;
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(s.granted_rate(i).bits_per_sec(), t.granted_rate(i).bits_per_sec()) << where;
    EXPECT_EQ(s.granted_bytes(i), t.granted_bytes(i)) << where;
  }
}

TEST(MemControllerIdleTest, SkippedQuantaReplayedOnReadMatchTickedQuantaBitForBit) {
  for (const int n : {1, 15, 16, 17, 40, 1000, 20000, 60000}) {
    SleepPair p;
    p.load_then_idle();
    const std::uint64_t loaded_events = p.sleeper.sim.events_executed();
    ASSERT_GT(p.sleeper.mc.granted_rate(0).bits_per_sec(), 1e11);
    p.run(n);  // nothing reads either controller meanwhile
    const std::string where = "after " + std::to_string(n) + " idle quanta";
    expect_same_smoothed_state(p, where);
    // The sleeper's lane stopped dispatching after the idle streak.
    const std::uint64_t dispatched = p.sleeper.sim.events_executed() - loaded_events;
    EXPECT_EQ(dispatched, static_cast<std::uint64_t>(std::min(n, 17))) << where;
    EXPECT_EQ(p.ticker.sim.events_executed() - loaded_events, static_cast<std::uint64_t>(n));
  }
}

TEST(MemControllerIdleTest, WakeAtExactQuantumInstantMatchesTickingLane) {
  SleepPair p;
  p.load_then_idle();
  p.run(100);  // the sleeper's lane is asleep
  const sim::Time q = p.cfg.mc_quantum;
  const sim::Time grid = q * std::floor(p.sleeper.sim.now() / q);
  // One wake scheduled long before its instant (it precedes the tick
  // there) and one scheduled after that tick drew its seq (it follows).
  p.both([&](SleepPair::Side& s) {
    s.sim.at(grid + q * 3, [&s] { s.a.give(2000); });
    s.sim.at(grid + q * 7.5, [&s, &q, grid] {
      s.sim.at(grid + q * 9, [&s] { s.b.give(1000); });
    });
  });
  for (int k = 0; k < 14; ++k) {
    p.run(1);
    expect_same_smoothed_state(p, "quantum " + std::to_string(k));
    EXPECT_EQ(p.sleeper.a.polls, p.ticker.a.polls) << "quantum " << k;
    EXPECT_EQ(p.sleeper.b.polls, p.ticker.b.polls) << "quantum " << k;
  }
  EXPECT_GT(p.sleeper.a.granted, 0.0);
  EXPECT_GT(p.sleeper.b.granted, 0.0);
}

TEST(MemControllerIdleTest, ParkWhileAsleepReplaysBeforeStopping) {
  SleepPair p;
  p.load_then_idle();
  p.run(50);  // asleep, with skipped quanta pending
  p.both([](SleepPair::Side& s) { s.mc.set_quantum_active(false); });
  p.run(500);
  expect_same_smoothed_state(p, "parked");
  p.both([](SleepPair::Side& s) {
    s.a.offer = {800.0, 800.0};
    s.mc.set_quantum_active(true);
  });
  for (int k = 0; k < 5; ++k) {
    p.run(1);
    expect_same_smoothed_state(p, "unparked quantum " + std::to_string(k));
  }
  EXPECT_EQ(p.sleeper.a.granted, p.ticker.a.granted);
  EXPECT_GT(p.sleeper.a.granted, 0.0);
}

// ------------------------------------------------------------------ DDIO

TEST(DdioTest, DisabledAlwaysGoesToMemoryWithoutEviction) {
  HostConfig cfg;
  cfg.ddio_enabled = false;
  LlcDdio ddio(cfg, sim::Rng(1));
  for (int i = 0; i < 100; ++i) {
    const auto p = ddio.place(4096, 0.9);
    EXPECT_TRUE(p.to_memory);
    EXPECT_FALSE(p.eviction);
  }
  EXPECT_EQ(ddio.unconsumed(), 0);
}

TEST(DdioTest, EvictionProbabilityGrowsWithPollution) {
  HostConfig cfg;
  cfg.ddio_enabled = true;
  LlcDdio ddio(cfg, sim::Rng(1));
  EXPECT_LT(ddio.eviction_probability(0.0), ddio.eviction_probability(0.5));
  EXPECT_LE(ddio.eviction_probability(0.9), 1.0);
}

TEST(DdioTest, UnconsumedBacklogRaisesEviction) {
  HostConfig cfg;
  cfg.ddio_enabled = true;
  LlcDdio ddio(cfg, sim::Rng(2));
  const double before = ddio.eviction_probability(0.0);
  // Fill half the DDIO ways without consumption.
  sim::Bytes placed = 0;
  while (placed < cfg.ddio_way_bytes / 2) {
    if (!ddio.place(4096, 0.0).to_memory) placed += 4096;
  }
  EXPECT_GT(ddio.eviction_probability(0.0), before + 0.3);
  // Consumption drains the backlog back down.
  ddio.consumed(ddio.unconsumed());
  EXPECT_NEAR(ddio.eviction_probability(0.0), before, 1e-9);
}

TEST(DdioTest, PlacementFrequencyMatchesProbability) {
  HostConfig cfg;
  cfg.ddio_enabled = true;
  cfg.ddio_evict_base = 0.30;
  cfg.ddio_evict_pollution = 0.0;
  cfg.ddio_evict_overflow = 0.0;
  LlcDdio ddio(cfg, sim::Rng(3));
  int evictions = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (ddio.place(64, 0.0).eviction) ++evictions;
    ddio.consumed(ddio.unconsumed());
  }
  EXPECT_NEAR(static_cast<double>(evictions) / n, 0.30, 0.02);
}

}  // namespace
}  // namespace hostcc::host
