// Fault-injection harness end to end: plan parsing, injector mechanics,
// per-component fault surfaces, the runtime invariant checker, and the
// acceptance scenario — hostCC degrading gracefully under a fault matrix
// (stalled MSRs + failing MBA writes + a link flap) and recovering once
// the faults clear.
#include <gtest/gtest.h>

#include <vector>

#include "exp/scenario.h"
#include "fabric/fabric_switch.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "faults/invariants.h"
#include "net/link.h"
#include "sim/simulator.h"

namespace hostcc {
namespace {

using faults::FaultKind;
using faults::FaultPlan;
using faults::InvariantClass;

// ------------------------------------------------------------ plan parsing

TEST(FaultPlanTest, ParsesFullGrammar) {
  FaultPlan p;
  EXPECT_FALSE(p.add_spec("msr_stall@500+200:50").has_value());
  EXPECT_FALSE(p.add_spec("msr_freeze@500+200").has_value());
  EXPECT_FALSE(p.add_spec("msr_torn@500+200:0.25").has_value());
  EXPECT_FALSE(p.add_spec("mba_fail@500+0").has_value());
  EXPECT_FALSE(p.add_spec("mba_delay@500+200:8").has_value());
  EXPECT_FALSE(p.add_spec("link_degrade@500+200:0.25:1").has_value());
  ASSERT_EQ(p.events.size(), 6u);
  EXPECT_EQ(p.events[0].kind, FaultKind::kMsrStall);
  EXPECT_EQ(p.events[0].start, sim::Time::microseconds(500));
  EXPECT_EQ(p.events[0].duration, sim::Time::microseconds(200));
  EXPECT_DOUBLE_EQ(p.events[0].param, 50.0);
  EXPECT_EQ(p.events[0].target, -1);
  // Duration 0 = until the end of the run.
  EXPECT_EQ(p.events[3].end(), sim::Time::max());
  EXPECT_DOUBLE_EQ(p.events[5].param, 0.25);
  EXPECT_EQ(p.events[5].target, 1);
  EXPECT_TRUE(p.validate().empty());
}

TEST(FaultPlanTest, SingleFieldIsTargetForParamlessKinds) {
  FaultPlan p;
  // link_down takes no parameter, so ":2" names uplink 2, not a param.
  EXPECT_FALSE(p.add_spec("link_down@500+100:2").has_value());
  EXPECT_FALSE(p.add_spec("port_down@500+100:1").has_value());
  EXPECT_FALSE(p.add_spec("msr_stall@500+100:50").has_value());  // param kind
  ASSERT_EQ(p.events.size(), 3u);
  EXPECT_EQ(p.events[0].target, 2);
  EXPECT_DOUBLE_EQ(p.events[0].param, 0.0);
  EXPECT_EQ(p.events[1].target, 1);
  EXPECT_EQ(p.events[2].target, -1);
  EXPECT_DOUBLE_EQ(p.events[2].param, 50.0);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  FaultPlan p;
  EXPECT_TRUE(p.add_spec("msr_stall500+200").has_value());       // missing @
  EXPECT_TRUE(p.add_spec("bitrot@500+200").has_value());         // unknown kind
  EXPECT_TRUE(p.add_spec("msr_stall@500").has_value());          // missing +dur
  EXPECT_TRUE(p.add_spec("msr_stall@abc+200").has_value());      // bad number
  EXPECT_TRUE(p.add_spec("msr_stall@500+200:50xyz").has_value());  // trailing
  EXPECT_TRUE(p.events.empty());
}

TEST(FaultPlanTest, ValidateFlagsOutOfRangeParams) {
  FaultPlan p;
  EXPECT_FALSE(p.add_spec("msr_torn@500+200:1.5").has_value());  // parses...
  EXPECT_FALSE(p.add_spec("link_degrade@500+200:2.0").has_value());
  const auto errs = p.validate();  // ...but validation rejects
  ASSERT_EQ(errs.size(), 2u);
  EXPECT_NE(errs[0].find("probability"), std::string::npos);
  EXPECT_NE(errs[1].find("rate factor"), std::string::npos);
}

// --------------------------------------------------------------- injector

TEST(FaultInjectorTest, SkipsEventsWithUnattachedTargets) {
  sim::Simulator sim;
  FaultPlan plan;
  ASSERT_FALSE(plan.add_spec("link_down@10+10:7").has_value());
  ASSERT_FALSE(plan.add_spec("mba_fail@10+10").has_value());
  faults::FaultInjector inj(sim, plan);  // nothing attached
  inj.arm();
  sim.run_until(sim::Time::microseconds(100));
  EXPECT_EQ(inj.activations(), 0u);
  EXPECT_EQ(inj.skipped(), 2u);
}

TEST(FaultInjectorTest, OverlappingWindowsNest) {
  sim::Simulator sim;
  net::Link link(sim, "l", sim::Bandwidth::gbps(100), sim::Time::microseconds(1));
  link.set_sink([](const net::Packet&) {});
  FaultPlan plan;
  ASSERT_FALSE(plan.add_spec("link_down@10+30:0").has_value());
  ASSERT_FALSE(plan.add_spec("link_down@20+40:0").has_value());
  faults::FaultInjector inj(sim, plan);
  inj.attach_link(0, link);
  inj.arm();
  // At t=45 the first window has ended but the second is still open.
  sim.run_until(sim::Time::microseconds(45));
  EXPECT_TRUE(link.down());
  // Both windows closed at t=60.
  sim.run_until(sim::Time::microseconds(70));
  EXPECT_FALSE(link.down());
  EXPECT_EQ(inj.activations(), 2u);
  EXPECT_EQ(inj.deactivations(), 1u);  // nested: only the last edge applies
  EXPECT_EQ(link.flaps(), 1u);         // set_down(true) is idempotent
}

// ------------------------------------------------ component fault surfaces

TEST(LinkFaultTest, CarrierLossQueuesFramesWithoutLoss) {
  sim::Simulator sim;
  net::Link link(sim, "l", sim::Bandwidth::gbps(100), sim::Time::microseconds(1));
  int delivered = 0;
  link.set_sink([&](const net::Packet&) { ++delivered; });
  link.set_down(true);
  for (int i = 0; i < 5; ++i) {
    net::Packet p;
    p.size = 1500;
    link.send(p);
  }
  sim.run_until(sim::Time::microseconds(50));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.queue_len(), 5u);
  link.set_down(false);
  sim.run_until(sim::Time::microseconds(100));
  EXPECT_EQ(delivered, 5);  // nothing lost, only delayed
  EXPECT_EQ(link.queue_len(), 0u);
  EXPECT_EQ(link.flaps(), 1u);
}

TEST(FabricSwitchFaultTest, PortDownDropTailsThenResumes) {
  sim::Simulator sim;
  fabric::FabricSwitchConfig cfg;
  cfg.port_buffer_bytes = 15 * 1500;  // static per-port: 15 frames, then drop-tail
  cfg.buffer_bytes = cfg.port_buffer_bytes;
  fabric::FabricSwitch sw(sim, "sw0", cfg);
  int delivered = 0;
  const int port = sw.add_port("receiver", sim::Bandwidth::gbps(100),
                               [&](const net::PacketRef&) { ++delivered; });
  sw.set_route(0, {port});
  sw.set_port_down(port, true);
  for (int i = 0; i < 20; ++i) {
    net::Packet p;
    p.dst = 0;
    p.size = 1500;
    sw.ingress(p);
  }
  sim.run_until(sim::Time::microseconds(50));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(sw.port_stats(port).drops, 5u);
  sw.set_port_down(port, false);
  sim.run_until(sim::Time::microseconds(100));
  EXPECT_EQ(delivered, 15);
}

// ------------------------------------------------------- invariant checker

exp::ScenarioConfig tiny_config() {
  exp::ScenarioConfig cfg;
  cfg.mapp_degree = 2.0;
  cfg.warmup = sim::Time::milliseconds(2);
  cfg.measure = sim::Time::milliseconds(2);
  return cfg;
}

TEST(InvariantCheckerTest, FaultFreeRunIsClean) {
  exp::ScenarioConfig cfg = tiny_config();
  cfg.hostcc_enabled = true;
  exp::Scenario s(cfg);
  const exp::ScenarioResults r = s.run();
  ASSERT_NE(s.invariants(), nullptr);
  EXPECT_GT(s.invariants()->checks_run(), 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_EQ(s.controller()->fallbacks(), 0u) << "watchdog fired without faults";
}

TEST(InvariantCheckerTest, TornReadsViolateOnlyMsrMonotonicity) {
  exp::ScenarioConfig cfg = tiny_config();
  ASSERT_FALSE(cfg.faults.add_spec("msr_torn@2500+0:0.5").has_value());
  exp::Scenario s(cfg);
  const exp::ScenarioResults r = s.run();
  ASSERT_NE(s.invariants(), nullptr);
  EXPECT_GT(r.invariant_violations, 0u);
  // Fault-class attribution: a torn read corrupts only what the sampler
  // observes, never the datapath ledgers.
  EXPECT_TRUE(s.invariants()->only_class(InvariantClass::kMsrMonotonic))
      << s.invariants()->report();
}

// --------------------------------------------- watchdog & graceful fallback

TEST(WatchdogTest, FreezeFaultTriggersFallbackAndRecovery) {
  exp::ScenarioConfig cfg = tiny_config();
  cfg.hostcc_enabled = true;
  ASSERT_FALSE(cfg.faults.add_spec("msr_freeze@2500+300").has_value());
  exp::Scenario s(cfg);
  s.run_warmup();  // to 2ms

  // Frozen registers while PCIe bytes still move must be detected within
  // freeze_samples (~16 x 1.3us) plus a watchdog period or two.
  sim::Time degraded_at = sim::Time::zero();
  while (s.simulator().now() < sim::Time::microseconds(2700)) {
    s.run_for(sim::Time::microseconds(5));
    if (s.controller()->degraded()) {
      degraded_at = s.simulator().now();
      break;
    }
  }
  ASSERT_GT(degraded_at, sim::Time::zero()) << "watchdog never detected the freeze";
  EXPECT_LE(degraded_at, sim::Time::microseconds(2600));
  EXPECT_EQ(s.receiver().mba().requested_level(), cfg.hostcc.watchdog.fallback_level);

  // The fault clears at 2800us; the first live sample resets the freeze
  // run and the watchdog releases the fallback.
  while (s.simulator().now() < sim::Time::microseconds(3300) && s.controller()->degraded()) {
    s.run_for(sim::Time::microseconds(5));
  }
  EXPECT_FALSE(s.controller()->degraded());
  EXPECT_GE(s.controller()->recoveries(), 1u);
  s.invariants()->check_now();
  EXPECT_EQ(s.invariants()->total_violations(), 0u) << s.invariants()->report();
}

TEST(WatchdogTest, SamplerPreemptionTriggersFallbackAndRecovery) {
  exp::ScenarioConfig cfg = tiny_config();
  cfg.hostcc_enabled = true;
  ASSERT_FALSE(cfg.faults.add_spec("sampler_pause@2500+300").has_value());
  exp::Scenario s(cfg);
  s.run_warmup();
  s.run_for(sim::Time::microseconds(800));  // to 2.8ms: pause over, signals back
  EXPECT_EQ(s.signals().preemptions(), 1u);
  EXPECT_GE(s.controller()->fallbacks(), 1u) << "stale signals not detected";
  while (s.simulator().now() < sim::Time::microseconds(3300) && s.controller()->degraded()) {
    s.run_for(sim::Time::microseconds(5));
  }
  EXPECT_FALSE(s.controller()->degraded());
  EXPECT_GE(s.controller()->recoveries(), 1u);
}

// --------------------------------------------------- acceptance: fault matrix

// The ISSUE's acceptance scenario: MSR stall + MBA write failure + link
// flap under one fixed seed. The run must complete, fall back to the safe
// MBA level within the watchdog budget, retry the failed actuation, and
// recover throughput after the faults clear — with zero invariant
// violations (none of these faults corrupt the datapath ledgers).
TEST(FaultMatrixTest, DegradesGracefullyAndRecovers) {
  exp::ScenarioConfig cfg = tiny_config();
  cfg.hostcc_enabled = true;
  // Stall makes each sampling iteration ~200us >> stale_timeout (150us);
  // the MBA failure window covers the watchdog's forced fallback write so
  // the retry path is exercised; the link flap hits the sender's uplink.
  ASSERT_FALSE(cfg.faults.add_spec("msr_stall@2500+400:100").has_value());
  ASSERT_FALSE(cfg.faults.add_spec("mba_fail@2500+250").has_value());
  ASSERT_FALSE(cfg.faults.add_spec("link_down@2600+150:1").has_value());
  exp::Scenario s(cfg);
  s.run_warmup();  // to 2ms, marks the goodput meter

  // Pre-fault baseline over [2000, 2400]us.
  s.run_for(sim::Time::microseconds(400));
  const double pre_gbps = s.netapp_t(0).goodput_since_mark(s.simulator().now()).as_gbps();
  ASSERT_GT(pre_gbps, 1.0) << "no baseline traffic";

  // Fallback within the watchdog budget: one stalled iteration (~200us)
  // must elapse before the signals go stale, then stale_timeout + ticks.
  sim::Time degraded_at = sim::Time::zero();
  while (s.simulator().now() < sim::Time::microseconds(2800)) {
    s.run_for(sim::Time::microseconds(5));
    if (s.controller()->degraded()) {
      degraded_at = s.simulator().now();
      break;
    }
  }
  ASSERT_GT(degraded_at, sim::Time::zero()) << "watchdog never fired";
  EXPECT_LE(degraded_at, sim::Time::microseconds(2700));
  EXPECT_EQ(s.receiver().mba().requested_level(), cfg.hostcc.watchdog.fallback_level);

  // The forced write lands inside the mba_fail window: it must be retried
  // with backoff and eventually latch the safe level.
  while (s.simulator().now() < sim::Time::microseconds(3000) &&
         s.receiver().mba().effective_level() != cfg.hostcc.watchdog.fallback_level) {
    s.run_for(sim::Time::microseconds(5));
  }
  EXPECT_EQ(s.receiver().mba().effective_level(), cfg.hostcc.watchdog.fallback_level);
  EXPECT_GE(s.controller()->response().write_retries(), 1u);
  EXPECT_GE(s.receiver().mba().msr_write_failures(), 1u);

  // All faults clear by 2900us; control resumes.
  while (s.simulator().now() < sim::Time::microseconds(3500) && s.controller()->degraded()) {
    s.run_for(sim::Time::microseconds(5));
  }
  EXPECT_FALSE(s.controller()->degraded()) << "never recovered after faults cleared";
  EXPECT_GE(s.controller()->recoveries(), 1u);

  // Recovery: goodput over a post-fault window (starting >= 2 RTTs after
  // clearance) is comparable to the pre-fault baseline.
  s.run_for(sim::Time::microseconds(100));  // > 2 RTTs at ~24us RTT
  s.netapp_t(0).goodput_since_mark(s.simulator().now());  // re-mark
  s.run_for(sim::Time::microseconds(400));
  const double post_gbps = s.netapp_t(0).goodput_since_mark(s.simulator().now()).as_gbps();
  EXPECT_GE(post_gbps, 0.6 * pre_gbps)
      << "pre " << pre_gbps << " Gbps vs post " << post_gbps << " Gbps";

  s.invariants()->check_now();
  EXPECT_EQ(s.invariants()->total_violations(), 0u) << s.invariants()->report();
}

}  // namespace
}  // namespace hostcc
