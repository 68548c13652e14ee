// Lossless fabric (PFC) subsystem: switch-level pause mechanics (XOFF/XON
// thresholds, HoL blocking, headroom annex, mute + forced-pause fault
// hooks), the DCQCN window machine, pause-fault spec parsing, the
// dangling-XOFF and confirmed-deadlock invariants (with the storm
// breaker), and rack-scale lossless scenario properties: a deep incast
// completes with zero switch drops and a balanced pause ledger, per-cell
// pause ledgers merge to the true concurrent peak, and lossless runs —
// storms included — are invariant to the shard count and to run slicing.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/fabric_scenario.h"
#include "fabric/fabric.h"
#include "fabric/fabric_switch.h"
#include "fabric/pause_ledger.h"
#include "fabric/topology.h"
#include "faults/fabric_invariants.h"
#include "faults/fault_plan.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/shard_channel.h"
#include "sim/simulator.h"
#include "transport/congestion_control.h"

namespace hostcc {
namespace {

using fabric::FabricSwitch;
using fabric::FabricSwitchConfig;
using fabric::Topology;

// --- switch-level PFC mechanics ---

FabricSwitchConfig pfc_cfg(sim::Bytes buffer = 100 * 1000) {
  FabricSwitchConfig cfg;
  cfg.buffer_bytes = buffer;
  cfg.pfc_enabled = true;
  cfg.ecn_threshold = buffer;  // marking off
  cfg.forward_jitter_max = sim::Time::zero();
  return cfg;
}

net::Packet pkt(sim::Bytes size = 1000, int prio = 0) {
  net::Packet p;
  p.dst = 0;
  p.flow = 1;
  p.size = size;
  p.prio = static_cast<std::uint8_t>(prio);
  return p;
}

TEST(PfcSwitchTest, XoffCrossesThresholdAndXonFollowsDrain) {
  sim::Simulator sim;
  FabricSwitch sw(sim, "sw", pfc_cfg());
  const int port = sw.add_port("down", sim::Bandwidth::zero(), [](const net::PacketRef&) {});
  sw.set_route(0, {port});
  sw.set_port_down(port, true);  // backlog builds against the ingress

  std::vector<std::pair<int, bool>> pauses;  // (prio, on) as emitted upstream
  sw.add_ingress("up", [&pauses](int prio, bool on) { pauses.emplace_back(prio, on); });

  // alpha=0.125 of a 100 KB pool: the XOFF threshold starts at 12.5 KB and
  // shrinks as occupancy climbs, so ~12 KB of one-priority backlog from
  // this ingress must cross it.
  for (int i = 0; i < 20; ++i) sw.ingress(pkt(), 0);
  ASSERT_EQ(pauses.size(), 1u);
  EXPECT_EQ(pauses[0], (std::pair<int, bool>{0, true}));
  EXPECT_EQ(sw.pfc_xoffs_sent(), 1u);
  EXPECT_TRUE(sw.ingress_paused_out(0, 0));
  EXPECT_EQ(sw.totals().drops, 0u);  // lossless admission, never DT drops

  sw.set_port_down(port, false);  // drain releases the ingress charge
  sim.run();
  ASSERT_EQ(pauses.size(), 2u);
  EXPECT_EQ(pauses[1], (std::pair<int, bool>{0, false}));
  EXPECT_EQ(sw.pfc_xons_sent(), 1u);
  EXPECT_FALSE(sw.ingress_paused_out(0, 0));
  EXPECT_EQ(sw.ingress_bytes(0, 0), 0);
  EXPECT_EQ(sw.occupancy(), 0);
}

TEST(PfcSwitchTest, PausedHeadPriorityStallsWholePort) {
  sim::Simulator sim;
  FabricSwitch sw(sim, "sw", pfc_cfg());
  int delivered = 0;
  const int port =
      sw.add_port("down", sim::Bandwidth::zero(), [&delivered](const net::PacketRef&) { ++delivered; });
  sw.set_route(0, {port});

  EXPECT_TRUE(sw.set_port_pause(port, 0, true));
  for (int i = 0; i < 5; ++i) sw.ingress(pkt(1000, 0));
  sim.run();
  // HoL blocking by design: the paused head priority stalls the FIFO.
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(sw.port_stats(port).queue_bytes, 5000);
  EXPECT_EQ(sw.port_stats(port).tx_bytes, 0u);

  EXPECT_TRUE(sw.set_port_pause(port, 0, false));
  sim.run();
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(sw.port_stats(port).queue_bytes, 0);
  EXPECT_EQ(sw.port_stats(port).tx_bytes, 5000u);
}

TEST(PfcSwitchTest, HeadroomAnnexExtendsLosslessAdmission) {
  sim::Simulator sim;
  FabricSwitch sw(sim, "sw", pfc_cfg(10 * 1000));
  const int port = sw.add_port("down", sim::Bandwidth::zero(), [](const net::PacketRef&) {});
  sw.set_route(0, {port});
  sw.set_port_down(port, true);
  sw.add_ingress("up", FabricSwitch::PauseFn(), /*headroom=*/5 * 1000);
  EXPECT_EQ(sw.capacity_bytes(), 15 * 1000);

  // 15 KB fits (pool + annex) even though the pool is only 10 KB; the DT
  // path would have started dropping at the pool cap.
  for (int i = 0; i < 15; ++i) sw.ingress(pkt(), 0);
  EXPECT_EQ(sw.totals().drops, 0u);
  EXPECT_EQ(sw.occupancy(), 15 * 1000);
  // One byte past the annex is a drop — the losslessness invariant's cue
  // that the headroom was undersized.
  sw.ingress(pkt(), 0);
  EXPECT_EQ(sw.totals().drops, 1u);
}

TEST(PfcSwitchTest, MutedXonKeepsPortPausedAndLedgerOutstanding) {
  sim::Simulator sim;
  fabric::PauseLedger ledger;
  FabricSwitch sw(sim, "sw", pfc_cfg());
  sw.set_pause_ledger(&ledger);
  const int port = sw.add_port("down", sim::Bandwidth::zero(), [](const net::PacketRef&) {});

  EXPECT_TRUE(sw.set_port_pause(port, 0, true));
  EXPECT_EQ(ledger.outstanding(), 1);
  sw.set_port_xon_mute(port, true);
  // The lost resume: the XON is dropped, the port stays paused, and the
  // ledger keeps the XOFF outstanding for the dangling invariant to see.
  EXPECT_FALSE(sw.set_port_pause(port, 0, false));
  EXPECT_TRUE(sw.port_real_paused(port, 0));
  EXPECT_EQ(sw.muted_xons(), 1u);
  EXPECT_EQ(ledger.muted_xons(), 1u);
  EXPECT_EQ(ledger.outstanding(), 1);

  sw.clear_port_pauses(port);  // the storm breaker path ignores the mute
  EXPECT_FALSE(sw.port_real_paused(port, 0));
  EXPECT_EQ(ledger.outstanding(), 0);
  EXPECT_EQ(ledger.xoff_total(), ledger.xon_total());
}

TEST(PfcSwitchTest, ForcedPauseOverlaysWithoutDisturbingRealState) {
  sim::Simulator sim;
  FabricSwitch sw(sim, "sw", pfc_cfg());
  const int port = sw.add_port("down", sim::Bandwidth::zero(), [](const net::PacketRef&) {});

  sw.set_port_forced_pause(port, 1, true);
  EXPECT_TRUE(sw.port_paused(port, 1));
  EXPECT_TRUE(sw.port_forced_paused(port, 1));
  EXPECT_FALSE(sw.port_real_paused(port, 1));
  EXPECT_EQ(sw.forced_pauses(), 1u);

  sw.set_port_forced_pause(port, 1, false);
  EXPECT_FALSE(sw.port_paused(port, 1));
}

// --- DCQCN window machine ---

transport::CcConfig dcqcn_cfg() {
  transport::CcConfig c;
  c.mss = 4000;
  c.init_cwnd_segments = 10;
  return c;
}

// Acknowledge exactly one window of data, optionally marked.
void ack_window(transport::DcqcnCc& cc, bool marked) {
  cc.on_ack(cc.cwnd(), marked, sim::Time::microseconds(20), false);
}

TEST(DcqcnTest, MarkedWindowCutsByAlphaAndRemembersTarget) {
  transport::DcqcnCc cc(dcqcn_cfg());
  const sim::Bytes w0 = cc.cwnd();
  ack_window(cc, true);
  // alpha starts at 1 (conservative, like DCTCP): the first marked window
  // halves, and the pre-cut window becomes the recovery target.
  EXPECT_NEAR(static_cast<double>(cc.cwnd()), w0 / 2.0, 1.0);
  EXPECT_NEAR(cc.target_window(), static_cast<double>(w0), 1.0);
}

TEST(DcqcnTest, FastRecoveryConvergesToTargetWithoutOvershoot) {
  transport::DcqcnCc cc(dcqcn_cfg());
  const sim::Bytes w0 = cc.cwnd();
  ack_window(cc, true);
  for (int w = 0; w < transport::DcqcnCc::kFastRecoveryWindows; ++w) {
    ack_window(cc, false);
    EXPECT_LE(cc.cwnd(), w0) << "window " << w;  // no increase during recovery
  }
  // Five halvings of the gap: within ~4% of the target, still below it.
  EXPECT_GT(static_cast<double>(cc.cwnd()), 0.95 * static_cast<double>(w0));
}

TEST(DcqcnTest, AdditiveThenHyperIncreaseAfterRecovery) {
  transport::DcqcnCc cc(dcqcn_cfg());
  ack_window(cc, true);
  // Exhaust fast recovery, then one additive window to seed the deltas.
  for (int w = 0; w <= transport::DcqcnCc::kFastRecoveryWindows; ++w) ack_window(cc, false);
  const double t0 = cc.target_window();
  ack_window(cc, false);
  const double additive_step = cc.target_window() - t0;
  EXPECT_NEAR(additive_step, static_cast<double>(dcqcn_cfg().mss), 1.0);

  // Ten more clean windows reach the hyper stage: 5x the additive step.
  while (cc.clean_windows() <=
         transport::DcqcnCc::kFastRecoveryWindows + transport::DcqcnCc::kHyperAfter) {
    ack_window(cc, false);
  }
  const double t1 = cc.target_window();
  ack_window(cc, false);
  EXPECT_NEAR(cc.target_window() - t1,
              transport::DcqcnCc::kHyperFactor * static_cast<double>(dcqcn_cfg().mss), 1.0);
}

TEST(DcqcnTest, FactoryAndIdentity) {
  const auto cc = transport::make_cc(transport::CcKind::kDcqcn, dcqcn_cfg());
  EXPECT_EQ(cc->name(), "dcqcn");
  EXPECT_TRUE(cc->ecn_capable());
  EXPECT_STREQ(transport::cc_kind_name(transport::CcKind::kDcqcn), "dcqcn");
}

// --- fault spec parsing (satellite: errors name what is valid) ---

TEST(PauseFaultSpecTest, ParsesStormAndMute) {
  faults::FaultPlan plan;
  EXPECT_FALSE(plan.add_spec("pause_storm@500+200:1:leaf0-spine0").has_value());
  EXPECT_FALSE(plan.add_spec("pfc_mute@1000+0:h0-leaf0").has_value());
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, faults::FaultKind::kPauseStorm);
  EXPECT_DOUBLE_EQ(plan.events[0].param, 1.0);  // priority
  EXPECT_EQ(plan.events[0].target_edge, "leaf0-spine0");
  EXPECT_EQ(plan.events[1].kind, faults::FaultKind::kPfcMute);
  EXPECT_EQ(plan.events[1].target_edge, "h0-leaf0");
  EXPECT_EQ(plan.events[1].end(), sim::Time::max());  // dur 0 = whole run
  EXPECT_TRUE(plan.validate().empty());
}

TEST(PauseFaultSpecTest, UnknownKindErrorListsEveryValidKind) {
  faults::FaultPlan plan;
  const auto err = plan.add_spec("frobnicate@500+100");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("valid kinds:"), std::string::npos) << *err;
  for (faults::FaultKind k : faults::all_fault_kinds()) {
    EXPECT_NE(err->find(faults::fault_kind_name(k)), std::string::npos) << *err;
  }
}

TEST(PauseFaultSpecTest, UnknownEdgeErrorListsKnownEdges) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "star:4";
  cfg.lossless = true;
  ASSERT_FALSE(cfg.faults.add_spec("pause_storm@500+100:0:h9-sw0").has_value());
  try {
    exp::FabricScenario s(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("h9-sw0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("known edges:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("h0-sw0"), std::string::npos) << msg;
  }
}

// --- pause invariants: dangling XOFF + confirmed deadlock ---

struct PfcFabricFixture {
  sim::Simulator sim;
  fabric::Fabric fab;

  explicit PfcFabricFixture(bool attach_uplink_host = false)
      : fab(sim, *Topology::parse("leaf-spine:2x2", nullptr), pfc_cfg()) {
    if (attach_uplink_host) {
      // Full attach (uplink Link) registers the host watermark relation.
      fab.attach_host(0, "h0", [](const net::PacketRef&) {});
    } else {
      for (net::HostId id = 0; id < 4; ++id) {
        fab.attach_host_direct(id, "h" + std::to_string(id), [](const net::PacketRef&) {});
      }
    }
    fab.finalize();
  }
};

TEST(PauseInvariantTest, OneWayPauseChainIsDepthNotViolation) {
  PfcFabricFixture fx;
  faults::FabricInvariantChecker chk(fx.sim, fx.fab);
  FabricSwitch* leaf0 = fx.fab.find_switch("leaf0");
  ASSERT_NE(leaf0, nullptr);
  leaf0->set_port_pause(leaf0->find_port("leaf0-spine0"), 0, true);

  chk.check_deep_now();
  chk.check_deep_now();  // persists, but a chain has no cycle to confirm
  EXPECT_EQ(chk.total_violations(), 0u);
  EXPECT_EQ(chk.tree_depth_peak(), 1);
}

TEST(PauseInvariantTest, CycleConfirmsOnlyWithoutProgressAndBreakerReleases) {
  PfcFabricFixture fx;
  faults::FabricInvariantConfig icfg;
  icfg.storm_breaker = true;
  faults::FabricInvariantChecker chk(fx.sim, fx.fab, icfg);

  // pause_storm semantics: both direction ports of the edge are forced
  // paused -> mutual wait-for leaf0 <-> spine0, and neither forwards.
  ASSERT_TRUE(fx.fab.set_edge_forced_pause("leaf0-spine0", 0, true));
  chk.check_deep_now();  // candidate armed, not yet a violation
  EXPECT_EQ(chk.total_violations(), 0u);
  EXPECT_GE(chk.tree_depth_peak(), 2);

  chk.check_deep_now();  // same edges paused, zero bytes forwarded: wedged
  EXPECT_EQ(chk.violations_of(faults::FabricInvariantClass::kPauseDeadlock), 1u);
  EXPECT_EQ(chk.storm_breaks(), 1u);
  // The breaker force-XONed the cycle: no port on either switch is paused.
  for (const char* name : {"leaf0", "spine0"}) {
    FabricSwitch* sw = fx.fab.find_switch(name);
    for (int p = 0; p < sw->port_count(); ++p) {
      EXPECT_FALSE(sw->port_paused(p, 0)) << name << " port " << p;
    }
  }
  chk.check_deep_now();
  EXPECT_EQ(chk.total_violations(), 1u);  // no re-fire after release
}

TEST(PauseInvariantTest, TransientMutualPauseNeverConfirms) {
  PfcFabricFixture fx;
  faults::FabricInvariantChecker chk(fx.sim, fx.fab);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(fx.fab.set_edge_forced_pause("leaf0-spine0", 0, true));
    chk.check_deep_now();  // candidate...
    ASSERT_TRUE(fx.fab.set_edge_forced_pause("leaf0-spine0", 0, false));
    chk.check_deep_now();  // ...resolved before the confirming check
  }
  EXPECT_EQ(chk.total_violations(), 0u);
}

TEST(PauseInvariantTest, MutedXonBecomesDanglingXoff) {
  PfcFabricFixture fx(/*attach_uplink_host=*/true);
  faults::FabricInvariantChecker chk(fx.sim, fx.fab);

  // NIC watermark pause applies at the leaf delivery port after the edge
  // delay; once applied, both ends agree. (Bounded run_until: run() would
  // park now at Time::max and wreck later relative scheduling.)
  fx.fab.host_pause_request(0, 0, true);
  fx.sim.run_until(sim::Time::microseconds(100));
  chk.check_deep_now();
  EXPECT_EQ(chk.total_violations(), 0u);

  // Mute the edge and release: the XON never applies. After the edge delay
  // has long elapsed the emitter says clear while the applier stays
  // paused — the dangling-XOFF violation, exactly once (prio 0).
  ASSERT_TRUE(fx.fab.set_edge_xon_mute("h0-leaf0", true));
  fx.fab.host_pause_request(0, 0, false);
  fx.sim.run_until(sim::Time::microseconds(200));
  chk.check_deep_now();
  EXPECT_EQ(chk.violations_of(faults::FabricInvariantClass::kPauseLedger), 1u);
}

// --- pause ledger merge ---

// Per-cell ledgers fold into the fabric-wide one by replaying their
// transitions in time order: two pauses that never overlap are a peak of
// one concurrently paused pair, not the sum of the per-cell peaks.
TEST(PauseLedgerTest, MergedPeakCountsOnlyConcurrentPauses) {
  fabric::PauseLedger a, b;
  a.record("leaf0/p0", true, sim::Time::microseconds(1));
  a.record("leaf0/p0", false, sim::Time::microseconds(2));
  b.record("spine0/p0", true, sim::Time::microseconds(3));
  b.record("spine0/p0", false, sim::Time::microseconds(4));
  fabric::PauseLedger merged;
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.max_outstanding(), 1);
  EXPECT_EQ(merged.outstanding(), 0);
  EXPECT_EQ(merged.xoff_total(), 2u);
  EXPECT_EQ(merged.last_all_clear(), sim::Time::microseconds(4));

  // Overlapping pauses in different cells do stack, and the fabric is not
  // all-clear while either is still outstanding.
  fabric::PauseLedger c;
  c.record("spine1/p0", true, sim::Time::microseconds(1) + sim::Time::nanoseconds(500));
  c.record("spine1/p0", false, sim::Time::microseconds(5));
  merged.merge_from(c);
  EXPECT_EQ(merged.max_outstanding(), 2);
  EXPECT_EQ(merged.last_all_clear(), sim::Time::microseconds(5));
}

// --- rack-scale lossless scenario properties ---

TEST(LosslessScenarioTest, DeepIncastCompletesWithZeroDropsAndBalancedLedger) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x8";
  cfg.hosts = 9;  // fan-in 8 into h0
  cfg.traffic = exp::FabricTraffic::kIncast;
  cfg.lossless = true;
  cfg.fabric.buffer_bytes = 256 * sim::kKiB;  // shallow pool: PFC must save it
  cfg.mapp_degree = 2.0;
  cfg.warmup = sim::Time::milliseconds(1);
  cfg.measure = sim::Time::milliseconds(2);
  exp::FabricScenario s(cfg);
  const exp::FabricScenarioResults r = s.run();

  EXPECT_EQ(r.fabric_drops, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.pfc_xoff_frames, 0u);  // the pool is shallow enough to pause
  // Balanced ledger: every applied XOFF was matched by its XON and nothing
  // is left paused once the run quiesces.
  EXPECT_EQ(r.pfc_xoff_frames, r.pfc_xon_frames);
  EXPECT_EQ(r.pause_outstanding, 0);
  EXPECT_GT(r.pause_max_outstanding, 0);
  EXPECT_EQ(s.pause_ledger().xoff_total(), s.pause_ledger().xon_total());
}

std::string serialize_lossless(const exp::FabricScenarioResults& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.net_tput_gbps << ',' << r.fabric_drops << ',' << r.fabric_marks << ','
     << r.delivered_pkts << ',' << r.invariant_violations << ',' << r.pfc_xoff_frames << ','
     << r.pfc_xon_frames << ',' << r.pfc_muted_xons << ',' << r.pause_outstanding << ','
     << r.pause_max_outstanding << ',' << r.pause_last_all_clear_us << ','
     << r.pause_tree_depth_peak << ',' << r.storm_breaks;
  return os.str();
}

TEST(LosslessScenarioTest, ShardedRunsInvariantToShardCount) {
  const auto run_with = [](int shards) {
    exp::FabricScenarioConfig cfg;
    cfg.topology = "leaf-spine:2x2";
    cfg.lossless = true;
    cfg.fabric.buffer_bytes = 256 * sim::kKiB;
    cfg.mapp_degree = 2.0;
    cfg.shards = shards;
    cfg.warmup = sim::Time::milliseconds(1);
    cfg.measure = sim::Time::milliseconds(2);
    exp::FabricScenario s(std::move(cfg));
    return serialize_lossless(s.run());
  };
  const std::string one = run_with(1);
  const std::string two = run_with(2);
  EXPECT_EQ(one, two);
  // The run must actually exercise PFC for the comparison to mean much.
  EXPECT_NE(one.find(','), std::string::npos);
}

// Advances `s` through `phase` in `n` equal run_for() slices.
void run_in_slices(exp::FabricScenario& s, sim::Time phase, int n) {
  const sim::Time start = s.now();
  for (int k = 1; k <= n; ++k) {
    s.run_for(start + sim::Time::picoseconds(phase.ps() * k / n) - s.now());
  }
}

// A seeded pause storm on leaf0-spine0 plus a muted XON on h1-leaf0, with
// the storm breaker on, over the 4-cell leaf-spine:2x2.
exp::FabricScenarioConfig storm_cfg(int shards) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x2";
  cfg.lossless = true;
  cfg.storm_breaker = true;
  cfg.fabric.buffer_bytes = 256 * sim::kKiB;
  cfg.mapp_degree = 2.0;
  cfg.shards = shards;
  cfg.warmup = sim::Time::milliseconds(1);
  cfg.measure = sim::Time::milliseconds(2);
  EXPECT_FALSE(cfg.faults.add_spec("pause_storm@1500+400:0:leaf0-spine0").has_value());
  EXPECT_FALSE(cfg.faults.add_spec("pfc_mute@1500+400:h1-leaf0").has_value());
  return cfg;
}

// The deadlock and dangling-XOFF sweeps run mid-run from the engine's
// boundary tick, so the storm is detected and broken at every worker count,
// with the same bytes, and whether the run is one run() or 40 run_for()
// slices that stop mid-epoch. The compared bytes include the fabric
// checker's report, whose violation timestamps pin when each sweep ran.
TEST(LosslessScenarioTest, SeededStormAndMuteAreDetectedAndSurvived) {
  std::string at_one;
  for (const int shards : {1, 2, 4}) {
    exp::FabricScenario s(storm_cfg(shards));
    const exp::FabricScenarioResults r = s.run();

    // Detected: the forced mutual pause persists without progress and the
    // muted XON leaves a dangling XOFF. Survived: the breaker releases the
    // cycle, the run completes, and losslessness itself still holds.
    EXPECT_GT(r.invariant_violations, 0u) << "shards " << shards;
    EXPECT_GT(r.storm_breaks, 0u) << "shards " << shards;
    EXPECT_EQ(r.fabric_drops, 0u) << "shards " << shards;
    EXPECT_GT(r.delivered_pkts, 0u) << "shards " << shards;
    const std::string bytes = serialize_lossless(r) + "\n" + s.fabric_invariants()->report();
    if (shards == 1) {
      at_one = bytes;
    } else {
      EXPECT_EQ(bytes, at_one) << "shards " << shards;
    }
  }

  // The same run in slices: 40 split the way perfbench splits them (13
  // warmup + 27 measure), and ~7 us ones, which stop mid-epoch past most
  // check periods. The scenario is built with empty windows and advanced
  // with run_for(); run_warmup() then only marks the window start.
  for (const auto& [warmup_slices, measure_slices] : {std::pair{13, 27}, std::pair{143, 285}}) {
    exp::FabricScenarioConfig cfg = storm_cfg(4);
    const sim::Time warmup = cfg.warmup;
    const sim::Time measure = cfg.measure;
    cfg.warmup = sim::Time::zero();
    cfg.measure = sim::Time::zero();
    exp::FabricScenario s(std::move(cfg));
    run_in_slices(s, warmup, warmup_slices);
    s.run_warmup();
    run_in_slices(s, measure, measure_slices);
    const std::string sliced = serialize_lossless(s.run_measure());
    EXPECT_EQ(sliced + "\n" + s.fabric_invariants()->report(), at_one)
        << warmup_slices + measure_slices << " run_for slices";
  }
}

// The fabric invariant report covers every cell's checker: its violation
// and check counts are the summed fabric/invariants/* metrics, not cell 0's
// share. The storm run's deep sweeps land on cell 0, but every cell runs
// its own periodic checks; the second run makes switches outside cell 0
// drop (an XOFF threshold far above the shared pool, and an MApp on every
// host under all-to-all load), so other cells count losslessness
// violations too.
TEST(LosslessScenarioTest, FabricReportMergesEveryCellsChecker) {
  exp::FabricScenarioConfig overrun = storm_cfg(1);
  overrun.traffic = exp::FabricTraffic::kAllToAll;
  overrun.fabric.pfc_alpha = 64.0;
  overrun.fabric.pfc_min_threshold = 4 * sim::kMiB;
  overrun.congested_hosts = 4;
  for (const exp::FabricScenarioConfig& cfg : {storm_cfg(1), overrun}) {
    exp::FabricScenario s(cfg);
    s.run();
    ASSERT_GT(s.shard_plan().cells, 1);
    std::uint64_t violations = 0, checks = 0;
    for (const obs::MetricSample& m : s.metrics().snapshot(s.now()).samples) {
      const auto v = static_cast<std::uint64_t>(m.value);
      if (m.name == "fabric/invariants/violations") violations = v;
      if (m.name == "fabric/invariants/checks") checks = v;
    }
    EXPECT_GT(violations, 0u);
    EXPECT_GT(checks, s.fabric_invariants()->checks_run());
    const std::string head = "fabric invariants: " + std::to_string(violations) +
                             " violation(s) in " + std::to_string(checks) + " checks\n";
    const std::string report = s.fabric_invariants_report();
    EXPECT_EQ(report.substr(0, head.size()), head) << report;
    if (cfg.traffic == exp::FabricTraffic::kAllToAll) {
      EXPECT_GT(violations, s.fabric_invariants()->total_violations())
          << "switches outside cell 0 should have dropped\n" << report;
    }
  }
}

// --- ShardChannels edge cases (satellite) ---

TEST(ShardChannelTest, SameDueDeliveriesOrderByChannelThenSeq) {
  sim::Simulator sim;
  sim::ShardChannels<int> ch(2);
  std::vector<std::pair<int, int>> order;  // (channel, payload)
  const int c0 = ch.add_channel(0, 1, [&order](const int& v) { order.emplace_back(0, v); });
  const int c1 = ch.add_channel(0, 1, [&order](const int& v) { order.emplace_back(1, v); });

  // Interleave pushes across channels at one due instant: the consumer
  // must deliver in (due, channel, seq) order, independent of push order.
  const sim::Time due = sim::Time::microseconds(10);
  ch.push(c1, due, 11);
  ch.push(c0, due, 21);
  ch.push(c1, due, 12);
  ch.push(c0, due, 22);
  ch.begin_epoch(1, 1, sim::Time::microseconds(20), sim);
  sim.run();
  const std::vector<std::pair<int, int>> want = {{0, 21}, {0, 22}, {1, 11}, {1, 12}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(ch.total_delivered(), 4u);
}

TEST(ShardChannelTest, ZeroHandoffEpochDeliversNothingAndRecovers) {
  sim::Simulator sim;
  sim::ShardChannels<int> ch(2);
  std::vector<int> got;
  const int c0 = ch.add_channel(0, 1, [&got](const int& v) { got.push_back(v); });

  ch.begin_epoch(1, 1, sim::Time::microseconds(10), sim);  // nothing was pushed
  sim.run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(ch.delivered(1), 0u);

  // The channel is not wedged: a later epoch's handoff still flows.
  ch.begin_epoch(0, 1, sim::Time::microseconds(10), sim);  // producer parity -> 1
  ch.push(c0, sim::Time::microseconds(15), 7);
  ch.begin_epoch(1, 2, sim::Time::microseconds(20), sim);
  sim.run();
  EXPECT_EQ(got, std::vector<int>{7});
}

TEST(ShardChannelTest, DueExactlyAtWindowEndWaitsForTheNextEpoch) {
  sim::Simulator sim;
  sim::ShardChannels<int> ch(2);
  std::vector<int> got;
  const int c0 = ch.add_channel(0, 1, [&got](const int& v) { got.push_back(v); });

  const sim::Time window_end = sim::Time::microseconds(20);
  ch.push(c0, window_end, 5);  // due == window_end: NOT inside this window
  ch.begin_epoch(1, 1, window_end, sim);
  sim.run();
  EXPECT_TRUE(got.empty()) << "due == window_end must stay for the next epoch";

  ch.begin_epoch(1, 2, sim::Time::microseconds(40), sim);
  sim.run();
  EXPECT_EQ(got, std::vector<int>{5});
  EXPECT_EQ(ch.total_delivered(), 1u);
}

}  // namespace
}  // namespace hostcc
