// Multi-switch fabric subsystem: topology grammar + validation, ECMP
// flow affinity, shared-buffer DT and static per-port admission, the
// single-star switch's forwarding (routing, ECN, drop-tail, port rate,
// no-route drops), edge-name faults, and rack-scale FabricScenario
// determinism (byte-identical fixed-seed runs, with and without faults).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/fabric_scenario.h"
#include "fabric/fabric.h"
#include "fabric/fabric_switch.h"
#include "fabric/topology.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace hostcc {
namespace {

using fabric::FabricSwitch;
using fabric::FabricSwitchConfig;
using fabric::Topology;

// --- topology grammar + generators ---

TEST(TopologyTest, ParseGrammar) {
  std::string err;
  auto star = Topology::parse("star:4", &err);
  ASSERT_TRUE(star.has_value()) << err;
  EXPECT_EQ(star->host_nodes().size(), 4u);
  EXPECT_EQ(star->switch_nodes().size(), 1u);

  auto ls = Topology::parse("leaf-spine:4x4", &err);
  ASSERT_TRUE(ls.has_value()) << err;
  EXPECT_EQ(ls->host_nodes().size(), 16u);
  EXPECT_EQ(ls->switch_nodes().size(), 6u);  // 4 leaves + 2 default spines

  auto ls3 = Topology::parse("leaf-spine:2x3x3", &err);
  ASSERT_TRUE(ls3.has_value()) << err;
  EXPECT_EQ(ls3->host_nodes().size(), 6u);
  EXPECT_EQ(ls3->switch_nodes().size(), 5u);

  auto ft = Topology::parse("fat-tree:4", &err);
  ASSERT_TRUE(ft.has_value()) << err;
  EXPECT_EQ(ft->host_nodes().size(), 16u);  // k^3/4
  EXPECT_EQ(ft->switch_nodes().size(), 20u);  // 4 core + 8 aggr + 8 edge

  for (const char* bad : {"ring:4", "leaf-spine:4", "leaf-spine:0x4", "fat-tree:3",
                          "fat-tree:", "star:x", ""}) {
    EXPECT_FALSE(Topology::parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(TopologyTest, GeneratedTopologiesValidate) {
  for (const char* spec : {"star:2", "star:16", "leaf-spine:4x4", "leaf-spine:8x4x4",
                           "fat-tree:4"}) {
    auto t = Topology::parse(spec, nullptr);
    ASSERT_TRUE(t.has_value()) << spec;
    EXPECT_TRUE(t->validate().empty()) << spec;
  }
}

TEST(TopologyTest, ValidationFindsEveryProblem) {
  Topology t;
  const int h0 = t.add_host("h0");
  const int dup = t.add_host("h0");  // duplicate name
  const int s0 = t.add_switch("s0");
  const int h2 = t.add_host("h2");
  t.add_link(h0, s0, Topology::default_rate(), Topology::default_delay());
  t.add_link(dup, s0, Topology::default_rate(), Topology::default_delay());
  // h2 has a one-way arc only: asymmetry + (reverse missing).
  t.add_arc(h2, s0, Topology::default_rate(), Topology::default_delay(), "h2-s0");

  const std::vector<std::string> errs = t.validate();
  ASSERT_FALSE(errs.empty());
  const auto joined = [&errs] {
    std::string all;
    for (const std::string& e : errs) all += e + "\n";
    return all;
  }();
  EXPECT_NE(joined.find("duplicate"), std::string::npos) << joined;
  EXPECT_NE(joined.find("h2"), std::string::npos) << joined;

  try {
    t.throw_if_invalid();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("invalid topology"), std::string::npos);
  }
}

TEST(TopologyTest, ValidationRejectsUnreachableAndIsolated) {
  Topology t;
  const int h0 = t.add_host("h0");
  const int s0 = t.add_switch("s0");
  const int h1 = t.add_host("h1");
  const int s1 = t.add_switch("s1");  // island: h1-s1 disconnected from h0-s0
  t.add_link(h0, s0, Topology::default_rate(), Topology::default_delay());
  t.add_link(h1, s1, Topology::default_rate(), Topology::default_delay());
  const std::vector<std::string> errs = t.validate();
  ASSERT_FALSE(errs.empty());
  bool mentions_reach = false;
  for (const std::string& e : errs)
    if (e.find("unreachable") != std::string::npos || e.find("reach") != std::string::npos)
      mentions_reach = true;
  EXPECT_TRUE(mentions_reach);
}

// --- ECMP ---

TEST(EcmpTest, FlowAffinityAndSpread) {
  sim::Simulator sim;
  FabricSwitchConfig cfg;
  FabricSwitch sw(sim, "leaf0", cfg);
  std::vector<int> ports;
  for (int i = 0; i < 4; ++i) {
    ports.push_back(
        sw.add_port("up" + std::to_string(i), sim::Bandwidth::zero(), [](const net::PacketRef&) {}));
  }
  sw.set_route(/*host=*/7, ports);

  std::set<int> seen;
  for (net::FlowId flow = 1; flow <= 64; ++flow) {
    const int first = sw.route(7, flow);
    ASSERT_GE(first, 0);
    // Affinity: the same flow always takes the same path.
    for (int rep = 0; rep < 8; ++rep) EXPECT_EQ(sw.route(7, flow), first);
    seen.insert(first);
  }
  // Spread: 64 flows over 4 equal-cost ports use every port.
  EXPECT_EQ(seen.size(), 4u);

  EXPECT_EQ(sw.route(/*unknown dst=*/99, 1), -1);
}

TEST(EcmpTest, PickIsIndependentOfRouteInsertionOrder) {
  sim::Simulator sim;
  FabricSwitchConfig cfg;
  FabricSwitch a(sim, "sw", cfg);
  FabricSwitch b(sim, "sw", cfg);
  std::vector<int> pa, pb;
  for (int i = 0; i < 3; ++i) {
    pa.push_back(a.add_port("p" + std::to_string(i), sim::Bandwidth::zero(),
                            [](const net::PacketRef&) {}));
    pb.push_back(b.add_port("p" + std::to_string(i), sim::Bandwidth::zero(),
                            [](const net::PacketRef&) {}));
  }
  a.set_route(3, {pa[0], pa[1], pa[2]});
  b.set_route(3, {pb[2], pb[0], pb[1]});  // same set, scrambled
  for (net::FlowId flow = 1; flow <= 32; ++flow) EXPECT_EQ(a.route(3, flow), b.route(3, flow));
}

// --- shared-buffer DT admission ---

TEST(DtAdmissionTest, HotPortCapsAtAlphaEquilibriumAndLedgerHolds) {
  sim::Simulator sim;
  FabricSwitchConfig cfg;
  cfg.buffer_bytes = 100 * 1000;
  cfg.dt_alpha = 1.0;
  cfg.ecn_threshold = cfg.buffer_bytes;  // marking off for this test
  cfg.forward_jitter_max = sim::Time::zero();
  FabricSwitch sw(sim, "sw", cfg);
  const int port = sw.add_port("down0", sim::Bandwidth::zero(), [](const net::PacketRef&) {});
  sw.set_route(0, {port});
  sw.set_port_down(port, true);  // queue builds, nothing drains

  net::Packet p;
  p.dst = 0;
  p.flow = 1;
  p.size = 1000;
  for (int i = 0; i < 200; ++i) sw.ingress(p);

  // alpha=1 equilibrium: q <= B - q  =>  q caps at B/2.
  const auto t = sw.totals();
  EXPECT_EQ(t.occupancy, cfg.buffer_bytes / 2);
  EXPECT_EQ(t.drops, 150u);
  EXPECT_EQ(sw.admitted_bytes(), 50u * 1000u);
  EXPECT_EQ(sw.dropped_bytes(), 150u * 1000u);
  // Ledger: nothing drained yet, everything admitted is queued.
  EXPECT_EQ(sw.drained_bytes() + static_cast<std::uint64_t>(sw.occupancy()),
            sw.admitted_bytes());
  EXPECT_EQ(sw.queued_bytes_across_ports(), sw.occupancy());

  // A second (cold) port sees a *shrunken* DT allowance: headroom is down
  // to B/2, so it caps at B/4.
  const int port2 = sw.add_port("down1", sim::Bandwidth::zero(), [](const net::PacketRef&) {});
  sw.set_route(1, {port2});
  sw.set_port_down(port2, true);
  p.dst = 1;
  for (int i = 0; i < 100; ++i) sw.ingress(p);
  EXPECT_EQ(sw.port_stats(port2).queue_bytes, cfg.buffer_bytes / 4);
  EXPECT_LE(sw.occupancy(), cfg.buffer_bytes);
}

TEST(DtAdmissionTest, EcnMarksAtThreshold) {
  sim::Simulator sim;
  FabricSwitchConfig cfg;
  cfg.buffer_bytes = 100 * 1000;
  cfg.dt_alpha = 1.0;
  cfg.ecn_threshold = 10 * 1000;
  FabricSwitch sw(sim, "sw", cfg);
  const int port = sw.add_port("d", sim::Bandwidth::zero(), [](const net::PacketRef&) {});
  sw.set_route(0, {port});
  sw.set_port_down(port, true);

  net::Packet p;
  p.dst = 0;
  p.size = 1000;
  p.ecn = net::Ecn::kEct0;
  for (int i = 0; i < 20; ++i) sw.ingress(p);
  // Packets 11..20 enqueue at q >= K.
  EXPECT_EQ(sw.totals().marks, 10u);
}

// Static per-port mode (port_buffer_bytes > 0, the paper testbed's
// switch): a port's limit ignores the other ports' occupancy.
TEST(DtAdmissionTest, StaticPerPortModeAdmitsFullPortBufferBesideAFullPort) {
  const auto fill = [](FabricSwitchConfig cfg) {
    sim::Simulator sim;
    cfg.ecn_threshold = cfg.buffer_bytes;  // marking off for this test
    cfg.forward_jitter_max = sim::Time::zero();
    FabricSwitch sw(sim, "sw", cfg);
    for (net::HostId h = 0; h < 2; ++h) {
      const int port = sw.add_port("down" + std::to_string(h), sim::Bandwidth::zero(),
                                   [](const net::PacketRef&) {});
      sw.set_route(h, {port});
      sw.set_port_down(port, true);
    }
    net::Packet p;
    p.size = 1000;
    p.dst = 1;  // fill port 1 first
    for (int i = 0; i < 200; ++i) sw.ingress(p);
    p.dst = 0;
    for (int i = 0; i < 200; ++i) sw.ingress(p);
    const sim::Bytes q0 = sw.port_stats(0).queue_bytes;
    EXPECT_EQ(sw.drained_bytes() + static_cast<std::uint64_t>(sw.occupancy()),
              sw.admitted_bytes());
    // Draining port 0 keeps the ledger exact.
    sw.set_port_down(0, false);
    sim.run();
    EXPECT_EQ(sw.drained_bytes(), static_cast<std::uint64_t>(q0));
    EXPECT_EQ(sw.drained_bytes() + static_cast<std::uint64_t>(sw.occupancy()),
              sw.admitted_bytes());
    EXPECT_EQ(sw.queued_bytes_across_ports(), sw.occupancy());
    EXPECT_LE(sw.occupancy(), cfg.buffer_bytes);
    return q0;
  };

  FabricSwitchConfig stat;
  stat.port_buffer_bytes = 100 * 1000;
  stat.buffer_bytes = 2 * stat.port_buffer_bytes;
  EXPECT_EQ(fill(stat), stat.port_buffer_bytes);

  // The same pool under DT: port 1 holds B/2, so port 0 caps at B/4.
  FabricSwitchConfig dt = stat;
  dt.port_buffer_bytes = 0;
  EXPECT_EQ(fill(dt), dt.buffer_bytes / 4);
}

// --- FabricSwitch as the single-star testbed's switch (static per-port) ---

net::Packet star_pkt(net::HostId dst, sim::Bytes size, net::Ecn ecn = net::Ecn::kEct0) {
  net::Packet p;
  p.dst = dst;
  p.size = size;
  p.payload = size - net::kHeaderBytes;
  p.ecn = ecn;
  return p;
}

FabricSwitchConfig star_cfg(sim::Bytes port_buffer = 512 * sim::kKiB) {
  FabricSwitchConfig cfg;
  cfg.port_buffer_bytes = port_buffer;
  cfg.buffer_bytes = 4 * port_buffer;
  return cfg;
}

TEST(StarSwitchTest, RoutesByDestination) {
  sim::Simulator sim;
  FabricSwitch sw(sim, "sw0", star_cfg());
  int to_a = 0, to_b = 0;
  sw.set_route(1, {sw.add_port("a", sim::Bandwidth::gbps(100.0),
                               [&](const net::PacketRef&) { ++to_a; })});
  sw.set_route(2, {sw.add_port("b", sim::Bandwidth::gbps(100.0),
                               [&](const net::PacketRef&) { ++to_b; })});
  sw.ingress(star_pkt(1, 1000));
  sw.ingress(star_pkt(2, 1000));
  sw.ingress(star_pkt(2, 1000));
  sim.run();
  EXPECT_EQ(to_a, 1);
  EXPECT_EQ(to_b, 2);
}

TEST(StarSwitchTest, MarksOnlyEct0AboveThreshold) {
  sim::Simulator sim;
  FabricSwitchConfig cfg = star_cfg();
  cfg.ecn_threshold = 8 * 1024;
  FabricSwitch sw(sim, "sw0", cfg);
  int ce = 0, total = 0;
  sw.set_route(1, {sw.add_port("a", sim::Bandwidth::gbps(100.0), [&](const net::PacketRef& p) {
                 ++total;
                 if (p->ecn == net::Ecn::kCe) ++ce;
               })});
  // Burst of 10 ECT0 packets: the queue reaches K after the first two.
  for (int i = 0; i < 10; ++i) sw.ingress(star_pkt(1, 4096));
  // Non-ECT traffic above K is never marked.
  for (int i = 0; i < 5; ++i) sw.ingress(star_pkt(1, 4096, net::Ecn::kNotEct));
  sim.run();
  EXPECT_EQ(total, 15);
  EXPECT_GT(ce, 5);
  EXPECT_LT(ce, 10);  // the first packets escape unmarked
  EXPECT_EQ(sw.totals().marks, static_cast<std::uint64_t>(ce));
}

TEST(StarSwitchTest, DropsWhenPortBufferFull) {
  sim::Simulator sim;
  FabricSwitch sw(sim, "sw0", star_cfg(10 * 1024));
  int delivered = 0;
  const int port = sw.add_port("a", sim::Bandwidth::gbps(100.0),
                               [&](const net::PacketRef&) { ++delivered; });
  sw.set_route(1, {port});
  for (int i = 0; i < 20; ++i) sw.ingress(star_pkt(1, 4096));
  sim.run();
  const auto stats = sw.port_stats(port);
  EXPECT_GT(stats.drops, 0u);
  EXPECT_EQ(delivered + static_cast<int>(stats.drops), 20);
}

TEST(StarSwitchTest, PortRateLimitsThroughput) {
  sim::Simulator sim;
  FabricSwitch sw(sim, "sw0", star_cfg(1024 * 1024));
  sim::Time last;
  sw.set_route(1, {sw.add_port("a", sim::Bandwidth::gbps(10.0),
                               [&](const net::PacketRef&) { last = sim.now(); })});
  for (int i = 0; i < 10; ++i) sw.ingress(star_pkt(1, 4096));
  sim.run();
  // 10 packets x 4096B at 10Gbps = 32.768us serialization minimum.
  EXPECT_GT(last.us(), 32.0);
}

TEST(StarSwitchTest, UnknownDestinationIsCountedNotCrashed) {
  sim::Simulator sim;
  FabricSwitch sw(sim, "sw0", star_cfg());
  sw.set_route(1, {sw.add_port("a", sim::Bandwidth::gbps(100.0), [](const net::PacketRef&) {})});
  sw.ingress(star_pkt(99, 1000));
  sim.run();
  EXPECT_EQ(sw.no_route_drops(), 1u);
  EXPECT_EQ(sw.totals().drops, 0u);
  EXPECT_EQ(sw.admitted_bytes(), 0u);
}

// --- fabric wiring: edge-name faults ---

TEST(FabricEdgeFaultTest, EdgeNamesResolveAndUnknownOnesDoNot) {
  sim::Simulator sim;
  auto topo = Topology::parse("leaf-spine:2x2", nullptr);
  ASSERT_TRUE(topo.has_value());
  FabricSwitchConfig cfg;
  fabric::Fabric fab(sim, *topo, cfg);
  for (net::HostId id = 0; id < 4; ++id) {
    fab.attach_host_direct(static_cast<net::HostId>(id), "h" + std::to_string(id),
                           [](const net::PacketRef&) {});
  }
  fab.finalize();

  EXPECT_TRUE(fab.has_edge("leaf0-spine1"));
  EXPECT_TRUE(fab.has_edge("h0-leaf0"));
  EXPECT_FALSE(fab.has_edge("leaf0-spine9"));

  EXPECT_TRUE(fab.set_edge_port_down("leaf0-spine0", true));
  fabric::FabricSwitch* leaf0 = fab.find_switch("leaf0");
  ASSERT_NE(leaf0, nullptr);
  EXPECT_TRUE(leaf0->port_down(leaf0->find_port("leaf0-spine0")));
  EXPECT_TRUE(fab.set_edge_port_down("leaf0-spine0", false));
  EXPECT_FALSE(leaf0->port_down(leaf0->find_port("leaf0-spine0")));

  EXPECT_FALSE(fab.set_edge_down("nope", true));
  EXPECT_TRUE(fab.set_edge_rate_factor("leaf1-spine0", 0.5));
}

// --- FabricScenario validation (aggregated errors) ---

TEST(FabricScenarioValidationTest, AggregatesEveryProblem) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:0x4";        // bad dims
  cfg.flows_per_pair = 0;                 // must be >= 1
  cfg.mapp_degree = -1.0;                 // must be >= 0
  cfg.shards = 0;                         // must be >= 1 worker thread
  try {
    exp::FabricScenario s(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("invalid fabric scenario config"), std::string::npos) << msg;
    EXPECT_NE(msg.find("flows_per_pair"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mapp_degree"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fabric_scenario.shards must be >= 1"), std::string::npos) << msg;
    // Aggregation: every problem in one throw.
    EXPECT_GE(std::count(msg.begin(), msg.end(), '\n'), 3) << msg;
  }
}

TEST(FabricScenarioValidationTest, RejectsUnknownFaultEdge) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "star:4";
  ASSERT_FALSE(cfg.faults.add_spec("link_down@500+100:h9-sw0").has_value());
  try {
    exp::FabricScenario s(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("h9-sw0"), std::string::npos) << e.what();
  }
}

// --- FabricScenario determinism ---

std::string serialize(const exp::FabricScenarioResults& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.net_tput_gbps << ',' << r.host_drop_rate_pct << ',' << r.fabric_drop_rate_pct << ','
     << r.fabric_drop_frac << ',' << r.fabric_drops << ',' << r.fabric_marks << ','
     << r.fabric_no_route_drops << ',' << r.delivered_pkts << ',' << r.fabric_occupancy_peak
     << ',' << r.avg_iio_occupancy << ',' << r.avg_pcie_gbps << ',' << r.sender_timeouts << ','
     << r.sender_fast_retransmits << ',' << r.invariant_violations;
  return os.str();
}

exp::FabricScenarioConfig mini_fabric_config() {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x2";
  cfg.hostcc_enabled = true;
  cfg.mapp_degree = 2.0;
  cfg.warmup = sim::Time::milliseconds(1);
  cfg.measure = sim::Time::milliseconds(2);
  return cfg;
}

struct FabricArtifacts {
  std::string results;
  std::string metrics;
  std::uint64_t events = 0;
};

FabricArtifacts run_fabric_once(exp::FabricScenarioConfig cfg) {
  exp::FabricScenario s(std::move(cfg));
  FabricArtifacts a;
  a.results = serialize(s.run());
  a.events = s.events_executed();
  std::ostringstream m;
  s.metrics().write_json(m, s.now());
  a.metrics = m.str();
  return a;
}

TEST(FabricDeterminismTest, RepeatedRunsAreByteIdentical) {
  const FabricArtifacts a = run_fabric_once(mini_fabric_config());
  const FabricArtifacts b = run_fabric_once(mini_fabric_config());
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_NE(a.results.find(','), std::string::npos);
}

TEST(FabricDeterminismTest, FaultRunsAreByteIdentical) {
  const auto cfg_with_faults = [] {
    exp::FabricScenarioConfig cfg = mini_fabric_config();
    EXPECT_FALSE(cfg.faults.add_spec("link_down@1200+300:h2-leaf1").has_value());
    EXPECT_FALSE(cfg.faults.add_spec("link_degrade@500+800:0.25:leaf0-spine1").has_value());
    EXPECT_FALSE(cfg.faults.add_spec("port_down@800+400:leaf1-spine0").has_value());
    return cfg;
  };
  const FabricArtifacts a = run_fabric_once(cfg_with_faults());
  const FabricArtifacts b = run_fabric_once(cfg_with_faults());
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.metrics, b.metrics);
  // The faulted run must actually diverge from the clean one.
  const FabricArtifacts clean = run_fabric_once(mini_fabric_config());
  EXPECT_NE(a.results, clean.results);
}

// --- incast drop band (EXPERIMENTS.md deviation #6) ---

// Every cell's injector replays the whole plan, yet the exported fault
// metrics count each plan event once: applied if any cell applied it,
// skipped only if none did.
TEST(FabricScenarioTest, FaultMetricsCountEachPlanEventOnceAcrossCells) {
  exp::FabricScenarioConfig cfg = mini_fabric_config();
  for (const char* spec : {"link_down@1200+300:leaf0-spine0",       // switch-switch edge
                           "link_degrade@1300+300:0.5:h1-leaf0",    // host uplink edge
                           "msr_stall@1400+300:50",                 // host 0's MSRs, one cell
                           "link_down@1500+300:9"}) {               // no uplink 9
    ASSERT_FALSE(cfg.faults.add_spec(spec).has_value()) << spec;
  }
  exp::FabricScenario s(cfg);
  ASSERT_GT(s.fabric().switch_count(), 1);
  s.run();
  std::map<std::string, double> m;
  for (const obs::MetricSample& x : s.metrics().snapshot(s.now()).samples) m[x.name] = x.value;
  EXPECT_EQ(m.at("faults/activations"), 3.0);
  EXPECT_EQ(m.at("faults/deactivations"), 3.0);
  EXPECT_EQ(m.at("faults/skipped"), 1.0);
  EXPECT_EQ(m.at("faults/active"), 0.0);
}

TEST(FabricScenarioTest, ShallowBufferIncastDropsLandInPaperBand) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:4x4";
  cfg.flows_per_pair = 4;
  cfg.mapp_degree = 0.0;  // wire-limited: congestion lives in the fabric
  cfg.fabric.buffer_bytes = 256 * sim::kKiB;
  cfg.warmup = sim::Time::milliseconds(3);
  cfg.measure = sim::Time::milliseconds(5);
  exp::FabricScenario s(std::move(cfg));
  const exp::FabricScenarioResults r = s.run();
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_EQ(r.fabric_no_route_drops, 0u);
  // Paper band (Fig. 13a): 1e-4 .. 1e-2.
  EXPECT_GE(r.fabric_drop_frac, 1e-4);
  EXPECT_LE(r.fabric_drop_frac, 1e-2);
}

}  // namespace
}  // namespace hostcc
