// Property-based suites (parameterized sweeps) over model invariants:
//  - conservation: every byte arriving at the NIC is dropped, in flight,
//    or delivered — across loads, MTUs, seeds;
//  - losslessness of the host interconnect (no loss past the NIC);
//  - IIO occupancy bounded by the credit pool; Little's-law consistency;
//  - insensitivity of results to the MC scheduling quantum and DMA chunk
//    size (discretization knobs must not change physics);
//  - determinism for a fixed seed, divergence across seeds only.
#include <gtest/gtest.h>

#include "exp/scenario.h"
#include "testbed.h"

namespace hostcc {
namespace {

struct LoadCase {
  double degree;
  bool ddio;
  sim::Bytes mtu;
  std::uint64_t seed;
};

std::string name_of(const LoadCase& c) {
  return "d" + std::to_string(static_cast<int>(c.degree)) + (c.ddio ? "_ddio" : "_noddio") +
         "_mtu" + std::to_string(c.mtu) + "_s" + std::to_string(c.seed);
}
std::string case_name(const ::testing::TestParamInfo<LoadCase>& info) {
  return name_of(info.param);
}
// Without it gtest prints the parameter as a raw byte dump, padding
// included, into every test name.
void PrintTo(const LoadCase& c, std::ostream* os) { *os << name_of(c); }

class ConservationProperty : public ::testing::TestWithParam<LoadCase> {};

TEST_P(ConservationProperty, BytesNeitherCreatedNorLost) {
  const LoadCase c = GetParam();
  exp::ScenarioConfig cfg;
  cfg.mapp_degree = c.degree;
  cfg.host.ddio_enabled = c.ddio;
  cfg.host.seed = c.seed;
  cfg.transport.mtu = c.mtu;
  cfg.warmup = sim::Time::milliseconds(5);
  cfg.measure = sim::Time::milliseconds(25);
  exp::Scenario s(cfg);
  s.run();

  auto& host = s.receiver();
  const auto& nic = host.nic().stats();

  // NIC-level packet conservation: arrived = dropped + forwarded, where
  // forwarded packets are processed or still inside the host pipeline.
  const std::uint64_t processed = host.cpu().packets_processed();
  const std::uint64_t in_pipeline = nic.arrived_pkts - nic.dropped_pkts - processed;
  // Pipeline holds at most: NIC queue + 1 DMA + IIO entries + core queues.
  EXPECT_LE(in_pipeline, 4096u);  // bounded (descriptor ring size)

  // Host interconnect losslessness: every byte inserted into the IIO is
  // admitted or still resident; nothing vanishes past the NIC.
  auto& iio = host.iio();
  EXPECT_EQ(iio.total_inserted(), iio.total_admitted() + iio.occupancy_bytes());

  // Credit pool bound (paper: I_S saturates at the credit limit).
  EXPECT_LE(iio.occupancy_bytes(),
            host.pcie().credit_pool() + 2 * host.config().dma_chunk_bytes);
}

TEST_P(ConservationProperty, ReceiverStreamsAreGapFreePrefixes) {
  const LoadCase c = GetParam();
  exp::ScenarioConfig cfg;
  cfg.mapp_degree = c.degree;
  cfg.host.ddio_enabled = c.ddio;
  cfg.host.seed = c.seed;
  cfg.transport.mtu = c.mtu;
  cfg.warmup = sim::Time::milliseconds(5);
  cfg.measure = sim::Time::milliseconds(25);
  exp::Scenario s(cfg);
  s.run();
  // TCP safety: delivered bytes form a contiguous prefix — rcv_nxt equals
  // delivered count, and every OOO range lies strictly above it.
  for (int i = 0; i < s.netapp_t().flow_count(); ++i) {
    auto& rx = s.netapp_t().receiver_conn(i);
    EXPECT_EQ(rx.rcv_nxt(), rx.delivered_bytes());
    for (const auto& [b, e] : rx.ooo_ranges()) {
      EXPECT_GT(b, rx.rcv_nxt());
      EXPECT_GT(e, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConservationProperty,
    ::testing::Values(LoadCase{0.0, false, 4096, 1}, LoadCase{1.0, false, 4096, 2},
                      LoadCase{3.0, false, 4096, 3}, LoadCase{3.0, true, 4096, 4},
                      LoadCase{3.0, false, 1500, 5}, LoadCase{3.0, false, 9000, 6},
                      LoadCase{2.0, true, 1500, 7}, LoadCase{3.0, false, 4096, 8}),
    case_name);

// --- discretization insensitivity -----------------------------------

class QuantumInsensitivity : public ::testing::TestWithParam<double> {};

TEST_P(QuantumInsensitivity, ThroughputUnchangedByQuantum) {
  // Halving/doubling the MC scheduling quantum must not change macroscopic
  // behaviour (it is a numerical knob, not physics). The IIO admit latency
  // excludes the half-quantum wait, so compensate to keep effective l_m.
  const double quantum_ns = GetParam();
  exp::ScenarioConfig cfg;
  cfg.mapp_degree = 3.0;
  cfg.host.mc_quantum = sim::Time::nanoseconds(quantum_ns);
  cfg.host.iio_admit_latency =
      sim::Time::nanoseconds(320.0 - quantum_ns / 2.0);  // keep l_m_eff ~320ns
  cfg.warmup = sim::Time::milliseconds(250);
  cfg.measure = sim::Time::milliseconds(60);
  exp::Scenario s(cfg);
  const auto r = s.run();
  EXPECT_NEAR(r.net_tput_gbps, 41.0, 9.0) << "quantum " << quantum_ns << "ns";
}

// 50-150ns: stable. Coarser quanta visibly distort the closed-loop MApp
// calibration (grant batching), so they are out of the supported range.
INSTANTIATE_TEST_SUITE_P(Sweep, QuantumInsensitivity, ::testing::Values(50.0, 100.0, 150.0));

class ChunkInsensitivity : public ::testing::TestWithParam<sim::Bytes> {};

TEST_P(ChunkInsensitivity, ThroughputUnchangedByDmaChunk) {
  exp::ScenarioConfig cfg;
  cfg.mapp_degree = 3.0;
  cfg.host.dma_chunk_bytes = GetParam();
  cfg.warmup = sim::Time::milliseconds(250);
  cfg.measure = sim::Time::milliseconds(60);
  exp::Scenario s(cfg);
  const auto r = s.run();
  EXPECT_NEAR(r.net_tput_gbps, 41.0, 9.0) << "chunk " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChunkInsensitivity, ::testing::Values(512, 1024, 2048));

// --- determinism ------------------------------------------------------

TEST(DeterminismProperty, IdenticalSeedsIdenticalResults) {
  auto run = [] {
    exp::ScenarioConfig cfg;
    cfg.mapp_degree = 2.0;
    cfg.warmup = sim::Time::milliseconds(10);
    cfg.measure = sim::Time::milliseconds(20);
    exp::Scenario s(cfg);
    const auto r = s.run();
    return std::make_tuple(r.net_tput_gbps, r.host_drop_rate_pct, r.mapp_mem_gbps,
                           s.simulator().events_executed());
  };
  EXPECT_EQ(run(), run());
}

TEST(DeterminismProperty, DifferentSeedsDiverge) {
  auto run = [](std::uint64_t seed) {
    exp::ScenarioConfig cfg;
    cfg.mapp_degree = 3.0;
    cfg.host.ddio_enabled = true;  // DDIO placement is seed-dependent
    cfg.host.seed = seed;
    cfg.warmup = sim::Time::milliseconds(10);
    cfg.measure = sim::Time::milliseconds(20);
    exp::Scenario s(cfg);
    return s.run().net_tput_gbps;
  };
  // Stochastic components (MSR jitter, DDIO placement) must actually be
  // seeded: two seeds should not produce bit-identical throughput.
  EXPECT_NE(run(1), run(99));
}

// --- transport invariants under sweeps -------------------------------

class TransportInvariants : public ::testing::TestWithParam<int> {};

TEST_P(TransportInvariants, ReliableUnderRandomLossAndDelay) {
  const int seed = GetParam();
  testing::Testbed tb;
  sim::Rng rng(static_cast<std::uint64_t>(seed));
  // Random loss (2%) and random extra delay (0-20us, reordering!) a->b.
  tb.a_host.set_egress([&tb, &rng](const net::Packet& p) {
    const bool drop = p.payload > 0 && rng.bernoulli(0.02);
    if (!drop) {
      const sim::Time d = sim::Time::microseconds(5 + rng.uniform(0.0, 20.0));
      tb.sim.after(d, [&tb, p] { tb.b_host.receive_from_wire(p); });
    }
    tb.a_host.wire_dequeued(p);
  });
  auto [ca, cb] = tb.connect(1);
  const sim::Bytes total = 800'000;
  ca->write(total);
  tb.run_for(sim::Time::seconds(2));
  EXPECT_EQ(cb->delivered_bytes(), total) << "seed " << seed;
  EXPECT_EQ(cb->rcv_nxt(), total);
  EXPECT_EQ(ca->in_flight(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportInvariants, ::testing::Range(1, 6));

}  // namespace
}  // namespace hostcc
