// Unit tests for net::Link: serialization + propagation, the dequeue hook,
// and the byte meter. The switch is covered in fabric_test.cc.
#include "net/link.h"

#include <gtest/gtest.h>

namespace hostcc::net {
namespace {

Packet make_pkt(HostId dst, sim::Bytes size, Ecn ecn = Ecn::kEct0) {
  Packet p;
  p.dst = dst;
  p.size = size;
  p.payload = size - kHeaderBytes;
  p.ecn = ecn;
  return p;
}

TEST(LinkTest, DeliversAfterSerializationPlusPropagation) {
  sim::Simulator sim;
  Link link(sim, "l", sim::Bandwidth::gbps(100.0), sim::Time::microseconds(5));
  sim::Time delivered_at;
  link.set_sink([&](const Packet&) { delivered_at = sim.now(); });
  link.send(make_pkt(0, 4096));
  sim.run();
  // 4096B at 100Gbps = 327.68ns, plus 5us propagation.
  EXPECT_NEAR(delivered_at.us(), 5.328, 0.01);
}

TEST(LinkTest, BackToBackPacketsSerialize) {
  sim::Simulator sim;
  Link link(sim, "l", sim::Bandwidth::gbps(100.0), sim::Time::zero());
  std::vector<double> times;
  link.set_sink([&](const Packet&) { times.push_back(sim.now().ns()); });
  link.send(make_pkt(0, 4096));
  link.send(make_pkt(0, 4096));
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[1] - times[0], 327.68, 0.5);
}

TEST(LinkTest, OnDequeueFiresAtSerializationEnd) {
  sim::Simulator sim;
  Link link(sim, "l", sim::Bandwidth::gbps(100.0), sim::Time::microseconds(50));
  sim::Time dequeued_at;
  link.set_on_dequeue([&](const Packet&) { dequeued_at = sim.now(); });
  link.set_sink([](const Packet&) {});
  link.send(make_pkt(0, 4096));
  sim.run();
  // Dequeue happens before propagation completes.
  EXPECT_NEAR(dequeued_at.ns(), 327.68, 0.5);
}

TEST(LinkTest, MeterCountsBytes) {
  sim::Simulator sim;
  Link link(sim, "l", sim::Bandwidth::gbps(100.0), sim::Time::zero());
  link.set_sink([](const Packet&) {});
  link.send(make_pkt(0, 1000));
  link.send(make_pkt(0, 2000));
  sim.run();
  EXPECT_EQ(link.meter().total_bytes(), 3000);
  EXPECT_EQ(link.meter().total_ops(), 2u);
}

}  // namespace
}  // namespace hostcc::net
