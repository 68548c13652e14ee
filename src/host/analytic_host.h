// AnalyticHost: the cheap tier of the hybrid-fidelity host model. Where
// HostModel simulates the full NIC→PCIe→IIO→MC→CPU pipeline (including a
// 100ns memory-controller quantum lane that alone costs ~10k events per
// simulated millisecond per host), the analytic tier models a host as a
// token-bucket offered load plus a closed-form RTT/ECN response loop:
//
//   * the token bucket is the per-flow wire-inflight budget (the same TSQ
//     bound the full stack uses): packets are emitted into the uplink only
//     while fewer than tsq_limit_packets are being serialized, and the
//     bucket refills from the uplink's existing on_dequeue event — the
//     analytic host schedules NO periodic events of its own;
//   * the response loop reuses the exact transport::CongestionControl
//     implementations (DCTCP/Reno/Swift/DCQCN) driven per emitted burst:
//     every delivered packet is ACKed synchronously (zero host-side
//     latency), the ACK carries exact ECN echo / SACK / timestamp fields
//     identical to TcpConnection's wire format, and the per-flow cwnd is
//     updated from those ACKs. Loss repair is go-back-N from the
//     cumulative ACK (no per-segment scoreboard — that is the per-packet
//     state this tier exists to avoid); the only scheduled events are the
//     lazy per-flow RTO deadline chases, amortized O(1) per RTT.
//
// The wire format matches TcpConnection exactly, so an analytic endpoint
// interoperates with a full endpoint on the other side of a flow, and the
// FidelityManager can swap a host between tiers mid-flow by moving the
// TcpConnection::TransferState through export_flow()/adopt_flow().
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "host/host_port.h"
#include "net/packet.h"
#include "obs/flow_stats.h"
#include "sim/simulator.h"
#include "transport/connection.h"

namespace hostcc::host {

class AnalyticHost final : public HostPort {
 public:
  AnalyticHost(sim::Simulator& sim, std::string name, net::HostId id,
               transport::TransportConfig cfg);
  ~AnalyticHost() override;

  AnalyticHost(const AnalyticHost&) = delete;
  AnalyticHost& operator=(const AnalyticHost&) = delete;

  // --- HostPort (fabric seam) ---
  const std::string& name() const override { return name_; }
  void deliver(const net::PacketRef& p) override;
  void uplink_dequeued(const net::Packet& p) override;
  bool analytic() const override { return true; }

  // --- wiring ---
  void set_egress(std::function<void(net::PacketRef)> fn) { egress_ = std::move(fn); }
  void set_flow_stats(obs::FlowStats* fs) { fs_ = fs; }

  // --- flow endpoints (the scenario's flow table drives these) ---
  void open_sender(net::FlowId flow, net::HostId peer);
  void open_receiver(net::FlowId flow, net::HostId peer);
  bool has_sender(net::FlowId flow) const { return senders_.count(flow) > 0; }
  bool has_receiver(net::FlowId flow) const { return receivers_.count(flow) > 0; }

  void write(net::FlowId flow, sim::Bytes n);
  void set_infinite_source(net::FlowId flow, bool on);
  void set_on_send_complete(net::FlowId flow, std::function<void()> fn);
  void set_on_delivered(net::FlowId flow, std::function<void(sim::Bytes)> fn);

  // --- tier transfer (FidelityManager) ---
  // While inactive (promoted away) the analytic tier neither emits nor
  // ACKs; stray deliveries are ignored (the slot routes to the full tier).
  void set_active(bool on);
  bool active() const { return active_; }
  // Exports flow `flow`'s live state for restoring into a TcpConnection.
  transport::TcpConnection::TransferState export_flow(net::FlowId flow) const;
  // Adopts state exported from a TcpConnection after demotion.
  void adopt_flow(net::FlowId flow, const transport::TcpConnection::TransferState& st);
  // All senders idle (stream fully acked, finite) and no reassembly holes.
  bool quiescent() const;

  // --- accounting (scenario results) ---
  const transport::TcpConnection::Stats& flow_stats_of(net::FlowId flow) const;
  transport::TcpConnection::Stats totals() const;
  std::uint64_t arrived_pkts() const { return arrived_pkts_; }
  sim::Bytes delivered_bytes(net::FlowId flow) const;
  sim::Bytes cwnd(net::FlowId flow) const;

 private:
  struct SenderFlow {
    net::HostId peer = 0;
    net::SeqNum snd_una = 0;
    net::SeqNum snd_nxt = 0;
    net::SeqNum write_limit = 0;
    net::SeqNum retx_until = 0;  // seqs below this resend as retransmits
    bool infinite = false;
    bool episode_open = false;
    net::SeqNum episode_base = 0;
    std::unique_ptr<transport::CongestionControl> cc;
    sim::Bytes peer_rwnd = 0;
    int dup_acks = 0;
    bool in_recovery = false;
    net::SeqNum recovery_point = 0;
    sim::Time srtt = sim::Time::zero();
    sim::Time rttvar = sim::Time::zero();
    sim::Time rto;
    int rto_backoff = 1;
    // Lazy RTO deadline + chase event (same pattern as TcpConnection).
    sim::Time rto_deadline = sim::Time::max();
    sim::Time rto_event_at = sim::Time::max();
    sim::EventHandle rto_timer;
    std::function<void()> on_send_complete;
    transport::TcpConnection::Stats stats;
  };
  struct ReceiverFlow {
    net::HostId peer = 0;
    net::SeqNum rcv_nxt = 0;
    std::map<net::SeqNum, net::SeqNum> ooo;  // disjoint [begin, end)
    sim::Bytes ooo_bytes = 0;
    sim::Bytes delivered = 0;
    std::function<void(sim::Bytes)> on_delivered;
    transport::TcpConnection::Stats stats;  // acks_sent / ce_received
  };

  void try_send(net::FlowId flow, SenderFlow& f);
  void send_data(net::FlowId flow, SenderFlow& f, net::SeqNum seq, sim::Bytes len);
  void process_ack(net::FlowId flow, SenderFlow& f, const net::Packet& p);
  void enter_recovery(net::FlowId flow, SenderFlow& f);
  void receive_data(net::FlowId flow, ReceiverFlow& f, const net::Packet& p);
  void send_ack(net::FlowId flow, ReceiverFlow& f, const net::Packet& trigger);
  void arm_rto(net::FlowId flow, SenderFlow& f);
  void rto_event(net::FlowId flow);
  void maybe_complete_episode(net::FlowId flow, SenderFlow& f);
  std::uint64_t next_packet_id() { return (static_cast<std::uint64_t>(id_) << 40) | ++pkt_seq_; }
  sim::Bytes wire_budget() const { return cfg_.tsq_limit_packets * cfg_.mtu; }

  sim::Simulator& sim_;
  std::string name_;
  net::HostId id_;
  transport::TransportConfig cfg_;
  bool active_ = true;

  std::function<void(net::PacketRef)> egress_;
  obs::FlowStats* fs_ = nullptr;
  net::PacketPool pool_;
  std::uint64_t pkt_seq_ = 0;
  std::uint64_t arrived_pkts_ = 0;

  // std::map: deterministic iteration for quiescent()/totals().
  std::map<net::FlowId, SenderFlow> senders_;
  std::map<net::FlowId, ReceiverFlow> receivers_;
  std::map<net::FlowId, sim::Bytes> wire_queued_;  // bytes in the uplink FIFO
};

}  // namespace hostcc::host
