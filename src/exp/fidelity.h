// Host fidelity tiers for FabricScenario.
//
// FabricScenario reaches every host through one HostSlot, whatever the
// fidelity mode. A HostSlot owns both models of one host behind its fabric
// uplink — the cheap flow-level AnalyticHost (always constructed) and a
// full packet-level HostModel kit (HostModel + Stack + TcpConnections +
// invariant checker), built at commit() when the slot is pinned full and
// lazily on first promotion otherwise — and routes the fabric's two seam
// callbacks (deliver / uplink-dequeue) to whichever tier is active.
// Tier swaps move per-flow transport state through
// TcpConnection::TransferState: promotion restores the analytic flows
// into freshly connected TcpConnections (go-back-N from the cumulative
// ACK, so no byte is ever lost), demotion exports them back and parks the
// HostModel (its 100ns memory-controller lane stops).
//
// The FidelityManager is the congestion watcher: one per cell, ticking on
// the cell's own simulator at the telemetry cadence (5us), so decisions
// are driven purely by simulated time — deterministic, and shard-safe
// because a slot, its uplink, and its leaf switch are always co-located
// in one cell. It promotes an analytic host when the leaf's delivery
// port toward it crosses the occupancy threshold or its uplink is
// PFC-paused (which is how a pause_storm fault forces promotion), and
// demotes a full host after a quiescence window of transfer-idle flows
// and an empty pipeline.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric.h"
#include "faults/invariants.h"
#include "host/analytic_host.h"
#include "host/host.h"
#include "host/host_port.h"
#include "obs/decision_log.h"
#include "obs/flow_stats.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "transport/stack.h"

namespace hostcc::exp {

// Scenario-level fidelity mode (--fidelity full|analytic|auto).
enum class HostFidelity {
  kFull,      // every slot pinned full: a packet-level HostModel per host
  kAnalytic,  // every host is flow-level; no promotion machinery
  kAuto,      // analytic by default, congestion-triggered promotion
};

inline const char* host_fidelity_name(HostFidelity f) {
  switch (f) {
    case HostFidelity::kFull: return "full";
    case HostFidelity::kAnalytic: return "analytic";
    case HostFidelity::kAuto: return "auto";
  }
  return "?";
}

class HostSlot {
 public:
  struct Config {
    net::HostId id = 0;
    std::string name;
    host::HostConfig host;             // seed already mixed, ddio already set
    transport::TransportConfig transport;
    bool lossless = false;
    // Full kit built and activated at commit(), never demoted: every host
    // under kFull, the congested destinations under kAuto.
    bool pinned_full = false;
    bool check_invariants = true;      // per-kit conservation checker
    std::uint64_t messages_per_flow = 0;  // closed-loop message cap, 0 = endless
  };

  HostSlot(sim::Simulator& sim, Config cfg);
  ~HostSlot();

  HostSlot(const HostSlot&) = delete;
  HostSlot& operator=(const HostSlot&) = delete;

  // Fabric wiring, after Fabric::attach_host returned the uplink.
  void wire(fabric::Fabric* fab, net::Link* uplink, int switch_idx, int port_idx);
  void set_flow_stats(obs::FlowStats* fs) { fs_ = fs; }

  // Flow registration (before commit()).
  void add_sender(net::FlowId flow, net::HostId peer, sim::Bytes bytes);
  void add_receiver(net::FlowId flow, net::HostId peer);
  // Builds the starting tier (the full kit when cfg.pinned_full) once flows
  // are registered.
  void commit();
  // Kicks flow `flow`: infinite source when its bytes == 0, else the first
  // closed-loop message.
  void start_flow(net::FlowId flow);

  // --- the fabric seam ---
  void deliver(const net::PacketRef& p) { active_->deliver(p); }
  void uplink_dequeued(const net::Packet& p);

  // --- tier swap protocol (FidelityManager / tests) ---
  void promote(sim::Time now);
  void demote(sim::Time now);
  bool full_active() const { return full_active_; }
  bool pinned() const { return cfg_.pinned_full; }
  // Demotion precondition: every connection transfer-idle, the host
  // pipeline drained, and nothing still serializing on the uplink.
  bool demote_ready() const;
  int quiet_ticks = 0;  // manager's quiescence-window counter

  // --- introspection / accounting ---
  const std::string& name() const { return cfg_.name; }
  net::HostId id() const { return cfg_.id; }
  int switch_idx() const { return switch_idx_; }
  int port_idx() const { return port_idx_; }
  net::Link* uplink() { return uplink_; }
  host::HostModel* full_host() { return full_host_.get(); }
  transport::Stack* stack() { return stack_.get(); }
  host::AnalyticHost& analytic() { return *analytic_; }
  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t demotions() const { return demotions_; }

  // Receiver-side goodput across both tiers (one meter, fed by whichever
  // tier delivers).
  sim::Bandwidth goodput_since_mark(sim::Time now) { return meter_.checkpoint(now); }
  sim::Bytes delivered_bytes(net::FlowId flow) const;
  // NIC-level arrival/drop counters; the analytic tier never drops.
  std::uint64_t arrived_pkts() const;
  std::uint64_t dropped_pkts() const;
  // Transport sender stats summed across tiers and this slot's sender flows.
  transport::TcpConnection::Stats sender_stats() const;
  std::uint64_t invariant_violations() const {
    return checker_ ? checker_->total_violations() : 0;
  }
  faults::InvariantChecker* checker() { return checker_.get(); }

 private:
  struct FlowSlot {
    net::FlowId flow = 0;
    net::HostId peer = 0;
    bool sender = false;
    sim::Bytes bytes = 0;  // 0 = infinite source
    std::uint64_t messages_done = 0;
  };

  void build_full_kit();
  void on_message_complete(net::FlowId flow);
  FlowSlot& flow_slot(net::FlowId flow);

  sim::Simulator& sim_;
  Config cfg_;
  fabric::Fabric* fabric_ = nullptr;
  net::Link* uplink_ = nullptr;
  int switch_idx_ = -1;
  int port_idx_ = -1;
  obs::FlowStats* fs_ = nullptr;

  std::unique_ptr<host::AnalyticHost> analytic_;
  std::unique_ptr<host::HostModel> full_host_;       // lazy
  std::unique_ptr<transport::Stack> stack_;          // lazy, with full_host_
  std::unique_ptr<host::FullHostPort> full_port_;    // lazy
  std::unique_ptr<faults::InvariantChecker> checker_;  // lazy, with the kit
  host::HostPort* active_ = nullptr;
  bool full_active_ = false;

  std::vector<FlowSlot> flows_;
  sim::IntervalMeter meter_;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
};

struct FidelityConfig {
  // Promote when the leaf's delivery-port queue toward the host reaches
  // this many bytes (or the uplink is PFC-paused, regardless of depth).
  sim::Bytes promote_threshold = 64 * 1024;
  // Ticks ride the telemetry lane's cadence.
  sim::Time period = sim::Time::microseconds(5);
  // Demote after this long continuously quiescent.
  sim::Time demote_quiescence = sim::Time::microseconds(100);
};

// One per cell; watches that cell's slots on the cell's own simulator.
class FidelityManager {
 public:
  FidelityManager(sim::Simulator& sim, FidelityConfig cfg, fabric::Fabric* fab,
                  std::vector<HostSlot*> slots);

  void set_decision_log(obs::DecisionLog* log) { log_ = log; }
  void start() { timer_.start(); }
  void stop() { timer_.stop(); }

  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t demotions() const { return demotions_; }

 private:
  void tick();
  void record(const HostSlot& s, obs::DecisionReason r, double queue_bytes);

  sim::Simulator& sim_;
  FidelityConfig cfg_;
  fabric::Fabric* fabric_;
  std::vector<HostSlot*> slots_;  // id order — deterministic scan
  obs::DecisionLog* log_ = nullptr;
  int quiescence_ticks_ = 1;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  sim::PeriodicTimer timer_;
};

}  // namespace hostcc::exp
