// Fabric: instantiates a validated Topology as live FabricSwitches, wires
// the switch-switch ports, attaches hosts behind their uplink Links, and
// computes the ECMP routing tables (shortest-path next-hop sets per
// destination host via BFS over the switch graph).
//
// Faults address *edges by topology name* ("h0-leaf0", "leaf0-spine1"):
//   set_edge_down       both directions — the switch-side egress ports of
//                       the edge plus the host uplink Link when the edge
//                       reaches a host (carrier loss on the whole cable)
//   set_edge_port_down  switch-side egress ports only (a wedged port; the
//                       host can still transmit into the dead port's queue)
//   set_edge_rate_factor degraded line rate on every lane of the edge
//   set_edge_forced_pause pause_storm: force-XOFF a priority on every lane
//   set_edge_xon_mute    pfc_mute: drop XON deliveries on every lane
//
// Lossless mode (cfg.pfc_enabled): every arc's downstream switch registers
// an ingress on itself whose pause emitter applies XOFF/XON at the
// *upstream* end (switch egress port, or host uplink Link) after the arc's
// propagation delay. Same-cell arcs schedule the apply directly; cross-cell
// arcs carry pause frames as pfc-tagged net::Packets through dedicated
// reverse ShardChannels registered *after* all data channels (second pass),
// so data channel ids — and hence same-time tie-breaks — are unchanged from
// a lossy build. Headroom per ingress is sized from the arc's rate-delay
// product (2x RTT-worth + 2 jumbo frames). The pause_relations() registry
// records every emitter/applier pair so the dangling-XOFF invariant can
// compare both ends, and hosts push NIC-watermark backpressure into their
// leaf's delivery port via host_pause_request().
//
// Determinism: switches, ports, and routes live in vectors built in
// topology order; host attaches iterate a sorted map; ECMP hashing draws
// no RNG. Per-switch RNG seeds (forwarding jitter) are differentiated
// deterministically from the base config seed.
//
// Delivery schedule: every switch port's delivery event carries the
// downstream arc's propagation (FabricSwitch::add_port's extra delay), so
// a hop costs no relay event; cross-cell ports carry it in the channel's
// due stamp instead.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric_switch.h"
#include "fabric/partition.h"
#include "fabric/topology.h"
#include "net/link.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace hostcc::fabric {

// Sharded-execution wiring (sim::ShardedSimulator + sim::ShardChannels).
// When `plan` is set and has > 1 cell, each switch is built on its cell's
// simulator (via `cell_sim`) and every cross-cell switch-switch arc sends
// through a channel obtained from `make_channel` instead of a direct port
// sink. A 1-cell plan, or no plan at all, builds every switch on the
// constructor's simulator: exp::FabricScenario passes its 1-cell plan for
// star topologies, and the unit testbeds pass no hooks.
struct FabricShardHooks {
  const ShardPlan* plan = nullptr;
  // Returns the simulator that owns `cell`.
  std::function<sim::Simulator&(int cell)> cell_sim;
  // Registers a channel from_cell -> to_cell whose consumer-side delivery
  // is `deliver`; returns the producer-side push(due, packet) function.
  std::function<std::function<void(sim::Time, const net::Packet&)>(
      int from_cell, int to_cell, std::function<void(const net::Packet&)> deliver)>
      make_channel;

  bool active() const { return plan != nullptr && plan->parallel(); }
};

class Fabric {
 public:
  using DeliverFn = std::function<void(const net::PacketRef&)>;

  // Validates `topo` (throws std::invalid_argument, aggregated) and builds
  // every switch and switch-switch port. Without active `hooks` everything
  // lives on `sim` (unit testbeds); with them, switches live on their
  // cell's simulator, cross-cell arcs hand off through
  // `hooks.make_channel`, and `sim` stays the cell-0 / fallback simulator.
  Fabric(sim::Simulator& sim, Topology topo, FabricSwitchConfig cfg, FabricShardHooks hooks = {});

  // Attaches a full host: an uplink net::Link (host-side serialization +
  // propagation, named after the topology edge so faults can address it)
  // into the host's leaf switch, plus the switch->host delivery port.
  // The caller wires host egress -> returned Link's send() and the Link's
  // on_dequeue -> HostModel::wire_dequeued. `deliver` receives packets
  // leaving the fabric toward this host.
  net::Link& attach_host(net::HostId id, const std::string& host_name, DeliverFn deliver);

  // Ideal attach for unit testbeds: no uplink Link. The host's egress
  // calls host_ingress() synchronously (zero host->switch latency); the
  // whole one-way delay of the edge rides the switch->host delivery port.
  // Build the topology with zero link rates for serialization-free pipes.
  void attach_host_direct(net::HostId id, const std::string& host_name, DeliverFn deliver);

  // Host->fabric entry for direct-attached hosts.
  void host_ingress(net::HostId id, const net::PacketRef& p) {
    switches_[hosts_.at(id).switch_idx]->ingress(p);
  }

  // Computes ECMP routes for every attached host on every switch. Call
  // once, after all attach_host calls.
  void finalize();

  // --- edge-name fault surface (returns false for unknown edges) ---
  // `cell` >= 0 restricts the side effects to ports/uplinks owned by that
  // cell (sharded runs apply each fault once per cell, on the cell's own
  // thread); the return value still reports whether the edge exists.
  bool set_edge_down(const std::string& edge, bool down, int cell = -1);
  bool set_edge_port_down(const std::string& edge, bool down, int cell = -1);
  bool set_edge_rate_factor(const std::string& edge, double factor, int cell = -1);
  // pause_storm: force-XOFF `prio` on every switch-side lane of the edge
  // (and the host uplink when the edge reaches a host).
  bool set_edge_forced_pause(const std::string& edge, int prio, bool on, int cell = -1);
  // pfc_mute: drop XON deliveries on every lane of the edge while active.
  bool set_edge_xon_mute(const std::string& edge, bool on, int cell = -1);
  bool has_edge(const std::string& edge) const;
  std::vector<std::string> edge_names() const;  // sorted, for error messages

  // --- PFC surface (lossless mode) ---

  // Routes applied pause transitions on `cell`'s switches and host uplinks
  // into `ledger` (sharded runs: one ledger per cell, merged at quiesce).
  void set_pause_ledger(PauseLedger* ledger, int cell = -1);

  // One emitter/applier pause pair, for the dangling-XOFF invariant and
  // the pause-dependency (wait-for) graph. Emitter is either a downstream
  // switch ingress (dn_switch >= 0) or a host NIC watermark (host >= 0);
  // applier is either an upstream switch egress port or a host uplink.
  struct PauseRelation {
    int dn_switch = -1;
    int in_idx = -1;
    std::int64_t host = -1;  // net::HostId, -1 = none
    int up_switch = -1;
    int up_port = -1;
    net::Link* uplink = nullptr;
    sim::Time delay;
    std::string edge;
  };
  const std::vector<PauseRelation>& pause_relations() const { return pause_relations_; }

  // Host NIC backpressure: pause/resume the leaf's delivery port toward
  // this host (applied after the uplink edge's propagation delay).
  void host_pause_request(net::HostId id, int prio, bool on);
  bool host_wants_pause(net::HostId id, int prio) const;
  sim::Time host_wants_change(net::HostId id, int prio) const;

  int switch_count() const { return static_cast<int>(switches_.size()); }
  FabricSwitch& switch_at(int i) { return *switches_.at(i); }
  const FabricSwitch& switch_at(int i) const { return *switches_.at(i); }
  FabricSwitch* find_switch(const std::string& name);
  net::Link* uplink(net::HostId id);  // null for direct-attached hosts
  const Topology& topology() const { return topo_; }
  std::vector<net::HostId> attached_hosts() const;  // sorted

  // --- shard placement (all zeros / &sim on a single-simulator build) ---
  int cell_of_switch(int i) const { return cell_of_switch_.at(i); }
  int host_cell(net::HostId id) const { return cell_of_switch_.at(hosts_.at(id).switch_idx); }
  sim::Simulator& switch_sim(int i) { return *sim_of_switch_.at(i); }

  // Leaf placement of an attached host (hybrid-fidelity promotion watches
  // the leaf's delivery-port occupancy toward the host).
  int host_switch_idx(net::HostId id) const { return hosts_.at(id).switch_idx; }
  int host_port_idx(net::HostId id) const { return hosts_.at(id).host_port; }

  // Aggregate drop/mark/occupancy totals across every switch.
  FabricSwitch::Totals totals() const;

  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix);

 private:
  struct HostAttach {
    int node = -1;        // topology node index
    int switch_idx = -1;  // index into switches_
    int host_port = -1;   // switch->host port on that switch
    std::unique_ptr<net::Link> uplink;  // null for direct attach
    sim::Time edge_delay;               // uplink arc propagation
    // NIC-watermark emitter state (what the host currently wants), for the
    // dangling-XOFF comparison against the leaf port's applied state.
    bool wants_pause[net::kPfcPriorities] = {};
    sim::Time wants_change[net::kPfcPriorities] = {};
  };
  struct SwitchPortRef {
    int switch_idx;
    int port;
  };

  const TopoArc* uplink_arc_for(const std::string& host_name, int* host_node) const;
  int add_switch_port(int switch_idx, const TopoArc& arc, FabricSwitch::PortSink sink,
                      bool cross_cell = false);
  // Ingress headroom from the arc's rate-delay product (0 = config default
  // for ideal rate-zero links).
  sim::Bytes pfc_headroom_for(const TopoArc& arc) const;

  sim::Simulator& sim_;
  Topology topo_;
  FabricSwitchConfig cfg_;

  std::vector<std::unique_ptr<FabricSwitch>> switches_;
  std::vector<int> switch_of_node_;  // topology node -> switches_ index or -1
  std::vector<int> cell_of_switch_;           // switches_ index -> cell
  std::vector<sim::Simulator*> sim_of_switch_;  // switches_ index -> owning sim
  // Per switch: (port, neighbor switch) pairs for the BFS route computation.
  std::vector<std::vector<std::pair<int, int>>> adjacency_;
  std::map<net::HostId, HostAttach> hosts_;  // sorted: deterministic iteration
  std::map<std::string, std::vector<SwitchPortRef>> edge_ports_;
  std::vector<PauseRelation> pause_relations_;
  std::uint64_t host_pfc_xoffs_ = 0;  // host NIC pause requests (frames)
  std::uint64_t host_pfc_xons_ = 0;
};

}  // namespace hostcc::fabric
