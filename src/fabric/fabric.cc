#include "fabric/fabric.h"

#include <algorithm>
#include <stdexcept>

namespace hostcc::fabric {

namespace {
// Deterministic per-switch seed differentiation (same mixer as the ECMP
// hash; the constant only has to decorrelate, not be secret).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t idx) {
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ull * (idx + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

Fabric::Fabric(sim::Simulator& sim, Topology topo, FabricSwitchConfig cfg, FabricShardHooks hooks)
    : sim_(sim), topo_(std::move(topo)), cfg_(cfg) {
  topo_.throw_if_invalid();
  const bool sharded = hooks.active();

  switch_of_node_.assign(topo_.node_count(), -1);
  for (int n : topo_.switch_nodes()) {
    FabricSwitchConfig sw_cfg = cfg_;
    sw_cfg.seed = mix_seed(cfg_.seed, switches_.size());
    switch_of_node_[n] = static_cast<int>(switches_.size());
    const int cell = sharded ? hooks.plan->cell_of_switch[switches_.size()] : 0;
    sim::Simulator& ssim = sharded ? hooks.cell_sim(cell) : sim_;
    cell_of_switch_.push_back(cell);
    sim_of_switch_.push_back(&ssim);
    switches_.push_back(
        std::make_unique<FabricSwitch>(ssim, topo_.nodes()[n].name, sw_cfg));
  }
  adjacency_.resize(switches_.size());

  // Switch-switch ports, in arc declaration order (deterministic — this is
  // also the cross-cell channel registration order, which pins the channel
  // ids that break same-time arrival ties). Cross-cell PFC pause channels
  // are deferred to a second pass below so the data channel ids are
  // byte-identical to a lossy build.
  struct PendingPfcChannel {
    std::shared_ptr<std::function<void(sim::Time, const net::Packet&)>> push;
    int from_cell;  // emitter's cell (the downstream switch)
    int to_cell;    // applier's cell (the upstream switch)
    int up_sw;
    int port;
  };
  std::vector<PendingPfcChannel> pending_pfc;

  for (const TopoArc& arc : topo_.arcs()) {
    const int from_sw = switch_of_node_[arc.from];
    const int to_sw = switch_of_node_[arc.to];
    if (from_sw < 0 || to_sw < 0) continue;  // host edges wired at attach
    FabricSwitch* next = switches_[to_sw].get();
    const bool cross = sharded && cell_of_switch_[from_sw] != cell_of_switch_[to_sw];
    // PFC: the ingress registered below gets this index (registration
    // order); the data sink stamps it so drained bytes release the charge.
    const int in_idx = cfg_.pfc_enabled ? next->ingress_count() : -1;
    FabricSwitch::PortSink sink;
    if (cross) {
      // Cross-cell hop: stamp the arrival time producer-side and hand off
      // through the epoch channel. The consumer's by-value ingress bridge
      // re-pools the packet on its own cell, so refcounts never cross a
      // thread. The propagation rides the stamped due time, never the
      // delivery port's extra delay.
      auto push = hooks.make_channel(
          cell_of_switch_[from_sw], cell_of_switch_[to_sw],
          [next, in_idx](const net::Packet& pkt) { next->ingress(pkt, in_idx); });
      sim::Simulator* src_sim = sim_of_switch_[from_sw];
      const sim::Time delay = arc.delay;
      sink = [push = std::move(push), src_sim, delay](const net::PacketRef& p) {
        push(src_sim->now() + delay, *p);
      };
    } else {
      sink = [next, in_idx](const net::PacketRef& p) { next->ingress(p, in_idx); };
    }
    const int port = add_switch_port(from_sw, arc, std::move(sink), cross);
    adjacency_[from_sw].push_back({port, to_sw});

    if (cfg_.pfc_enabled) {
      // The downstream's pause emitter applies XOFF/XON on the upstream's
      // egress port after the (reverse) propagation delay.
      FabricSwitch* up = switches_[from_sw].get();
      const sim::Time delay = arc.delay;
      FabricSwitch::PauseFn pfn;
      if (cross) {
        // Pause frames ride a dedicated reverse channel as pfc-tagged
        // Packets; the channel itself is registered in the second pass.
        auto push = std::make_shared<std::function<void(sim::Time, const net::Packet&)>>();
        sim::Simulator* em_sim = sim_of_switch_[to_sw];
        pfn = [push, em_sim, delay](int prio, bool on) {
          net::Packet f;
          f.size = 64;  // 802.1Qbb pause frame wire size
          f.prio = static_cast<std::uint8_t>(prio);
          f.pfc_frame = true;
          f.pfc_xoff = on;
          (*push)(em_sim->now() + delay, f);
        };
        pending_pfc.push_back(
            {push, cell_of_switch_[to_sw], cell_of_switch_[from_sw], from_sw, port});
      } else {
        sim::Simulator* up_sim = sim_of_switch_[from_sw];
        pfn = [up, up_sim, port, delay](int prio, bool on) {
          up_sim->after(delay, [up, port, prio, on] { up->set_port_pause(port, prio, on); });
        };
      }
      next->add_ingress(arc.link, std::move(pfn), pfc_headroom_for(arc));
      pause_relations_.push_back({to_sw, in_idx, -1, from_sw, port, nullptr, delay, arc.link});
    }
  }

  for (PendingPfcChannel& pc : pending_pfc) {
    FabricSwitch* up = switches_[pc.up_sw].get();
    const int port = pc.port;
    *pc.push = hooks.make_channel(pc.from_cell, pc.to_cell, [up, port](const net::Packet& f) {
      up->set_port_pause(port, f.prio, f.pfc_xoff);
    });
  }
}

sim::Bytes Fabric::pfc_headroom_for(const TopoArc& arc) const {
  // Worst-case flight between XOFF emission and the upstream stopping:
  // one RTT of line-rate bytes (pause frame out + data still arriving)
  // plus two jumbo frames mid-serialization. Rate-zero (ideal) links fall
  // back to the config default via add_ingress.
  if (arc.rate.is_zero()) return 0;
  return static_cast<sim::Bytes>(2.0 * arc.rate.bytes_in(arc.delay)) + 2 * 9216;
}

int Fabric::add_switch_port(int switch_idx, const TopoArc& arc, FabricSwitch::PortSink sink,
                            bool cross_cell) {
  // The delivery event carries the edge's propagation, except on
  // cross-cell ports, whose channel due stamp already does.
  const sim::Time extra = cross_cell ? sim::Time::zero() : arc.delay;
  const int port = switches_[switch_idx]->add_port(arc.link, arc.rate, std::move(sink), extra);
  edge_ports_[arc.link].push_back({switch_idx, port});
  return port;
}

const TopoArc* Fabric::uplink_arc_for(const std::string& host_name, int* host_node) const {
  const int node = topo_.find(host_name);
  if (node < 0 || !topo_.nodes()[node].is_host) {
    throw std::invalid_argument("fabric: no host named '" + host_name + "' in the topology");
  }
  *host_node = node;
  for (const TopoArc& arc : topo_.arcs()) {
    if (arc.from == node) return &arc;  // hosts are single-homed (validated)
  }
  throw std::invalid_argument("fabric: host '" + host_name + "' has no uplink arc");
}

net::Link& Fabric::attach_host(net::HostId id, const std::string& host_name, DeliverFn deliver) {
  if (hosts_.count(id)) {
    throw std::invalid_argument("fabric: host id " + std::to_string(id) + " attached twice");
  }
  int host_node = -1;
  const TopoArc* up = uplink_arc_for(host_name, &host_node);
  const int sw = switch_of_node_[up->to];

  HostAttach at;
  at.node = host_node;
  at.switch_idx = sw;
  at.edge_delay = up->delay;
  // Hosts live on their leaf's cell: the uplink Link schedules on the
  // leaf's simulator, which is sim_ itself on a single-simulator build.
  sim::Simulator& hsim = *sim_of_switch_[sw];
  at.uplink = std::make_unique<net::Link>(hsim, up->link, up->rate, up->delay);
  FabricSwitch* ingress_sw = switches_[sw].get();
  int in_idx = -1;
  if (cfg_.pfc_enabled) {
    // The leaf pauses the host by pausing its uplink Link (the NIC-side
    // FIFO holds the backlog losslessly), applied after the edge delay.
    net::Link* lk = at.uplink.get();
    sim::Simulator* hs = &hsim;
    const sim::Time d = up->delay;
    in_idx = ingress_sw->add_ingress(
        up->link,
        [lk, hs, d](int prio, bool on) {
          hs->after(d, [lk, prio, on] { lk->set_pfc_paused(prio, on); });
        },
        pfc_headroom_for(*up));
    pause_relations_.push_back({sw, in_idx, -1, -1, -1, at.uplink.get(), up->delay, up->link});
  }
  at.uplink->set_sink(
      [ingress_sw, in_idx](const net::PacketRef& p) { ingress_sw->ingress(p, in_idx); });

  // Switch->host delivery port: reuse the uplink arc for naming, rate and
  // delay — the reverse arc is guaranteed symmetric.
  at.host_port = add_switch_port(sw, *up, std::move(deliver));
  if (cfg_.pfc_enabled) {
    // Reverse direction: the host NIC (watermark via host_pause_request)
    // can pause the leaf's delivery port toward it.
    pause_relations_.push_back({-1, -1, static_cast<std::int64_t>(id), sw, at.host_port, nullptr,
                                up->delay, up->link});
  }

  net::Link& link = *at.uplink;
  hosts_.emplace(id, std::move(at));
  return link;
}

void Fabric::attach_host_direct(net::HostId id, const std::string& host_name, DeliverFn deliver) {
  if (hosts_.count(id)) {
    throw std::invalid_argument("fabric: host id " + std::to_string(id) + " attached twice");
  }
  int host_node = -1;
  const TopoArc* up = uplink_arc_for(host_name, &host_node);
  const int sw = switch_of_node_[up->to];

  HostAttach at;
  at.node = host_node;
  at.switch_idx = sw;
  // The whole one-way delay rides the delivery port (host->switch ingress
  // is synchronous), so end-to-end latency matches a single fixed-delay
  // pipe of the edge's delay.
  at.host_port = add_switch_port(sw, *up, std::move(deliver));
  hosts_.emplace(id, std::move(at));
}

void Fabric::finalize() {
  // Shortest-path ECMP: for each attached destination host, BFS over the
  // switch graph from its leaf; every port toward a neighbor one step
  // closer is an equal-cost next hop.
  std::vector<int> dist(switches_.size());
  std::vector<int> frontier;
  for (const auto& [id, at] : hosts_) {
    std::fill(dist.begin(), dist.end(), -1);
    frontier.clear();
    dist[at.switch_idx] = 0;
    frontier.push_back(at.switch_idx);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const int u = frontier[head];
      for (const auto& [port, v] : adjacency_[u]) {
        (void)port;
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          frontier.push_back(v);
        }
      }
    }
    for (int s = 0; s < switch_count(); ++s) {
      if (s == at.switch_idx) {
        switches_[s]->set_route(id, {at.host_port});
        continue;
      }
      if (dist[s] < 0) continue;  // unreachable (validation forbids this)
      std::vector<int> next_hops;
      for (const auto& [port, v] : adjacency_[s]) {
        if (dist[v] == dist[s] - 1) next_hops.push_back(port);
      }
      switches_[s]->set_route(id, std::move(next_hops));
    }
  }
}

bool Fabric::set_edge_down(const std::string& edge, bool down, int cell) {
  bool found = set_edge_port_down(edge, down, cell);
  for (auto& [id, at] : hosts_) {
    (void)id;
    if (at.uplink && at.uplink->name() == edge) {
      if (cell < 0 || cell_of_switch_[at.switch_idx] == cell) at.uplink->set_down(down);
      found = true;
    }
  }
  return found;
}

bool Fabric::set_edge_port_down(const std::string& edge, bool down, int cell) {
  auto it = edge_ports_.find(edge);
  if (it == edge_ports_.end()) return false;
  for (const SwitchPortRef& ref : it->second) {
    if (cell >= 0 && cell_of_switch_[ref.switch_idx] != cell) continue;
    switches_[ref.switch_idx]->set_port_down(ref.port, down);
  }
  return true;
}

bool Fabric::set_edge_rate_factor(const std::string& edge, double factor, int cell) {
  bool found = false;
  if (auto it = edge_ports_.find(edge); it != edge_ports_.end()) {
    for (const SwitchPortRef& ref : it->second) {
      if (cell >= 0 && cell_of_switch_[ref.switch_idx] != cell) continue;
      switches_[ref.switch_idx]->set_port_rate_factor(ref.port, factor);
    }
    found = true;
  }
  for (auto& [id, at] : hosts_) {
    (void)id;
    if (at.uplink && at.uplink->name() == edge) {
      if (cell < 0 || cell_of_switch_[at.switch_idx] == cell) at.uplink->set_rate_factor(factor);
      found = true;
    }
  }
  return found;
}

bool Fabric::set_edge_forced_pause(const std::string& edge, int prio, bool on, int cell) {
  bool found = false;
  if (auto it = edge_ports_.find(edge); it != edge_ports_.end()) {
    for (const SwitchPortRef& ref : it->second) {
      if (cell >= 0 && cell_of_switch_[ref.switch_idx] != cell) continue;
      switches_[ref.switch_idx]->set_port_forced_pause(ref.port, prio, on);
    }
    found = true;
  }
  for (auto& [id, at] : hosts_) {
    (void)id;
    if (at.uplink && at.uplink->name() == edge) {
      if (cell < 0 || cell_of_switch_[at.switch_idx] == cell)
        at.uplink->fault_force_pause(prio, on);
      found = true;
    }
  }
  return found;
}

bool Fabric::set_edge_xon_mute(const std::string& edge, bool on, int cell) {
  bool found = false;
  if (auto it = edge_ports_.find(edge); it != edge_ports_.end()) {
    for (const SwitchPortRef& ref : it->second) {
      if (cell >= 0 && cell_of_switch_[ref.switch_idx] != cell) continue;
      switches_[ref.switch_idx]->set_port_xon_mute(ref.port, on);
    }
    found = true;
  }
  for (auto& [id, at] : hosts_) {
    (void)id;
    if (at.uplink && at.uplink->name() == edge) {
      if (cell < 0 || cell_of_switch_[at.switch_idx] == cell) at.uplink->set_pfc_xon_mute(on);
      found = true;
    }
  }
  return found;
}

void Fabric::set_pause_ledger(PauseLedger* ledger, int cell) {
  for (int i = 0; i < switch_count(); ++i) {
    if (cell >= 0 && cell_of_switch_[i] != cell) continue;
    switches_[i]->set_pause_ledger(ledger);
  }
  for (auto& [id, at] : hosts_) {
    (void)id;
    if (!at.uplink) continue;
    if (cell >= 0 && cell_of_switch_[at.switch_idx] != cell) continue;
    net::Link* lk = at.uplink.get();
    if (!ledger) {
      lk->set_pfc_observer(nullptr);
      continue;
    }
    sim::Simulator* hs = sim_of_switch_[at.switch_idx];
    const std::string base = lk->name();
    lk->set_pfc_observer([ledger, hs, base](int prio, bool on) {
      ledger->record(base + "/p" + std::to_string(prio), on, hs->now());
    });
  }
}

void Fabric::host_pause_request(net::HostId id, int prio, bool on) {
  if (prio < 0 || prio >= net::kPfcPriorities) return;
  auto it = hosts_.find(id);
  if (it == hosts_.end()) return;
  HostAttach& at = it->second;
  if (at.wants_pause[prio] == on) return;
  sim::Simulator* ssim = sim_of_switch_[at.switch_idx];
  at.wants_pause[prio] = on;
  at.wants_change[prio] = ssim->now();
  if (on) {
    ++host_pfc_xoffs_;
  } else {
    ++host_pfc_xons_;
  }
  FabricSwitch* sw = switches_[at.switch_idx].get();
  const int port = at.host_port;
  ssim->after(at.edge_delay, [sw, port, prio, on] { sw->set_port_pause(port, prio, on); });
}

bool Fabric::host_wants_pause(net::HostId id, int prio) const {
  auto it = hosts_.find(id);
  return it != hosts_.end() && prio >= 0 && prio < net::kPfcPriorities &&
         it->second.wants_pause[prio];
}

sim::Time Fabric::host_wants_change(net::HostId id, int prio) const {
  auto it = hosts_.find(id);
  if (it == hosts_.end() || prio < 0 || prio >= net::kPfcPriorities) return sim::Time::zero();
  return it->second.wants_change[prio];
}

bool Fabric::has_edge(const std::string& edge) const { return edge_ports_.count(edge) > 0; }

std::vector<std::string> Fabric::edge_names() const {
  std::vector<std::string> out;
  for (const auto& [name, refs] : edge_ports_) {
    (void)refs;
    out.push_back(name);
  }
  return out;  // map iteration: already sorted
}

FabricSwitch* Fabric::find_switch(const std::string& name) {
  for (auto& sw : switches_) {
    if (sw->name() == name) return sw.get();
  }
  return nullptr;
}

net::Link* Fabric::uplink(net::HostId id) {
  auto it = hosts_.find(id);
  return it == hosts_.end() ? nullptr : it->second.uplink.get();
}

std::vector<net::HostId> Fabric::attached_hosts() const {
  std::vector<net::HostId> out;
  for (const auto& [id, at] : hosts_) {
    (void)at;
    out.push_back(id);
  }
  return out;
}

FabricSwitch::Totals Fabric::totals() const {
  FabricSwitch::Totals agg;
  for (const auto& sw : switches_) {
    const FabricSwitch::Totals t = sw->totals();
    agg.drops += t.drops;
    agg.marks += t.marks;
    agg.no_route_drops += t.no_route_drops;
    agg.occupancy += t.occupancy;
    if (t.occupancy_peak > agg.occupancy_peak) agg.occupancy_peak = t.occupancy_peak;
    agg.pfc_xoffs_sent += t.pfc_xoffs_sent;
    agg.pfc_xons_sent += t.pfc_xons_sent;
    agg.pfc_muted_xons += t.pfc_muted_xons;
  }
  // Host NIC pause requests are pause frames on the wire too; uplink
  // mutes (pfc_mute on a host edge) fold into the muted count.
  agg.pfc_xoffs_sent += host_pfc_xoffs_;
  agg.pfc_xons_sent += host_pfc_xons_;
  for (const auto& [id, at] : hosts_) {
    (void)id;
    if (at.uplink) agg.pfc_muted_xons += at.uplink->muted_xons();
  }
  return agg;
}

void Fabric::register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
  for (auto& sw : switches_) sw->register_metrics(reg, prefix + "/" + sw->name());
  for (auto& [id, at] : hosts_) {
    (void)id;
    if (at.uplink) at.uplink->register_metrics(reg, prefix + "/link/" + at.uplink->name());
  }
}

}  // namespace hostcc::fabric
