#include "exp/fabric_scenario.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace hostcc::exp {

namespace {

// Deterministic per-host seed differentiation (mirrors the fabric's
// per-switch mixer so host i is reproducible independent of host count).
std::uint64_t mix_host_seed(std::uint64_t seed, std::uint64_t idx) {
  std::uint64_t x = seed ^ (0xd1b54a32d192ed03ull * (idx + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// "<origin> '<spec>': " for a fault parsed from a spec, so an error about
// it names the flag or scenario-file line to fix; empty for one built in
// code.
std::string fault_source(const faults::FaultEvent& ev) {
  if (ev.spec.empty()) return "";
  return (ev.origin.empty() ? "" : ev.origin + " ") + "'" + ev.spec + "': ";
}

}  // namespace

std::vector<std::string> validate(const FabricScenarioConfig& cfg,
                                  std::optional<fabric::Topology>* topo_out,
                                  workload::SizeCdf* cdf_out) {
  std::string topo_err;
  std::optional<fabric::Topology> topo = fabric::Topology::parse(cfg.topology, &topo_err);
  std::vector<std::string> errs = host::validate(cfg.host);
  if (cfg.hostcc_enabled) {
    for (auto& e : core::validate(cfg.hostcc)) errs.push_back(std::move(e));
  }
  for (auto& e : cfg.faults.validate()) errs.push_back(std::move(e));
  if (!topo) {
    errs.push_back("fabric_scenario.topology: " + topo_err);
  } else {
    for (auto& e : topo->validate()) errs.push_back(std::move(e));
  }
  if (cfg.flows_per_pair < 1) {
    errs.push_back("fabric_scenario.flows_per_pair must be >= 1 (got " +
                   std::to_string(cfg.flows_per_pair) + ")");
  }
  if (cfg.flow_bytes < 0) {
    errs.push_back("fabric_scenario.flow_bytes must be >= 0 (got " +
                   std::to_string(cfg.flow_bytes) + ")");
  }
  if (cfg.shards < 1) {
    errs.push_back("fabric_scenario.shards must be >= 1 worker thread (got " +
                   std::to_string(cfg.shards) + ")");
  }
  if (cfg.mapp_degree < 0.0) errs.push_back("fabric_scenario.mapp_degree must be >= 0");
  if (cfg.congested_hosts < 0) errs.push_back("fabric_scenario.congested_hosts must be >= 0");
  if (cfg.warmup < sim::Time::zero() || cfg.measure < sim::Time::zero()) {
    errs.push_back("fabric_scenario.warmup/measure must be >= 0");
  }
  if (cfg.flow_stagger < sim::Time::zero()) {
    errs.push_back("fabric_scenario.flow_stagger must be >= 0");
  }
  if (cfg.storm_breaker && !cfg.lossless && !cfg.fabric.pfc_enabled) {
    errs.push_back("fabric_scenario.storm_breaker requires lossless mode (--lossless)");
  }
  if (cfg.messages_per_flow > 0 && cfg.flow_bytes <= 0) {
    errs.push_back("fabric_scenario.messages_per_flow requires flow_bytes > 0 "
                   "(closed-loop messages)");
  }
  if (cfg.promote_threshold <= 0) {
    errs.push_back("fabric_scenario.promote_threshold must be > 0 bytes");
  }
  // The analytic tier models no MSR/MBA/sampler surface and cannot host a
  // controller; faults and knobs that need one must name the tier so the
  // failure is actionable (--fidelity auto keeps destinations full).
  if (cfg.fidelity == HostFidelity::kAnalytic) {
    if (cfg.hostcc_enabled) {
      errs.push_back("fabric_scenario.hostcc_enabled needs a full-tier host for the "
                     "controller, but every host is analytic-tier under --fidelity "
                     "analytic (use --fidelity full or auto)");
    }
    for (const faults::FaultEvent& ev : cfg.faults.events) {
      const char* surface = nullptr;
      switch (ev.kind) {
        case faults::FaultKind::kMsrStall:
        case faults::FaultKind::kMsrFreeze:
        case faults::FaultKind::kMsrTorn:
          surface = "MSR bank";
          break;
        case faults::FaultKind::kMbaWriteFail:
        case faults::FaultKind::kMbaWriteDelay:
          surface = "MBA actuator";
          break;
        case faults::FaultKind::kSamplerPause:
          surface = "signal sampler";
          break;
        default:
          break;
      }
      if (surface) {
        errs.push_back(std::string("fault ") + faults::fault_kind_name(ev.kind) +
                       ": targets host h0's " + surface + ", but h0 is an analytic-tier "
                       "host under --fidelity analytic (the flow-level tier has no " +
                       surface + "; use --fidelity full or auto)");
      }
    }
  }
  if (topo) {
    const int avail = topo->host_count();
    if (cfg.hosts < 0 || cfg.hosts > avail) {
      errs.push_back("fabric_scenario.hosts must be in [0, " + std::to_string(avail) +
                     "] for topology '" + cfg.topology + "' (got " + std::to_string(cfg.hosts) +
                     ")");
    } else if (const int n = cfg.hosts > 0 ? cfg.hosts : avail; n < 2) {
      errs.push_back("fabric_scenario: need >= 2 participating hosts (topology '" +
                     cfg.topology + "' with hosts=" + std::to_string(cfg.hosts) + " gives " +
                     std::to_string(n) + ")");
    }
    // Edge-name fault targets must exist in this topology.
    for (const faults::FaultEvent& ev : cfg.faults.events) {
      if (ev.target_edge.empty()) continue;
      bool found = false;
      for (const fabric::TopoArc& a : topo->arcs()) {
        if (a.link == ev.target_edge) {
          found = true;
          break;
        }
      }
      if (!found) {
        // List the topology's edge names so a typo'd plan is fixable from
        // the error alone (arc pairs share a link name; dedupe).
        std::string known;
        std::vector<std::string> seen;
        for (const fabric::TopoArc& a : topo->arcs()) {
          if (std::find(seen.begin(), seen.end(), a.link) != seen.end()) continue;
          seen.push_back(a.link);
          if (!known.empty()) known += ", ";
          known += a.link;
        }
        errs.push_back(fault_source(ev) + "fault " + faults::fault_kind_name(ev.kind) + ": edge '" +
                       ev.target_edge + "' does not exist in topology '" + cfg.topology +
                       "' (known edges: " + known + ")");
      }
    }
    // A pause-class fault aimed at a host uplink needs a host that can be
    // back-pressured: under --fidelity analytic there is nothing to pause
    // (and no manager to promote), so the plan is rejected with the tier
    // named; under auto the FidelityManager sees the forced pause on the
    // uplink and promotes the host instead.
    if (cfg.fidelity == HostFidelity::kAnalytic) {
      const std::vector<int> hnodes = topo->host_nodes();
      const int n = cfg.hosts > 0 ? cfg.hosts : static_cast<int>(hnodes.size());
      for (const faults::FaultEvent& ev : cfg.faults.events) {
        if (ev.target_edge.empty()) continue;
        if (ev.kind != faults::FaultKind::kPauseStorm &&
            ev.kind != faults::FaultKind::kPfcMute) {
          continue;
        }
        std::string hit;
        for (const fabric::TopoArc& a : topo->arcs()) {
          if (a.link != ev.target_edge) continue;
          for (int i = 0; i < n && hit.empty(); ++i) {
            if (hnodes[i] == a.from || hnodes[i] == a.to) {
              hit = topo->nodes()[hnodes[i]].name;
            }
          }
          if (!hit.empty()) break;
        }
        if (!hit.empty()) {
          errs.push_back(fault_source(ev) + "fault " + faults::fault_kind_name(ev.kind) +
                         ": edge '" + ev.target_edge + "' reaches host '" + hit +
                         "', an analytic-tier host under --fidelity analytic — pause cannot "
                         "back-pressure the flow-level tier (use --fidelity auto, where the "
                         "storm forces promotion to the full tier)");
        }
      }
    }
  }
  if (cfg.workload.enabled) {
    for (auto& e : workload::validate(cfg.workload)) errs.push_back(std::move(e));
    workload::SizeCdf cdf = workload::SizeCdf::parse(cfg.workload.size_dist, errs);
    if (cdf_out) *cdf_out = std::move(cdf);
    if (cfg.fidelity == HostFidelity::kAnalytic) {
      errs.push_back(
          "fabric_scenario.workload: the flow-level tier cannot open or retire "
          "connections, so the workload engine needs packet-level hosts (use "
          "--fidelity full or auto; auto is coerced to full)");
    }
  }
  if (topo_out) *topo_out = std::move(topo);
  return errs;
}

FabricScenario::FabricScenario(FabricScenarioConfig cfg) : cfg_(std::move(cfg)) { build(); }
FabricScenario::~FabricScenario() = default;

core::HostCcController* FabricScenario::controller(int i) {
  return i < static_cast<int>(controllers_.size()) ? controllers_[i].get() : nullptr;
}

host::HostModel& FabricScenario::host(int i) {
  host::HostModel* h = slots_.at(i)->full_host();
  if (!h) throw std::out_of_range("FabricScenario::host: host has no packet-level kit");
  return *h;
}

transport::Stack& FabricScenario::stack(int i) {
  transport::Stack* st = slots_.at(i)->stack();
  if (!st) throw std::out_of_range("FabricScenario::stack: host has no packet-level kit");
  return *st;
}

std::string FabricScenario::fabric_invariants_report() const {
  if (fabric_checkers_.empty()) return "";
  std::vector<const faults::FabricInvariantChecker*> cs;
  for (const auto& c : fabric_checkers_) cs.push_back(c.get());
  return faults::FabricInvariantChecker::report(cs);
}

void FabricScenario::build() {
  std::optional<fabric::Topology> topo;
  if (const std::vector<std::string> errs = validate(cfg_, &topo, &workload_cdf_);
      !errs.empty()) {
    std::string joined = "invalid fabric scenario config:";
    for (const std::string& e : errs) joined += "\n  - " + e;
    throw std::invalid_argument(joined);
  }
  if (cfg_.workload.enabled) {
    // Flow churn lives on pooled packet-level stacks; pin every host to the
    // full tier (kAuto would otherwise start senders analytic, and an
    // AnalyticHost cannot churn). FCT accounting is the workload's primary
    // product, so it is always on here.
    if (cfg_.fidelity == HostFidelity::kAuto) cfg_.fidelity = HostFidelity::kFull;
    cfg_.record_flow_stats = true;
  }

  // Lossless mode and switch PFC are one knob viewed from two layers:
  // cfg.lossless turns on the switches' PFC machinery, and setting
  // fabric.pfc_enabled directly gets the scenario-level wiring (NIC
  // watermarks, pause ledger, deep invariants) too.
  if (cfg_.fabric.pfc_enabled) cfg_.lossless = true;
  if (cfg_.lossless) cfg_.fabric.pfc_enabled = true;

  const std::vector<int> host_nodes = topo->host_nodes();
  const int n_hosts = cfg_.hosts > 0 ? cfg_.hosts : static_cast<int>(host_nodes.size());

  // Partition the topology into per-switch cells, build one event loop
  // per cell, and register one SPSC channel per cross-cell arc (in
  // topology arc order — the deterministic delivery tie-break).
  // `--shards N` only picks how many threads execute the cells; the
  // partition and the channels are pure functions of the topology, which
  // is why output is byte-identical for every N.
  plan_ = fabric::partition_topology(*topo);
  engine_ = std::make_unique<sim::ShardedSimulator>(plan_.cells, plan_.lookahead, cfg_.shards);
  channels_ = std::make_unique<sim::ShardChannels<net::Packet>>(plan_.cells);
  engine_->set_epoch_hook([this](int cell, std::int64_t epoch, sim::Time window_end) {
    channels_->begin_epoch(cell, epoch, window_end, engine_->cell(cell));
  });
  fabric::FabricShardHooks hooks;
  hooks.plan = &plan_;
  hooks.cell_sim = [this](int c) -> sim::Simulator& { return engine_->cell(c); };
  hooks.make_channel = [this](int from_cell, int to_cell,
                              std::function<void(const net::Packet&)> deliver) {
    const int id = channels_->add_channel(from_cell, to_cell, std::move(deliver));
    return [this, id](sim::Time due, const net::Packet& p) { channels_->push(id, due, p); };
  };
  fabric_ = std::make_unique<fabric::Fabric>(engine_->cell(0), *topo, cfg_.fabric,
                                             std::move(hooks));
  const int ncells = plan_.cells;
  host_cell_.assign(n_hosts, 0);
  for (int i = 0; i < n_hosts; ++i) host_cell_[i] = plan_.cell_of_node[host_nodes[i]];

  // Flow destinations: incast concentrates on host 0; all-to-all makes
  // every host a destination. MApps/hostCC ride the first
  // `congested_hosts` destinations.
  destinations_.clear();
  if (cfg_.traffic == FabricTraffic::kIncast && !cfg_.workload.enabled) {
    destinations_.push_back(0);
  } else {
    // All-to-all — and always under the workload engine, where every host
    // is both sender and receiver regardless of the configured pattern.
    for (int i = 0; i < n_hosts; ++i) destinations_.push_back(i);
  }
  const auto is_destination = [this](int i) {
    for (int d : destinations_)
      if (d == i) return true;
    return false;
  };
  // kAuto pins the congested destinations — the hosts that carry MApps,
  // controllers, and the signal sampler — to the full tier; every other
  // host (senders and uncongested destinations alike) starts analytic and
  // is promoted only when its leaf delivery port actually backs up.
  const int pinned_n = std::min(cfg_.congested_hosts, static_cast<int>(destinations_.size()));
  const auto is_pinned = [&](int i) {
    for (int c = 0; c < pinned_n; ++c)
      if (destinations_[c] == i) return true;
    return false;
  };

  // One FlowStats per cell, shared by that cell's stacks and attached
  // before any connection exists (the disabled path is the null pointer
  // the stacks hold by default). Records are keyed (flow, src) and every
  // hook fires on its owning thread (sender-side fields land in the
  // sender's cell, delivery bytes in the receiver's); run_measure()
  // reunites them via merge_from.
  if (cfg_.record_flow_stats) {
    for (int c = 0; c < ncells; ++c) {
      cell_flow_stats_.push_back(std::make_unique<obs::FlowStats>(cfg_.flow_stats));
    }
  }

  // Hosts + fabric attachment, in HostId order: one HostSlot per host, its
  // flow-level AnalyticHost always, its packet-level kit at commit() when
  // pinned full (every host under kFull, the congested destinations under
  // kAuto) or lazily on promotion. The fabric wiring goes through the
  // slot's HostPort seam either way.
  for (int i = 0; i < n_hosts; ++i) {
    const net::HostId id = static_cast<net::HostId>(i);
    HostSlot::Config sc;
    sc.id = id;
    sc.name = topo->nodes()[host_nodes[i]].name;
    sc.host = cfg_.host;
    sc.host.seed = mix_host_seed(cfg_.host.seed, static_cast<std::uint64_t>(i));
    // Pure senders are unloaded; the datapath choice is moot there (same
    // convention as exp::Scenario's sender hosts).
    if (!is_destination(i)) sc.host.ddio_enabled = false;
    sc.transport = cfg_.transport;
    sc.lossless = cfg_.lossless;
    sc.pinned_full = cfg_.fidelity == HostFidelity::kFull ||
                     (cfg_.fidelity == HostFidelity::kAuto && is_pinned(i));
    sc.check_invariants = cfg_.check_invariants;
    sc.messages_per_flow = cfg_.messages_per_flow;
    auto slot = std::make_unique<HostSlot>(cell_sim(host_cell_[i]), std::move(sc));
    HostSlot* sp = slot.get();
    net::Link& up = fabric_->attach_host(id, sp->name(),
                                         [sp](const net::PacketRef& p) { sp->deliver(p); });
    up.set_on_dequeue([sp](const net::Packet& p) { sp->uplink_dequeued(p); });
    slot->wire(fabric_.get(), &up, fabric_->host_switch_idx(id), fabric_->host_port_idx(id));
    if (cfg_.record_flow_stats) {
      slot->set_flow_stats(cell_flow_stats_[host_cell_[i]].get());
    }
    slots_.push_back(std::move(slot));
  }
  fabric_->finalize();

  // Fabric-wide pause accounting: one ledger per cell (each touched only
  // by its owning thread), folded into pause_ledger_ by run_measure().
  if (cfg_.lossless) {
    for (int c = 0; c < ncells; ++c) {
      cell_ledgers_.push_back(std::make_unique<fabric::PauseLedger>());
      fabric_->set_pause_ledger(cell_ledgers_.back().get(), c);
    }
  }

  // Long flows: flows_per_pair per (sender, destination) pair with
  // globally unique flow ids, registered on the slots (flows must outlive
  // tier swaps, so the slot — not an app bound to one stack — owns them).
  // Workload mode replaces them entirely.
  struct Start {
    int src;
    net::FlowId flow;
    int k;  // within-pair index; the stagger multiplier
  };
  std::vector<Start> starts;
  if (!cfg_.workload.enabled) {
    net::FlowId fid = 100;
    for (int dst : destinations_) {
      for (int src = 0; src < n_hosts; ++src) {
        if (src == dst) continue;
        for (int k = 0; k < cfg_.flows_per_pair; ++k) {
          const net::FlowId f = fid + static_cast<net::FlowId>(k);
          slots_[src]->add_sender(f, static_cast<net::HostId>(dst), cfg_.flow_bytes);
          slots_[dst]->add_receiver(f, static_cast<net::HostId>(src));
          starts.push_back({src, f, k});
        }
        fid += static_cast<net::FlowId>(cfg_.flows_per_pair);
      }
    }
  }
  for (auto& s : slots_) s->commit();

  // Workload mode: open-loop churn through the pooled stacks, sized off the
  // topology's host bisection bandwidth (sum of participating hosts' uplink
  // rates / 2 — the load fraction then means the same pressure on any
  // topology).
  if (cfg_.workload.enabled) {
    double uplink_bps = 0.0;
    for (int i = 0; i < n_hosts; ++i) {
      for (const fabric::TopoArc& a : topo->arcs()) {
        if (a.from == host_nodes[i]) {
          uplink_bps += a.rate.bits_per_sec();
          break;
        }
      }
    }
    build_workload(n_hosts, uplink_bps / 8.0 / 2.0);
  }
  // Staggered long-flow starts, iperf-like: flow k of a pair starts k
  // stagger periods in.
  for (const Start& st : starts) {
    HostSlot* sp = slots_[st.src].get();
    cell_sim(host_cell_[st.src])
        .after(cfg_.flow_stagger * st.k, [sp, f = st.flow] { sp->start_flow(f); });
  }

  // MApp interference + optional hostCC on the congested destinations,
  // hung off the slot's full-tier HostModel: they are pinned full under
  // kFull and kAuto, so it exists; under kAnalytic there is none — no
  // memory subsystem to interfere with (and validation already rejected
  // hostcc_enabled there).
  const int congested = std::min(cfg_.congested_hosts, static_cast<int>(destinations_.size()));
  for (int c = 0; c < congested; ++c) {
    const int hid = destinations_[c];
    host::HostModel* hm = slots_[hid]->full_host();
    if (cfg_.mapp_degree > 0.0 && hm) {
      mapps_.push_back(std::make_unique<apps::MemApp>(
          *hm, host::mapp_cores_for_degree(cfg_.mapp_degree)));
    }
    if (cfg_.hostcc_enabled) {
      auto ctl = std::make_unique<core::HostCcController>(*hm, cfg_.hostcc);
      if (cfg_.record_decisions) {
        // Controllers on different cells tick on different threads; each
        // logs privately and run_measure() merges time-ordered.
        ctl_decisions_.push_back(std::make_unique<obs::DecisionLog>());
        ctl->set_decision_log(ctl_decisions_.back().get());
      }
      ctl->start();
      controllers_.push_back(std::move(ctl));
      controller_host_.push_back(hid);
    }
  }
  if (controllers_.empty()) {
    if (host::HostModel* h0 = slots_[0]->full_host()) {
      // Null only under kAnalytic — no full-tier host to sample.
      passive_sampler_ = std::make_unique<core::SignalSampler>(*h0, cfg_.hostcc.signals);
      passive_sampler_->start();
    }
  }

  // Congestion-triggered tier management (kAuto): one manager per cell,
  // ticking on the cell's own loop at the telemetry lane's cadence over
  // that cell's slots. A slot, its uplink, and its leaf switch are always
  // co-located in one cell, so every swap stays on the owning thread.
  if (cfg_.fidelity == HostFidelity::kAuto) {
    FidelityConfig fc;
    fc.promote_threshold = cfg_.promote_threshold;
    fc.period = cfg_.telemetry_cfg.sample_period;
    fc.demote_quiescence = cfg_.demote_quiescence;
    for (int c = 0; c < ncells; ++c) {
      std::vector<HostSlot*> cell_slots;
      for (int i = 0; i < n_hosts; ++i) {
        if (host_cell_[i] == c) cell_slots.push_back(slots_[i].get());
      }
      if (cell_slots.empty()) continue;
      auto mgr = std::make_unique<FidelityManager>(cell_sim(c), fc, fabric_.get(),
                                                   std::move(cell_slots));
      if (cfg_.record_decisions) {
        // Same per-thread staging as the controllers' logs; merged
        // time-ordered in run_measure().
        mgr_decisions_.push_back(std::make_unique<obs::DecisionLog>());
        mgr->set_decision_log(mgr_decisions_.back().get());
      }
      mgr->start();
      managers_.push_back(std::move(mgr));
    }
  }

  // Invariant audit: per-host conservation laws (each slot owns a checker
  // per full kit, built with the kit and audited on the active tier only),
  // plus the fabric-wide shared-buffer ledger. Read-only either way.
  if (cfg_.check_invariants) {
    // One checker per cell over that cell's switches, on the cell's own
    // loop: every ledger read stays on the owning thread. The deep
    // whole-fabric sweeps (dangling XOFF, deadlock cycles) read every
    // cell's pause state; a multi-cell run makes them from the engine's
    // boundary tick instead, single-threaded at the first quiesced epoch
    // end at or after each check period, and once more at the measurement
    // boundary in run_measure(). A 1-cell run keeps them on its only
    // checker's timer.
    faults::FabricInvariantConfig icfg;
    icfg.storm_breaker = cfg_.storm_breaker;
    icfg.deep_periodic = !plan_.parallel();
    for (int c = 0; c < ncells; ++c) {
      std::vector<int> subset;
      for (int s = 0; s < fabric_->switch_count(); ++s) {
        if (fabric_->cell_of_switch(s) == c) subset.push_back(s);
      }
      if (subset.empty()) continue;
      fabric_checkers_.push_back(std::make_unique<faults::FabricInvariantChecker>(
          cell_sim(c), *fabric_, std::move(subset), icfg));
      fabric_checkers_.back()->start();
    }
    if (cfg_.lossless && plan_.parallel()) {
      engine_->set_boundary_tick(icfg.period, [this] { fabric_checkers_[0]->check_deep_now(); });
    }
  }

  // Fault injection: numeric link targets are uplink indices (= HostIds);
  // named targets resolve through the fabric's edge surface. One injector
  // per cell, armed on that cell's loop and scoped so each side effect
  // (uplink toggles, per-port edge faults, MSR/MBA hooks) lands on the
  // thread that owns the component. Every injector replays the same plan
  // at the same sim times, so the composition is exactly the whole-fabric
  // fault schedule.
  if (!cfg_.faults.empty()) {
    const int sampler_host = controllers_.empty() ? 0 : controller_host_[0];
    for (int c = 0; c < ncells; ++c) {
      auto inj = std::make_unique<faults::FaultInjector>(cell_sim(c), cfg_.faults);
      inj->set_edge_cell_scope(c);
      if (host_cell_[0] == c) {
        // Host 0's MSR/MBA surfaces exist only on a full-tier host;
        // validation already rejected the fault kinds that need them when
        // every host is analytic.
        if (host::HostModel* h0 = slots_[0]->full_host()) {
          inj->attach_msrs(h0->msrs());
          inj->attach_mba(h0->mba());
        }
      }
      for (int i = 0; i < n_hosts; ++i) {
        if (host_cell_[i] != c) continue;
        if (net::Link* up = fabric_->uplink(static_cast<net::HostId>(i))) {
          inj->attach_link(i, *up);
        }
      }
      inj->attach_fabric(*fabric_);
      if (host_cell_[sampler_host] == c) {
        if (!controllers_.empty()) {
          inj->attach_sampler(controllers_[0]->sampler());
        } else if (passive_sampler_) {
          inj->attach_sampler(*passive_sampler_);
        }
      }
      inj->arm();
      injectors_.push_back(std::move(inj));
    }
  }

  // Observability. Host metric prefixes are the topology host names, so
  // per-switch and per-host series line up with docs/TOPOLOGY.md.
  metrics_.gauge("sim/events_executed",
                 [this] { return static_cast<double>(events_executed()); });
  // Full kits that exist at build time (every pinned slot) export the
  // per-host, transport, and invariant series; kits built later by
  // promotion are covered by the telemetry tier series instead
  // (registration is a build-time affair). The registry exports in name
  // order, so registration order does not reach the output.
  for (auto& s : slots_) {
    if (host::HostModel* hm = s->full_host()) {
      hm->register_metrics(metrics_);
      s->stack()->register_metrics(metrics_, s->name() + "/transport");
    }
    if (faults::InvariantChecker* ck = s->checker()) {
      ck->register_metrics(metrics_, s->name() + "/invariants");
    }
  }
  for (std::size_t c = 0; c < controllers_.size(); ++c) {
    controllers_[c]->register_metrics(metrics_,
                                      slots_[controller_host_[c]]->name() + "/hostcc");
  }
  if (passive_sampler_) {
    passive_sampler_->register_metrics(metrics_, slots_[0]->name() + "/hostcc/signals");
  }
  fabric_->register_metrics(metrics_, "fabric");
  if (cfg_.workload.enabled) {
    metrics_.counter_fn("workload/flows_started", [this] {
      std::uint64_t n = 0;
      for (auto& w : workloads_) n += w->flows_started();
      return n;
    });
    metrics_.counter_fn("workload/flows_completed", [this] {
      std::uint64_t n = 0;
      for (auto& w : workloads_) n += w->flows_completed();
      return n;
    });
    metrics_.counter_fn("workload/flows_skipped", [this] {
      std::uint64_t n = 0;
      for (auto& w : workloads_) n += w->flows_skipped();
      return n;
    });
    metrics_.counter_fn("workload/conn_pool_reuses", [this] {
      std::uint64_t n = 0;
      for (auto& s : slots_) n += s->stack()->pool_reuses();
      return n;
    });
    metrics_.counter_fn("workload/orphan_packets", [this] {
      std::uint64_t n = 0;
      for (auto& s : slots_) n += s->stack()->orphan_packets();
      return n;
    });
  }
  // The per-cell checkers and injectors export one set of metrics, under
  // the names a single instance registers. Checker metrics are sums over
  // cells (checks = cells x periods) and the peak tree depth; injector
  // metrics count each plan event once (FaultInjector::merged).
  if (!fabric_checkers_.empty()) {
    metrics_.counter_fn("fabric/invariants/checks", [this] {
      std::uint64_t n = 0;
      for (auto& c : fabric_checkers_) n += c->checks_run();
      return n;
    });
    metrics_.counter_fn("fabric/invariants/violations", [this] {
      std::uint64_t n = 0;
      for (auto& c : fabric_checkers_) n += c->total_violations();
      return n;
    });
    for (int i = 0; i < faults::kFabricInvariantClasses; ++i) {
      const auto cls = static_cast<faults::FabricInvariantClass>(i);
      metrics_.counter_fn(
          std::string("fabric/invariants/") + faults::fabric_invariant_class_name(cls),
          [this, cls] {
            std::uint64_t n = 0;
            for (auto& c : fabric_checkers_) n += c->violations_of(cls);
            return n;
          });
    }
    metrics_.gauge("fabric/invariants/pause_tree_depth_peak", [this] {
      int d = 0;
      for (auto& c : fabric_checkers_) d = std::max(d, c->tree_depth_peak());
      return static_cast<double>(d);
    });
    metrics_.counter_fn("fabric/invariants/storm_breaks", [this] {
      std::uint64_t n = 0;
      for (auto& c : fabric_checkers_) n += c->storm_breaks();
      return n;
    });
  }
  if (!injectors_.empty()) {
    std::vector<const faults::FaultInjector*> cells;
    for (auto& j : injectors_) cells.push_back(j.get());
    faults::FaultInjector::register_counts(
        metrics_, "faults", [cells] { return faults::FaultInjector::merged(cells); });
  }

  // Sampled fabric telemetry: groups registered switches-first then hosts,
  // both in index order, so the Chrome-trace pid layout is a pure function
  // of the topology (the same run opens identically in chrome://tracing).
  if (cfg_.telemetry) {
    telemetry_ = obs::FabricTelemetry(cfg_.telemetry_cfg);
    for (int s = 0; s < fabric_->switch_count(); ++s) {
      fabric::FabricSwitch* sw = &fabric_->switch_at(s);
      // A group's telemetry domain is its owning cell: the sampler lambdas
      // below then always run on the thread that owns the state they read.
      const int pid = telemetry_.add_group(sw->name(), fabric_->cell_of_switch(s));
      telemetry_.add_series(pid, "occupancy_bytes",
                            [sw] { return static_cast<std::int64_t>(sw->occupancy()); });
      if (cfg_.lossless) {
        // Lossless-only series (lossy exports stay byte-identical).
        telemetry_.add_series(pid, "pfc_paused_ports", [sw] {
          return static_cast<std::int64_t>(sw->paused_port_count());
        });
        telemetry_.add_series(pid, "pfc_xoffs_sent", [sw] {
          return static_cast<std::int64_t>(sw->pfc_xoffs_sent());
        });
      }
      for (int p = 0; p < sw->port_count(); ++p) {
        const std::string& pn = sw->port_name(p);
        telemetry_.add_series(pid, pn + "/queue_bytes", [sw, p] {
          return static_cast<std::int64_t>(sw->port_stats(p).queue_bytes);
        });
        telemetry_.add_series(pid, pn + "/marks", [sw, p] {
          return static_cast<std::int64_t>(sw->port_stats(p).marks);
        });
        telemetry_.add_series(pid, pn + "/drops", [sw, p] {
          return static_cast<std::int64_t>(sw->port_stats(p).drops);
        });
      }
    }
    // Host groups: the datapath series (zero while the host is analytic or
    // its kit doesn't exist yet), led by the tier flag in hybrid modes; the
    // sampler lambdas run on the slot's owning cell thread.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      HostSlot* sp = slots_[i].get();
      const int pid = telemetry_.add_group(sp->name(), host_cell_[i]);
      if (hybrid()) {
        telemetry_.add_series(
            pid, "tier", [sp] { return static_cast<std::int64_t>(sp->full_active() ? 1 : 0); });
      }
      telemetry_.add_series(pid, "nic_queued_bytes", [sp] {
        host::HostModel* hm = sp->full_host();
        return hm ? static_cast<std::int64_t>(hm->nic().queued_bytes()) : 0;
      });
      telemetry_.add_series(pid, "iio_occupancy_bytes", [sp] {
        host::HostModel* hm = sp->full_host();
        return hm ? static_cast<std::int64_t>(hm->iio().occupancy_bytes()) : 0;
      });
    }
    // Per-cell tier census: every series reads only that cell's slots, so
    // the group samples race-free in its own domain.
    if (hybrid()) {
      for (int c = 0; c < ncells; ++c) {
        std::vector<HostSlot*> cs;
        for (int i = 0; i < n_hosts; ++i) {
          if (host_cell_[i] == c) cs.push_back(slots_[i].get());
        }
        if (cs.empty()) continue;
        const int pid = telemetry_.add_group("fidelity/cell" + std::to_string(c), c);
        telemetry_.add_series(pid, "hosts_full", [cs] {
          std::int64_t n = 0;
          for (HostSlot* s : cs) n += s->full_active() ? 1 : 0;
          return n;
        });
        telemetry_.add_series(pid, "hosts_analytic", [cs] {
          std::int64_t n = 0;
          for (HostSlot* s : cs) n += s->full_active() ? 0 : 1;
          return n;
        });
        telemetry_.add_series(pid, "promotions", [cs] {
          std::int64_t n = 0;
          for (HostSlot* s : cs) n += static_cast<std::int64_t>(s->promotions());
          return n;
        });
        telemetry_.add_series(pid, "demotions", [cs] {
          std::int64_t n = 0;
          for (HostSlot* s : cs) n += static_cast<std::int64_t>(s->demotions());
          return n;
        });
      }
    }
    std::vector<sim::Simulator*> sims;
    for (int c = 0; c < ncells; ++c) sims.push_back(&engine_->cell(c));
    telemetry_.start_multi(sims);
  }

  if (cfg_.profile) attach_profiler(true);
}

// The receiving side of the churn: the stack's accept hook fires on the
// first data segment of an unknown flow in the churn id range, opens a
// pooled endpoint (on the receiver's own cell thread), and retires it from
// a deferred event once the FIN has been delivered and ACKed. Both lambdas
// capture 16 bytes — within std::function's small-buffer optimization, so
// the steady-state path stays allocation-free.
void FabricScenario::workload_accept(transport::Stack& st, const net::Packet& p) {
  if (!workload::HostWorkload::in_range(p.flow, kWorkloadFlowBase, workload_flow_end_)) return;
  transport::TcpConnection& conn = st.open(p.flow, p.src);
  transport::Stack* sp = &st;
  const net::FlowId f = p.flow;
  conn.set_on_fin([sp, f] { sp->simulator().after(sim::Time::zero(), [sp, f] { sp->close(f); }); });
}

void FabricScenario::build_workload(int n_hosts, double bisection_bytes_per_sec) {
  const int spp = cfg_.workload.slots_per_pair;
  workload_flow_end_ = kWorkloadFlowBase + static_cast<net::FlowId>(n_hosts) * n_hosts * spp;

  // Receiver endpoints are created lazily by each stack's accept hook.
  for (int i = 0; i < n_hosts; ++i) {
    transport::Stack* st = &stack(i);
    st->set_accept([this, st](const net::Packet& p) { workload_accept(*st, p); });
  }

  // Prewarm: open, then retire, every (src, dst, slot) endpoint on both
  // sides, so connection pools and flow-table buckets reach their
  // worst-case concurrent footprint before the first arrival — the
  // zero-steady-state-allocation contract then holds from t=0, not just
  // after the pools have organically filled.
  if (cfg_.workload.prewarm_pools) {
    const auto flow_of = [&](int s, int d, int k) {
      return kWorkloadFlowBase + (static_cast<net::FlowId>(s) * n_hosts + d) * spp + k;
    };
    const auto stats_of = [&](int i) { return cell_flow_stats_[host_cell_[i]].get(); };
    for (int i = 0; i < n_hosts; ++i) host(i).prewarm_rx_queues();
    for (int s = 0; s < n_hosts; ++s) {
      for (int d = 0; d < n_hosts; ++d) {
        if (s == d) continue;
        for (int k = 0; k < spp; ++k) {
          const net::FlowId f = flow_of(s, d, k);
          stack(s).open(f, static_cast<net::HostId>(d));
          stack(d).open(f, static_cast<net::HostId>(s));
          // Per-flow accounting maps outside the stacks fill lazily on a
          // flow id's first packet; touch them all now so a rarely-used
          // slot's first real use mid-run stays heap-free. Data and ACKs
          // both carry the flow id, so both hosts see it on both paths.
          host(s).prewarm_flow(f);
          host(d).prewarm_flow(f);
          stats_of(s)->preregister(f, static_cast<net::HostId>(s));
          stats_of(d)->preregister(f, static_cast<net::HostId>(s));
        }
      }
    }
    for (int s = 0; s < n_hosts; ++s) {
      for (int d = 0; d < n_hosts; ++d) {
        if (s == d) continue;
        for (int k = 0; k < spp; ++k) {
          stack(s).close(flow_of(s, d, k));
          stack(d).close(flow_of(s, d, k));
        }
      }
    }
  }

  // lambda_host = load * bisection / mean_size / hosts (see workload.h).
  if (bisection_bytes_per_sec <= 0.0) {
    throw std::invalid_argument(
        "invalid fabric scenario config:\n  - workload: topology has ideal "
        "(rate-free) host uplinks; the load fraction needs finite rates");
  }
  const double rate_hz =
      cfg_.workload.load * bisection_bytes_per_sec / workload_cdf_.mean_bytes() / n_hosts;

  for (int i = 0; i < n_hosts; ++i) {
    workload::HostWorkload::Params wp;
    wp.self = static_cast<net::HostId>(i);
    wp.n_hosts = n_hosts;
    wp.flow_base = kWorkloadFlowBase;
    wp.rate_hz = rate_hz;
    wp.cfg = &cfg_.workload;
    wp.cdf = &workload_cdf_;
    wp.seed = mix_host_seed(cfg_.workload.seed, static_cast<std::uint64_t>(i));
    workloads_.push_back(std::make_unique<workload::HostWorkload>(
        cell_sim(host_cell_[i]), stack(i), wp));
    workloads_.back()->start(sim::Time::zero());
  }

  // RPC fan-out/fan-in trees: every host roots one tree over persistent
  // connections to the next `fanout` hosts (rpc_app's server half answers
  // each request); ids sit below the churn range so the accept hook never
  // claims them.
  if (cfg_.workload.rpc.enabled) {
    const int fanout = std::min(cfg_.workload.rpc.fanout, n_hosts - 1);
    net::FlowId fid = kRpcFlowBase;
    for (int root = 0; root < n_hosts; ++root) {
      std::vector<transport::TcpConnection*> kids;
      for (int j = 0; j < fanout; ++j) {
        const int child = (root + 1 + j) % n_hosts;
        kids.push_back(&stack(root).connect(fid, static_cast<net::HostId>(child)));
        rpc_servers_.push_back(std::make_unique<apps::RpcServer>(
            stack(child), fid, static_cast<net::HostId>(root),
            cfg_.workload.rpc.response_bytes));
        ++fid;
      }
      rpc_roots_.push_back(std::make_unique<workload::RpcTreeRoot>(
          cell_sim(host_cell_[root]), std::move(kids), cfg_.workload.rpc,
          mix_host_seed(cfg_.workload.seed ^ 0x5bd1e995ull, static_cast<std::uint64_t>(root))));
      rpc_roots_.back()->start(sim::Time::zero());
    }
  }
}

void FabricScenario::attach_profiler(bool enable) {
  // One profiler per cell (scope enter/exit and the self-time stack are
  // single-threaded state); run_measure() folds them into profiler_.
  if (cell_profilers_.empty()) {
    for (int c = 0; c < plan_.cells; ++c) {
      cell_profilers_.push_back(std::make_unique<obs::SimProfiler>());
    }
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (host::HostModel* hm = slots_[i]->full_host()) {
      hm->set_profiler(cell_profilers_[host_cell_[i]].get());
      slots_[i]->stack()->set_profiler(
          cell_profilers_[host_cell_[i]]->handle(slots_[i]->name() + "/transport"));
    }
  }
  for (int s = 0; s < fabric_->switch_count(); ++s) {
    fabric::FabricSwitch& sw = fabric_->switch_at(s);
    sw.set_profiler(cell_profilers_[fabric_->cell_of_switch(s)]->handle(sw.name() + "/forward"));
  }
  for (int c = 0; c < plan_.cells; ++c) {
    cell_profilers_[c]->set_enabled(enable);
    if (enable) {
      cell_profilers_[c]->start_depth_timeline(engine_->cell(c), sim::Time::microseconds(50));
    }
  }
  profiler_.set_enabled(enable);
}

void FabricScenario::run_for(sim::Time d) { engine_->run_until(engine_->now() + d); }

void FabricScenario::run_warmup() {
  run_for(cfg_.warmup);
  mark_measurement_start();
}

void FabricScenario::mark_measurement_start() {
  const sim::Time mark = now();
  const fabric::FabricSwitch::Totals t = fabric_->totals();
  base_fabric_drops_ = t.drops;
  base_fabric_marks_ = t.marks;
  base_dst_arrived_ = 0;
  base_dst_dropped_ = 0;
  for (int d : destinations_) {
    base_dst_arrived_ += slots_[d]->arrived_pkts();
    base_dst_dropped_ += slots_[d]->dropped_pkts();
    slots_[d]->goodput_since_mark(mark);
  }
  measure_start_ = mark;
  // FCT percentiles cover the measurement window only (per-flow lifetime
  // records and open episodes survive the reset). RPC fan-in latency
  // follows the same window convention.
  for (auto& f : cell_flow_stats_) f->reset_window();
  for (auto& rt : rpc_roots_) rt->reset_window();
}

FabricScenarioResults FabricScenario::run_measure() {
  run_for(cfg_.measure);
  const sim::Time end = now();

  // Fold the per-thread observability into the aggregate objects the
  // accessors expose. Merge order is cell/controller index order —
  // deterministic, and identical for every worker count because the
  // partition is.
  if (!cell_flow_stats_.empty()) {
    flow_stats_ = obs::FlowStats(cfg_.flow_stats);
    for (auto& f : cell_flow_stats_) flow_stats_.merge_from(*f);
  }
  if (!ctl_decisions_.empty() || !mgr_decisions_.empty()) {
    decisions_.clear();
    std::vector<obs::Decision> all;
    for (auto& log : ctl_decisions_) {
      for (const obs::Decision& d : log->decisions()) all.push_back(d);
    }
    for (auto& log : mgr_decisions_) {
      for (const obs::Decision& d : log->decisions()) all.push_back(d);
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const obs::Decision& a, const obs::Decision& b) { return a.at < b.at; });
    for (const obs::Decision& d : all) decisions_.record(d);
  }
  for (auto& p : cell_profilers_) profiler_.merge_from(*p);

  FabricScenarioResults r;
  double tput = 0.0;
  for (int d : destinations_) tput += slots_[d]->goodput_since_mark(end).as_gbps();
  r.net_tput_gbps = tput;
  if (cfg_.workload.enabled && end > measure_start_) {
    // Workload goodput: bytes of flow episodes completed inside the window
    // (flow_stats_ is already the merged aggregate at this point).
    r.net_tput_gbps =
        sim::Bandwidth::over(flow_stats_.window_bytes(), end - measure_start_).as_gbps();
  }

  std::uint64_t arrived = 0, dropped = 0;
  for (int d : destinations_) {
    arrived += slots_[d]->arrived_pkts();
    dropped += slots_[d]->dropped_pkts();
  }
  arrived -= base_dst_arrived_;
  dropped -= base_dst_dropped_;
  r.delivered_pkts = arrived;

  const fabric::FabricSwitch::Totals t = fabric_->totals();
  const std::uint64_t sw_drops = t.drops - base_fabric_drops_;
  r.fabric_drops = sw_drops;
  r.fabric_marks = t.marks - base_fabric_marks_;
  r.fabric_no_route_drops = t.no_route_drops;
  r.fabric_occupancy_peak = t.occupancy_peak;

  r.host_drop_rate_pct =
      arrived > 0 ? 100.0 * static_cast<double>(dropped) / static_cast<double>(arrived) : 0.0;
  const std::uint64_t offered = arrived + sw_drops;
  r.fabric_drop_frac =
      offered > 0 ? static_cast<double>(sw_drops) / static_cast<double>(offered) : 0.0;
  r.fabric_drop_rate_pct = 100.0 * r.fabric_drop_frac;

  for (auto& s : slots_) {
    const auto st = s->sender_stats();
    r.sender_timeouts += st.timeouts;
    r.sender_fast_retransmits += st.fast_retransmits;
  }
  if (cfg_.workload.enabled) {
    // Every host both sends and receives; total_stats folds the retired
    // (pooled) endpoints' counters in with the live ones.
    for (auto& slot : slots_) {
      const transport::Stack* st = slot->stack();
      const auto s = st->total_stats();
      r.sender_timeouts += s.timeouts;
      r.sender_fast_retransmits += s.fast_retransmits;
      r.conn_pool_opens += st->opens();
      r.conn_pool_reuses += st->pool_reuses();
      r.orphan_packets += st->orphan_packets();
    }
    for (auto& w : workloads_) {
      r.flows_started += w->flows_started();
      r.flows_completed += w->flows_completed();
      r.flows_skipped += w->flows_skipped();
    }
    if (!rpc_roots_.empty()) {
      sim::Histogram lat;
      for (auto& rt : rpc_roots_) {
        r.rpc_trees_started += rt->trees_started();
        r.rpc_trees_completed += rt->trees_completed();
        r.rpc_trees_skipped += rt->trees_skipped();
        lat.merge(rt->latency());
      }
      r.rpc_p50_us = lat.percentile_time(0.50).us();
      r.rpc_p99_us = lat.percentile_time(0.99).us();
      r.rpc_p999_us = lat.percentile_time(0.999).us();
    }
  }

  if (!controllers_.empty()) {
    r.avg_iio_occupancy = controllers_[0]->sampler().is_value();
    r.avg_pcie_gbps = controllers_[0]->sampler().bs_value().as_gbps();
  } else if (passive_sampler_) {
    r.avg_iio_occupancy = passive_sampler_->is_value();
    r.avg_pcie_gbps = passive_sampler_->bs_value().as_gbps();
  }

  for (auto& s : slots_) {
    if (faults::InvariantChecker* ck = s->checker()) {
      // Final sweep at the measurement boundary. A parked kit's counters
      // are frozen (audited once at demotion); sweep only the live ones.
      if (s->full_active()) ck->check_now();
      r.invariant_violations += ck->total_violations();
    }
  }
  for (auto& c : fabric_checkers_) c->check_now();
  // Multi-cell runs make the whole-fabric deep sweeps (dangling XOFF +
  // deadlock cycles) from the boundary tick; make one more here, where
  // every cell's pause state is race-free to read (a 1-cell checker's
  // check_now() above already did).
  if (cfg_.lossless && plan_.parallel() && !fabric_checkers_.empty()) {
    fabric_checkers_[0]->check_deep_now();
  }
  for (auto& c : fabric_checkers_) r.invariant_violations += c->total_violations();

  if (cfg_.lossless) {
    pause_ledger_ = fabric::PauseLedger();
    for (auto& l : cell_ledgers_) pause_ledger_.merge_from(*l);
    r.pfc_xoff_frames = t.pfc_xoffs_sent;
    r.pfc_xon_frames = t.pfc_xons_sent;
    r.pfc_muted_xons = t.pfc_muted_xons;
    r.pause_outstanding = pause_ledger_.outstanding();
    r.pause_max_outstanding = pause_ledger_.max_outstanding();
    r.pause_last_all_clear_us = pause_ledger_.last_all_clear().us();
    for (auto& c : fabric_checkers_) {
      r.pause_tree_depth_peak = std::max(r.pause_tree_depth_peak, c->tree_depth_peak());
      r.storm_breaks += c->storm_breaks();
    }
  }

  if (cfg_.record_flow_stats) {
    const auto fs = flow_stats_.fct_summary();
    r.flow_episodes = fs.count;
    r.fct_p50_us = fs.p50.us();
    r.fct_p99_us = fs.p99.us();
    r.fct_p999_us = fs.p999.us();
  }

  if (hybrid()) {
    for (auto& s : slots_) {
      s->full_active() ? ++r.hosts_full : ++r.hosts_analytic;
      r.promotions += s->promotions();
      r.demotions += s->demotions();
    }
  }
  // Capture the final telemetry frame at the measurement boundary so the
  // exported series always end exactly at run end (sample_now covers every
  // domain; the workers are quiesced here, so this is race-free).
  if (cfg_.telemetry) telemetry_.sample_now(end);
  return r;
}

FabricScenarioResults FabricScenario::run() {
  run_warmup();
  return run_measure();
}

}  // namespace hostcc::exp
