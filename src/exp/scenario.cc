#include "exp/scenario.h"

#include <stdexcept>

namespace hostcc::exp {

namespace {
constexpr net::HostId kReceiverId = 0;

// The paper testbed's switch (§2.2, §5.1): static per-port drop-tail at
// 512 KiB, DCTCP marking at K = 80 KiB (the DCTCP paper's K ~= C*RTT/7 is
// ~70 KB at 100 Gbps / 40 us, rounded up), and forwarding jitter, which
// keeps closed-loop flows from phase-locking with queue-overflow episodes.
fabric::FabricSwitchConfig star_switch_config(int ports) {
  fabric::FabricSwitchConfig c;
  c.port_buffer_bytes = 512 * sim::kKiB;
  c.buffer_bytes = ports * c.port_buffer_bytes;  // every port's share: the ledger bound holds
  c.ecn_threshold = 80 * sim::kKiB;
  c.forward_latency = sim::Time::nanoseconds(600);
  c.forward_jitter_max = sim::Time::microseconds(2);
  c.seed = 0x5317c4;
  return c;
}

host::HostConfig sender_host_config(const host::HostConfig& receiver_cfg) {
  host::HostConfig cfg = receiver_cfg;
  cfg.ddio_enabled = false;  // sender host is unloaded; datapath choice moot
  cfg.seed ^= 0x5e4dULL;
  return cfg;
}

// Full startup validation: host, hostCC, fault-plan, and topology-level
// checks, all collected before anything is built so one bad scenario file
// reports every problem at once.
std::vector<std::string> validate(const ScenarioConfig& cfg) {
  std::vector<std::string> errs = host::validate(cfg.host);
  if (cfg.hostcc_enabled) {
    for (auto& e : core::validate(cfg.hostcc)) errs.push_back(std::move(e));
  }
  for (auto& e : cfg.faults.validate()) errs.push_back(std::move(e));
  if (cfg.senders < 1) {
    errs.push_back("scenario.senders must be >= 1 (got " + std::to_string(cfg.senders) + ")");
  }
  if (cfg.netapp_flows < 0) errs.push_back("scenario.netapp_flows must be >= 0");
  if (cfg.link_rate.bits_per_sec() <= 0.0) errs.push_back("scenario.link_rate must be > 0");
  if (cfg.link_delay < sim::Time::zero()) errs.push_back("scenario.link_delay must be >= 0");
  if (cfg.mapp_degree < 0.0 || cfg.sender_mapp_degree < 0.0) {
    errs.push_back("scenario.mapp_degree/sender_mapp_degree must be >= 0");
  }
  if (cfg.fixed_mba_level > host::MbaThrottle::kMaxLevel) {
    errs.push_back("scenario.fixed_mba_level must be -1 (off) or an MBA level 0.." +
                   std::to_string(host::MbaThrottle::kMaxLevel) + " (got " +
                   std::to_string(cfg.fixed_mba_level) + ")");
  }
  if (cfg.warmup < sim::Time::zero() || cfg.measure < sim::Time::zero()) {
    errs.push_back("scenario.warmup/measure must be >= 0");
  }
  if (cfg.netapp_flow_bytes < 0) errs.push_back("scenario.netapp_flow_bytes must be >= 0");
  for (sim::Bytes s : cfg.rpc_sizes) {
    if (s <= 0) errs.push_back("scenario.rpc_sizes entries must be > 0 bytes");
  }
  // Link faults must name an existing uplink (0 = receiver, 1..N senders).
  for (const faults::FaultEvent& ev : cfg.faults.events) {
    const bool link_fault = ev.kind == faults::FaultKind::kLinkDown ||
                            ev.kind == faults::FaultKind::kLinkDegrade;
    if ((link_fault || ev.kind == faults::FaultKind::kPortDown) && ev.target > cfg.senders) {
      errs.push_back(std::string("fault ") + faults::fault_kind_name(ev.kind) + ": " +
                     (link_fault ? "uplink " : "port ") + std::to_string(ev.target) +
                     " does not exist (topology has hosts 0.." + std::to_string(cfg.senders) +
                     ")");
    }
  }
  return errs;
}
}  // namespace

Scenario::Scenario(ScenarioConfig cfg) : cfg_(std::move(cfg)) { build(); }
Scenario::~Scenario() = default;

void Scenario::build() {
  if (auto errs = validate(cfg_); !errs.empty()) {
    std::string joined = "invalid scenario config:";
    for (const std::string& e : errs) joined += "\n  - " + e;
    throw std::invalid_argument(joined);
  }

  // One switch port per host, added in HostId order so port i leads to
  // host i. The port's delivery event carries the downlink propagation.
  fabric_ = std::make_unique<fabric::FabricSwitch>(sim_, "sw0",
                                                   star_switch_config(cfg_.senders + 1));

  // Receiver host + stack + downlink.
  receiver_ = std::make_unique<host::HostModel>(sim_, cfg_.host, "receiver");
  receiver_stack_ =
      std::make_unique<transport::Stack>(sim_, *receiver_, kReceiverId, cfg_.transport);
  {
    auto up = std::make_unique<net::Link>(sim_, "rx-uplink", cfg_.link_rate, cfg_.link_delay);
    up->set_sink([this](const net::PacketRef& p) { fabric_->ingress(p); });
    up->set_on_dequeue([h = receiver_.get()](const net::Packet& p) { h->wire_dequeued(p); });
    receiver_->set_egress([lnk = up.get()](const net::PacketRef& p) { lnk->send(p); });
    links_.push_back(std::move(up));
    fabric_->add_port(
        receiver_->name(), cfg_.link_rate,
        [h = receiver_.get()](const net::PacketRef& p) { h->receive_from_wire(p); },
        cfg_.link_delay);
    fabric_->set_route(kReceiverId, {static_cast<int>(kReceiverId)});
  }

  // Sender hosts.
  for (int s = 0; s < cfg_.senders; ++s) {
    const net::HostId id = static_cast<net::HostId>(s + 1);
    auto h = std::make_unique<host::HostModel>(sim_, sender_host_config(cfg_.host),
                                               "sender" + std::to_string(s));
    auto stack = std::make_unique<transport::Stack>(sim_, *h, id, cfg_.transport);
    auto up = std::make_unique<net::Link>(sim_, "tx-uplink" + std::to_string(s),
                                          cfg_.link_rate, cfg_.link_delay);
    up->set_sink([this](const net::PacketRef& p) { fabric_->ingress(p); });
    up->set_on_dequeue([hp = h.get()](const net::Packet& p) { hp->wire_dequeued(p); });
    h->set_egress([lnk = up.get()](const net::PacketRef& p) { lnk->send(p); });
    fabric_->add_port(
        h->name(), cfg_.link_rate,
        [hp = h.get()](const net::PacketRef& p) { hp->receive_from_wire(p); }, cfg_.link_delay);
    fabric_->set_route(id, {static_cast<int>(id)});
    links_.push_back(std::move(up));
    sender_hosts_.push_back(std::move(h));
    sender_stacks_.push_back(std::move(stack));
  }

  // Per-flow FCT accounting: one shared FlowStats across every stack,
  // attached before any connection exists. Always attached — the disabled
  // path is the null pointer the stacks hold by default.
  if (cfg_.record_flow_stats) {
    flow_stats_ = obs::FlowStats(cfg_.flow_stats);
    receiver_stack_->set_flow_stats(&flow_stats_);
    for (auto& s : sender_stacks_) s->set_flow_stats(&flow_stats_);
  }

  // NetApp-T: long flows, round-robin across senders.
  {
    // ThroughputApp wants one sender stack; generalize by creating one app
    // per sender with its share of the flows.
    net::FlowId fid = 100;
    int remaining = cfg_.netapp_flows;
    std::vector<std::unique_ptr<apps::ThroughputApp>> apps;
    for (int s = 0; s < cfg_.senders && remaining > 0; ++s) {
      const int share = remaining / (cfg_.senders - s) +
                        ((remaining % (cfg_.senders - s)) != 0 ? 1 : 0);
      apps.push_back(std::make_unique<apps::ThroughputApp>(*sender_stacks_[s], *receiver_stack_,
                                                           share, fid,
                                                           sim::Time::milliseconds(1),
                                                           cfg_.netapp_flow_bytes));
      fid += static_cast<net::FlowId>(share);
      remaining -= share;
    }
    tput_apps_ = std::move(apps);
  }

  // NetApp-L: one closed-loop RPC client per size, client on the receiver.
  {
    net::FlowId fid = 1000;
    for (sim::Bytes size : cfg_.rpc_sizes) {
      auto client = std::make_unique<apps::RpcClient>(*receiver_stack_, fid,
                                                      /*server=*/1, size);
      auto server = std::make_unique<apps::RpcServer>(*sender_stacks_[0], fid, kReceiverId, size);
      client->start();
      rpc_clients_.push_back(std::move(client));
      rpc_servers_.push_back(std::move(server));
      ++fid;
    }
  }

  // MApp on the receiver.
  mapp_ = std::make_unique<apps::MemApp>(*receiver_,
                                         host::mapp_cores_for_degree(cfg_.mapp_degree));

  // Optional sender-side host-local traffic + response (§3.2).
  if (cfg_.sender_mapp_degree > 0.0) {
    sender_mapp_ = std::make_unique<apps::MemApp>(
        *sender_hosts_[0], host::mapp_cores_for_degree(cfg_.sender_mapp_degree));
  }
  if (cfg_.sender_local_response) {
    sender_response_ = std::make_unique<core::SenderLocalResponse>(*sender_hosts_[0]);
    sender_response_->start();
  }

  // hostCC or a passive signal tap.
  if (cfg_.hostcc_enabled) {
    controller_ = std::make_unique<core::HostCcController>(*receiver_, cfg_.hostcc);
    if (cfg_.record_signals) {
      // Bridge each decision into the legacy I_S/B_S/level time series the
      // figure generators consume.
      controller_->set_on_decision([this](const obs::Decision& d) {
        ts_is_.record(d.at, d.is);
        ts_bs_.record(d.at, d.bs_gbps);
        ts_level_.record(d.at, d.level_effective);
      });
    }
    if (cfg_.record_decisions) controller_->set_decision_log(&decisions_);
    controller_->start();
  } else {
    passive_sampler_ = std::make_unique<core::SignalSampler>(*receiver_, cfg_.hostcc.signals);
    if (cfg_.record_signals) {
      passive_sampler_->set_on_sample([this] {
        const sim::Time now = sim_.now();
        ts_is_.record(now, passive_sampler_->is_value());
        ts_bs_.record(now, passive_sampler_->bs_value().as_gbps());
        ts_level_.record(now, receiver_->mba().effective_level());
      });
    }
    passive_sampler_->start();
  }

  if (cfg_.fixed_mba_level >= 0) receiver_->mba().request_level(cfg_.fixed_mba_level);

  // Runtime invariant checker on the receiver (the congested datapath).
  // Read-only, so enabling it perturbs no random stream and no behaviour.
  if (cfg_.check_invariants) {
    invariants_ = std::make_unique<faults::InvariantChecker>(*receiver_);
    invariants_->start();
  }

  // Fault injection: attach everything the plan could act on, then arm.
  if (!cfg_.faults.empty()) {
    injector_ = std::make_unique<faults::FaultInjector>(sim_, cfg_.faults);
    injector_->attach_msrs(receiver_->msrs());
    injector_->attach_mba(receiver_->mba());
    for (std::size_t i = 0; i < links_.size(); ++i) {
      injector_->attach_link(static_cast<int>(i), *links_[i]);
    }
    injector_->attach_switch(*fabric_);
    injector_->attach_sampler(signals());
    injector_->arm();
  }

  // Observability: the tracer follows the receiver datapath (the congested
  // host); it stays attached even when disabled so production runs exercise
  // the null-sink fast path. Metrics registration happens last, after every
  // MemSource (including the MApp) exists, so the per-source memctrl
  // counters cover them all.
  tracer_.set_enabled(cfg_.trace_packets);
  receiver_->set_tracer(&tracer_);
  metrics_.gauge("sim/events_executed",
                 [this] { return static_cast<double>(sim_.events_executed()); });
  receiver_->register_metrics(metrics_);
  for (auto& h : sender_hosts_) h->register_metrics(metrics_);
  receiver_stack_->register_metrics(metrics_, "receiver/transport");
  for (std::size_t s = 0; s < sender_stacks_.size(); ++s) {
    sender_stacks_[s]->register_metrics(metrics_,
                                        "sender" + std::to_string(s) + "/transport");
  }
  if (controller_) {
    controller_->register_metrics(metrics_, "receiver/hostcc");
  } else {
    passive_sampler_->register_metrics(metrics_, "receiver/hostcc/signals");
  }
  fabric_->register_metrics(metrics_, "fabric");
  for (auto& lnk : links_) lnk->register_metrics(metrics_, "link/" + lnk->name());
  if (invariants_) invariants_->register_metrics(metrics_, "receiver/invariants");
  if (injector_) injector_->register_metrics(metrics_, "faults");

  if (cfg_.profile) attach_profiler(true);
}

void Scenario::attach_profiler(bool enable) {
  receiver_->set_profiler(&profiler_);
  for (auto& h : sender_hosts_) h->set_profiler(&profiler_);
  receiver_stack_->set_profiler(profiler_.handle("receiver/transport"));
  for (std::size_t s = 0; s < sender_stacks_.size(); ++s) {
    sender_stacks_[s]->set_profiler(
        profiler_.handle("sender" + std::to_string(s) + "/transport"));
  }
  profiler_.set_enabled(enable);
  if (enable) profiler_.start_depth_timeline(sim_, sim::Time::microseconds(50));
}

core::SignalSampler& Scenario::signals() {
  return controller_ ? controller_->sampler() : *passive_sampler_;
}

void Scenario::run_for(sim::Time d) { sim_.run_until(sim_.now() + d); }

void Scenario::run_warmup() {
  run_for(cfg_.warmup);
  mark_measurement_start();
}

void Scenario::mark_measurement_start() {
  const sim::Time now = sim_.now();
  base_nic_arrived_ = receiver_->nic().stats().arrived_pkts;
  base_nic_dropped_ = receiver_->nic().stats().dropped_pkts;
  base_switch_drops_ = fabric_->port_stats(kReceiverId).drops;
  base_switch_total_drops_ = fabric_->totals().drops;
  base_switch_total_marks_ = fabric_->totals().marks;
  receiver_->memctrl().checkpoint(now);
  mapp_->bandwidth_since_mark(now);
  for (auto& app : tput_apps_) app->goodput_since_mark(now);
  measure_start_ = now;
  base_echo_marks_ = controller_ ? controller_->echo().packets_marked() : 0;
  // RPC latency: measure only post-warmup samples.
  for (auto& c : rpc_clients_) c->reset_latency();
  // FCT percentiles likewise cover the measurement window only (per-flow
  // lifetime records and open episodes survive the reset).
  flow_stats_.reset_window();
}

ScenarioResults Scenario::run_measure() {
  run_for(cfg_.measure);
  const sim::Time now = sim_.now();

  ScenarioResults r;
  double tput = 0.0;
  for (auto& app : tput_apps_) tput += app->goodput_since_mark(now).as_gbps();
  r.net_tput_gbps = tput;

  const auto& nic = receiver_->nic().stats();
  const std::uint64_t arrived = nic.arrived_pkts - base_nic_arrived_;
  const std::uint64_t dropped = nic.dropped_pkts - base_nic_dropped_;
  const std::uint64_t sw_drops = fabric_->port_stats(kReceiverId).drops - base_switch_drops_;
  r.host_drop_rate_pct = arrived > 0 ? 100.0 * static_cast<double>(dropped) /
                                           static_cast<double>(arrived)
                                     : 0.0;
  const std::uint64_t offered = arrived + sw_drops;
  r.fabric_drop_rate_pct =
      offered > 0 ? 100.0 * static_cast<double>(sw_drops) / static_cast<double>(offered) : 0.0;
  r.drop_rate_pct = offered > 0 ? 100.0 * static_cast<double>(dropped + sw_drops) /
                                      static_cast<double>(offered)
                                : 0.0;

  // Memory bandwidth breakdown: sources on the receiver MC are
  // [iio_dma, net_copy, tx_dma, (mapp if present)].
  auto rates = receiver_->memctrl().checkpoint(now);
  double net_bps = 0.0, mapp_bps = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const std::string name = receiver_->memctrl().source_name(i);
    if (name == "mapp") {
      mapp_bps += rates[i].bits_per_sec();
    } else {
      net_bps += rates[i].bits_per_sec();
    }
  }
  r.net_mem_gbps = net_bps * 1e-9;
  r.mapp_mem_gbps = mapp_bps * 1e-9;
  const double cap = receiver_->memctrl().capacity().bits_per_sec();
  r.net_mem_util = net_bps / cap;
  r.mapp_mem_util = mapp_bps / cap;
  r.mem_util = (net_bps + mapp_bps) / cap;

  for (auto& c : rpc_clients_) r.rpc_latency.push_back(sim::summarize(c->latency()));

  for (auto& app : tput_apps_) {
    const auto s = app->sender_stats();
    r.sender_timeouts += s.timeouts;
    r.sender_fast_retransmits += s.fast_retransmits;
  }
  if (controller_) {
    r.ecn_marked_pkts = controller_->echo().packets_marked() - base_echo_marks_;
  }
  const fabric::FabricSwitch::Totals sw_total = fabric_->totals();
  r.switch_drops = sw_total.drops - base_switch_total_drops_;
  r.switch_marks = sw_total.marks - base_switch_total_marks_;
  r.switch_no_route_drops = sw_total.no_route_drops;
  if (invariants_) {
    invariants_->check_now();  // final sweep at the measurement boundary
    r.invariant_violations = invariants_->total_violations();
  }
  if (cfg_.record_flow_stats) {
    const auto fs = flow_stats_.fct_summary();
    r.flow_episodes = fs.count;
    r.fct_p50_us = fs.p50.us();
    r.fct_p99_us = fs.p99.us();
    r.fct_p999_us = fs.p999.us();
  }

  // Signal averages over the measurement window.
  if (cfg_.record_signals) {
    r.avg_iio_occupancy = ts_is_.mean_over(measure_start_, now);
    r.avg_pcie_gbps = ts_bs_.mean_over(measure_start_, now);
  } else {
    r.avg_iio_occupancy = signals().is_value();
    r.avg_pcie_gbps = signals().bs_value().as_gbps();
  }
  return r;
}

ScenarioResults Scenario::run() {
  run_warmup();
  return run_measure();
}

}  // namespace hostcc::exp
