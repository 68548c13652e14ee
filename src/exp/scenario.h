// Scenario builder: assembles the paper's testbed topologies — N sender
// hosts and one receiver host behind a single switch (§2.2, §5.1; a
// fabric::FabricSwitch in static per-port drop-tail mode) — with
// NetApp-T long flows, optional NetApp-L RPCs (client on the congested
// receiver, server across the fabric, so responses traverse the congested
// datapath), an MApp on the receiver, and optionally hostCC. Used by every
// bench binary, the examples, and the integration tests.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/mem_app.h"
#include "apps/rpc_app.h"
#include "apps/throughput_app.h"
#include "fabric/fabric_switch.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "faults/invariants.h"
#include "host/host.h"
#include "hostcc/controller.h"
#include "hostcc/sender_response.h"
#include "hostcc/signals.h"
#include "net/link.h"
#include "obs/decision_log.h"
#include "obs/flow_stats.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/timeseries.h"
#include "transport/stack.h"

namespace hostcc::exp {

struct ScenarioConfig {
  host::HostConfig host;                  // receiver-host configuration
  transport::TransportConfig transport;   // MTU, CC choice, RTO/TLP

  sim::Bandwidth link_rate = sim::Bandwidth::gbps(100.0);  // uplinks and switch ports
  sim::Time link_delay = sim::Time::microseconds(6);

  int senders = 1;
  int netapp_flows = 4;                   // total long flows (split across senders)
  double mapp_degree = 0.0;               // 0..3 "degree of host congestion"
  // Host-local traffic at sender 0 (sender-side host congestion, §3.2).
  double sender_mapp_degree = 0.0;
  bool sender_local_response = false;     // sender-side hostCC response
  std::vector<sim::Bytes> rpc_sizes;      // one NetApp-L client per size

  bool hostcc_enabled = false;
  core::HostCcConfig hostcc;
  int fixed_mba_level = -1;               // >=0: hard-code the level (Fig. 9)

  // Deterministic fault schedule (empty = fault-free) and the runtime
  // invariant checker on the receiver datapath (on in every tier-1 run;
  // opt out only for micro-benchmarks).
  faults::FaultPlan faults;
  bool check_invariants = true;

  sim::Time warmup = sim::Time::milliseconds(250);
  sim::Time measure = sim::Time::milliseconds(150);

  bool record_signals = false;            // capture I_S/B_S/level series
  bool trace_packets = false;             // per-packet lifecycle tracing (receiver)
  bool record_decisions = false;          // keep the full hostCC decision log
  bool record_flow_stats = false;         // per-flow FCT/slowdown accounting
  obs::FlowStatsConfig flow_stats;        // slowdown normalization constants
  // NetApp-T message size: 0 keeps the seed's infinite-source streams;
  // > 0 switches every long flow to closed-loop back-to-back messages of
  // this size, which gives FlowStats real completion times.
  sim::Bytes netapp_flow_bytes = 0;
  bool profile = false;                   // enable the simulator self-profiler
};

struct ScenarioResults {
  double net_tput_gbps = 0.0;          // NetApp-T aggregate goodput
  double host_drop_rate_pct = 0.0;     // drops at the receiver NIC
  double fabric_drop_rate_pct = 0.0;   // drops at the switch
  double drop_rate_pct = 0.0;          // combined

  double mapp_mem_gbps = 0.0;          // MApp DRAM bandwidth
  double net_mem_gbps = 0.0;           // network-path DRAM bandwidth (DMA+copy+TX)
  double mem_util = 0.0;               // total / capacity
  double mapp_mem_util = 0.0;
  double net_mem_util = 0.0;

  double avg_iio_occupancy = 0.0;      // mean I_S over the measure window
  double avg_pcie_gbps = 0.0;          // mean B_S over the measure window

  std::vector<sim::LatencySummary> rpc_latency;  // parallel to rpc_sizes

  std::uint64_t sender_timeouts = 0;
  std::uint64_t sender_fast_retransmits = 0;
  std::uint64_t ecn_marked_pkts = 0;   // by hostCC echo at the receiver

  std::uint64_t switch_drops = 0;          // all ports, measure window
  std::uint64_t switch_marks = 0;          // all ports, measure window
  std::uint64_t switch_no_route_drops = 0; // whole run (should stay 0)

  std::uint64_t invariant_violations = 0;  // whole-run count (0 when checker off)

  // Flow completion times over the measurement window (record_flow_stats).
  std::uint64_t flow_episodes = 0;
  double fct_p50_us = 0.0;
  double fct_p99_us = 0.0;
  double fct_p999_us = 0.0;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  // Runs warmup then the measurement window and collects results.
  ScenarioResults run();

  // Finer-grained control (integration tests, time-series figures).
  void run_warmup();
  ScenarioResults run_measure();
  void run_for(sim::Time d);

  sim::Simulator& simulator() { return sim_; }
  host::HostModel& receiver() { return *receiver_; }
  host::HostModel& sender(int i = 0) { return *sender_hosts_.at(i); }
  // One ThroughputApp per sender host that carries NetApp-T flows.
  apps::ThroughputApp& netapp_t(int i = 0) { return *tput_apps_.at(i); }
  int netapp_t_count() const { return static_cast<int>(tput_apps_.size()); }
  apps::RpcClient& rpc_client(int i = 0) { return *rpc_clients_.at(i); }
  apps::MemApp& mapp() { return *mapp_; }
  apps::MemApp* sender_mapp() { return sender_mapp_.get(); }
  core::SenderLocalResponse* sender_response() { return sender_response_.get(); }
  core::SignalSampler& signals();
  core::HostCcController* controller() { return controller_.get(); }
  transport::Stack& receiver_stack() { return *receiver_stack_; }
  transport::Stack& sender_stack(int i = 0) { return *sender_stacks_.at(i); }

  // Populated when cfg.record_signals is set.
  const sim::TimeSeries& is_series() const { return ts_is_; }
  const sim::TimeSeries& bs_series() const { return ts_bs_; }
  const sim::TimeSeries& level_series() const { return ts_level_; }

  // Observability layer: every component registers its metrics here at
  // build time; snapshot/export at any point with metrics().write_csv(...).
  obs::MetricsRegistry& metrics() { return metrics_; }
  // Packet-lifecycle tracer on the receiver datapath (enabled by
  // cfg.trace_packets; always attached, so the disabled fast path is what
  // production runs exercise).
  obs::PacketTracer& tracer() { return tracer_; }
  // Full hostCC decision record (cfg.record_decisions, hostcc runs only).
  const obs::DecisionLog& decisions() const { return decisions_; }
  // Per-flow FCT/slowdown accounting (cfg.record_flow_stats).
  const obs::FlowStats& flow_stats() const { return flow_stats_; }
  // Simulator self-profiler. Detached until attach_profiler() (or
  // cfg.profile) wires its handles into the datapath components.
  obs::SimProfiler& profiler() { return profiler_; }
  // Wires profiler handles into every component; `enable` toggles actual
  // collection (an attached-but-disabled profiler is the overhead the
  // bench gate pins at <= 1%).
  void attach_profiler(bool enable);

  const ScenarioConfig& config() const { return cfg_; }

  // Uplink 0 is the receiver's, 1..N the senders'; switch port i leads
  // to host i (port index == HostId).
  net::Link& uplink(int i) { return *links_.at(i); }
  fabric::FabricSwitch& fabric() { return *fabric_; }

  // Fault machinery (null when the plan is empty / the checker disabled).
  faults::FaultInjector* injector() { return injector_.get(); }
  faults::InvariantChecker* invariants() { return invariants_.get(); }

 private:
  void build();
  void mark_measurement_start();

  ScenarioConfig cfg_;
  sim::Simulator sim_;

  std::unique_ptr<fabric::FabricSwitch> fabric_;
  std::unique_ptr<host::HostModel> receiver_;
  std::vector<std::unique_ptr<host::HostModel>> sender_hosts_;
  std::vector<std::unique_ptr<net::Link>> links_;  // host -> switch uplinks

  std::unique_ptr<transport::Stack> receiver_stack_;
  std::vector<std::unique_ptr<transport::Stack>> sender_stacks_;

  std::vector<std::unique_ptr<apps::ThroughputApp>> tput_apps_;
  std::unique_ptr<apps::MemApp> mapp_;
  std::unique_ptr<apps::MemApp> sender_mapp_;
  std::unique_ptr<core::SenderLocalResponse> sender_response_;
  std::vector<std::unique_ptr<apps::RpcClient>> rpc_clients_;
  std::vector<std::unique_ptr<apps::RpcServer>> rpc_servers_;

  std::unique_ptr<core::HostCcController> controller_;
  std::unique_ptr<core::SignalSampler> passive_sampler_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<faults::InvariantChecker> invariants_;

  sim::TimeSeries ts_is_{"iio_occupancy"};
  sim::TimeSeries ts_bs_{"pcie_gbps"};
  sim::TimeSeries ts_level_{"mba_level"};

  obs::MetricsRegistry metrics_;
  obs::PacketTracer tracer_{"receiver"};
  obs::DecisionLog decisions_;
  obs::FlowStats flow_stats_;
  obs::SimProfiler profiler_;

  // Measurement-window baselines.
  std::uint64_t base_nic_arrived_ = 0;
  std::uint64_t base_nic_dropped_ = 0;
  std::uint64_t base_switch_drops_ = 0;
  std::uint64_t base_switch_total_drops_ = 0;
  std::uint64_t base_switch_total_marks_ = 0;
  std::uint64_t base_echo_marks_ = 0;
  sim::Time measure_start_;
};

}  // namespace hostcc::exp
