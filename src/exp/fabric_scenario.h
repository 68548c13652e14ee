// FabricScenario: rack-scale experiments — N hosts, each an exp::HostSlot
// (a full HostModel with its own NIC/PCIe/IIO/MC datapath, MApp
// interference, and optional hostCC controller, or the flow-level tier
// under --fidelity analytic|auto) wired through a multi-switch
// fabric::Fabric (leaf–spine / fat-tree / star) with shared-buffer DT
// switches and ECMP routing.
//
// The single-star exp::Scenario remains the calibrated testbed for the
// paper's figures; FabricScenario is the scaling stage on top of it
// (fig13x_fabric, BM_FabricHostScaling): incast and all-to-all traffic
// across topologies, link/port faults addressed by edge name, and a
// fabric-wide invariant audit (per-host conservation laws plus every
// switch's shared-buffer ledger).
//
// Host numbering: topology host nodes in declaration order get HostIds
// 0..N-1 ("h0" -> 0). Incast targets host 0 (every other host sends to
// it); all-to-all runs flows for every ordered pair. MApps (and hostCC
// controllers, when enabled) live on the first `congested_hosts` flow
// destinations.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/mem_app.h"
#include "apps/rpc_app.h"
#include "exp/fidelity.h"
#include "fabric/fabric.h"
#include "fabric/partition.h"
#include "fabric/pause_ledger.h"
#include "fabric/topology.h"
#include "faults/fabric_invariants.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "faults/invariants.h"
#include "host/host.h"
#include "hostcc/controller.h"
#include "obs/decision_log.h"
#include "obs/fabric_telemetry.h"
#include "obs/flow_stats.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/shard_channel.h"
#include "sim/sharded_sim.h"
#include "sim/simulator.h"
#include "transport/stack.h"
#include "workload/cdf.h"
#include "workload/engine.h"
#include "workload/workload.h"

namespace hostcc::exp {

enum class FabricTraffic {
  kIncast,    // hosts 1..N-1 -> host 0
  kAllToAll,  // every ordered pair
};

struct FabricScenarioConfig {
  // Topology::parse grammar: star:<n> | leaf-spine:<l>x<h>[x<s>] | fat-tree:<k>.
  std::string topology = "leaf-spine:4x4";
  // 0 = instantiate every topology host; otherwise only hosts 0..N-1
  // participate (the scaling knob behind `--hosts`).
  int hosts = 0;

  // Worker threads (>= 1). The fabric is partitioned into per-switch cells
  // (fabric::partition_topology) executed by a sim::ShardedSimulator on
  // min(shards, cells) threads under conservative lookahead. The partition
  // is a pure function of the topology, so results — run JSON, telemetry
  // CSV, traces — are byte-identical for every value.
  int shards = 1;

  host::HostConfig host;                 // per-host config (seeds differentiated)
  transport::TransportConfig transport;
  fabric::FabricSwitchConfig fabric;     // shared-buffer DT switch config

  FabricTraffic traffic = FabricTraffic::kIncast;
  int flows_per_pair = 2;                // long flows per (sender, dest) pair
  // Message size per long flow: 0 = the seed's infinite-source streams;
  // > 0 = closed-loop back-to-back messages of this size (gives FlowStats
  // real completion episodes — required for the FCT percentiles).
  sim::Bytes flow_bytes = 0;
  double mapp_degree = 2.0;              // MApp degree on congested hosts
  int congested_hosts = 1;               // how many flow destinations get an MApp

  bool hostcc_enabled = false;           // one controller per congested host
  core::HostCcConfig hostcc;

  faults::FaultPlan faults;              // link/port faults by edge name
  bool check_invariants = true;          // per-host checkers + fabric ledger audit

  // Production workload engine (src/workload): open-loop flow churn with
  // empirical sizes driven through the pooled transport stacks. When
  // enabled it replaces the long flows: every host is both sender and
  // receiver, per-flow FCT accounting turns on automatically,
  // and `traffic`/`flows_per_pair`/`flow_bytes` are ignored. Churn pins
  // every host to the packet-level tier (the analytic tier cannot open or
  // retire connections), so --fidelity auto is coerced to full here.
  workload::WorkloadConfig workload;

  // Lossless fabric mode: enables per-priority PFC on every switch
  // (cfg.fabric.pfc_* thresholds + headroom), NIC watermark backpressure
  // on every host, a fabric-wide PauseLedger, and the losslessness /
  // pause-ledger / pause-deadlock invariant classes.
  bool lossless = false;
  // Opt-in watchdog: when the deadlock invariant detects a pause-dependency
  // cycle, force-XON every port of the cycle's switches so the run drains
  // instead of wedging. The detection itself still counts as a violation.
  bool storm_breaker = false;

  // Rack-scale runs multiply event load by hosts x switches; defaults are
  // far shorter than exp::Scenario's calibrated windows.
  sim::Time warmup = sim::Time::milliseconds(10);
  sim::Time measure = sim::Time::milliseconds(10);
  sim::Time flow_stagger = sim::Time::microseconds(100);

  // Observability (all off by default: rack-scale runs are event-heavy).
  bool record_flow_stats = false;        // per-flow FCT/slowdown accounting
  obs::FlowStatsConfig flow_stats;       // slowdown normalization constants
  bool record_decisions = false;         // shared hostCC decision log (all hosts)
  bool telemetry = false;                // per-switch/per-port occupancy sampling
  obs::FabricTelemetryConfig telemetry_cfg;
  bool profile = false;                  // simulator self-profiler

  // Host fidelity (--fidelity full|analytic|auto). Every host is a
  // HostSlot: kFull pins every slot full (a packet-level HostModel per
  // host); kAnalytic runs every host as a flow-level AnalyticHost; kAuto
  // pins the first `congested_hosts` flow destinations full (they carry
  // the MApps, controllers, and signal sampler) and runs everyone else
  // analytic with promotion/demotion driven by leaf delivery-port
  // congestion. See src/exp/fidelity.h.
  HostFidelity fidelity = HostFidelity::kFull;
  sim::Bytes promote_threshold = 64 * 1024;  // leaf delivery-port queue bytes
  sim::Time demote_quiescence = sim::Time::microseconds(100);
  // Cap each closed-loop flow (flow_bytes > 0) at this many messages, so
  // senders drain (and, under kAuto, the demotion path is reachable).
  // 0 = endless back-to-back messages.
  std::uint64_t messages_per_flow = 0;
};

struct FabricScenarioResults {
  double net_tput_gbps = 0.0;        // aggregate long-flow goodput
  double host_drop_rate_pct = 0.0;   // NIC drops across destination hosts
  double fabric_drop_rate_pct = 0.0; // shared-buffer drops across all switches
  double fabric_drop_frac = 0.0;     // same, as a fraction (paper band 1e-4..1e-2)

  std::uint64_t fabric_drops = 0;
  std::uint64_t fabric_marks = 0;
  std::uint64_t fabric_no_route_drops = 0;
  std::uint64_t delivered_pkts = 0;       // NIC-arrived at destination hosts
  sim::Bytes fabric_occupancy_peak = 0;   // max over switches, whole run

  double avg_iio_occupancy = 0.0;    // host 0 (the canonical congested host)
  double avg_pcie_gbps = 0.0;

  std::uint64_t sender_timeouts = 0;
  std::uint64_t sender_fast_retransmits = 0;

  std::uint64_t invariant_violations = 0;  // hosts + fabric ledger, whole run

  // Lossless-mode accounting (cfg.lossless only; zero otherwise).
  std::uint64_t pfc_xoff_frames = 0;       // switch + host XOFFs emitted
  std::uint64_t pfc_xon_frames = 0;        // switch + host XONs emitted
  std::uint64_t pfc_muted_xons = 0;        // XONs suppressed by pfc_mute faults
  int pause_outstanding = 0;               // still-paused (port,prio) at run end
  int pause_max_outstanding = 0;           // peak concurrently paused pairs
  double pause_last_all_clear_us = 0.0;    // last time the ledger fully drained
  int pause_tree_depth_peak = 0;           // longest pause-dependency chain seen
  std::uint64_t storm_breaks = 0;          // watchdog interventions (storm_breaker)

  // Flow completion times over the measurement window (record_flow_stats
  // with flow_bytes > 0).
  std::uint64_t flow_episodes = 0;
  double fct_p50_us = 0.0;
  double fct_p99_us = 0.0;
  double fct_p999_us = 0.0;

  // Workload-engine accounting (cfg.workload.enabled; zero otherwise).
  // Flow counts are whole-run; the FCT fields above cover the window.
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_skipped = 0;       // arrivals dropped: all slots busy
  std::uint64_t conn_pool_opens = 0;     // stack open() calls (incl. prewarm)
  std::uint64_t conn_pool_reuses = 0;    // opens served from the free pool
  std::uint64_t orphan_packets = 0;      // arrivals for no/retired connection
  std::uint64_t rpc_trees_started = 0;   // RPC fan-out/fan-in invocations
  std::uint64_t rpc_trees_completed = 0;
  std::uint64_t rpc_trees_skipped = 0;   // invocation while one outstanding
  double rpc_p50_us = 0.0;               // fan-in latency, measurement window
  double rpc_p99_us = 0.0;
  double rpc_p999_us = 0.0;

  // Hybrid-fidelity tier accounting (fidelity != kFull; zero otherwise).
  int hosts_full = 0;          // hosts on the packet-level tier at run end
  int hosts_analytic = 0;      // hosts on the flow-level tier at run end
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
};

// Every startup check FabricScenario runs before building anything, as one
// aggregated list (empty = valid): the topology grammar and graph, the
// host/hostCC/fault-plan checks, the fabric knobs, fault edge names, and
// the workload. `topo_out` and `cdf_out`, when given, receive the parsed
// topology and flow-size CDF. hostcc_sim reports these errors together
// with its command-line errors.
std::vector<std::string> validate(const FabricScenarioConfig& cfg,
                                  std::optional<fabric::Topology>* topo_out = nullptr,
                                  workload::SizeCdf* cdf_out = nullptr);

class FabricScenario {
 public:
  explicit FabricScenario(FabricScenarioConfig cfg);
  ~FabricScenario();

  FabricScenario(const FabricScenario&) = delete;
  FabricScenario& operator=(const FabricScenario&) = delete;

  FabricScenarioResults run();
  void run_warmup();
  FabricScenarioResults run_measure();
  void run_for(sim::Time d);

  // Current simulation time / executed events summed over every cell.
  sim::Time now() const { return engine_->now(); }
  std::uint64_t events_executed() const { return engine_->events_executed(); }
  // The event engine: one Simulator per cell of shard_plan().
  sim::ShardedSimulator* engine() { return engine_.get(); }
  const fabric::ShardPlan& shard_plan() const { return plan_; }
  fabric::Fabric& fabric() { return *fabric_; }
  int host_count() const { return static_cast<int>(slots_.size()); }
  // Host i's packet-level kit; throws std::out_of_range when it has none
  // (an analytic host that was never promoted).
  host::HostModel& host(int i);
  transport::Stack& stack(int i);
  HostSlot& slot(int i) { return *slots_.at(i); }
  // True under --fidelity analytic|auto, where hosts can be flow-level.
  bool hybrid() const { return cfg_.fidelity != HostFidelity::kFull; }
  FidelityManager* fidelity_manager(int i = 0) {
    return i < static_cast<int>(managers_.size()) ? managers_[i].get() : nullptr;
  }
  core::HostCcController* controller(int i = 0);
  faults::FabricInvariantChecker* fabric_invariants() {
    return fabric_checkers_.empty() ? nullptr : fabric_checkers_.front().get();
  }
  obs::MetricsRegistry& metrics() { return metrics_; }
  // Per-flow FCT/slowdown accounting (cfg.record_flow_stats). The run
  // keeps one FlowStats per cell during execution (each touched only by
  // its owning thread) and folds them into this aggregate inside
  // run_measure(); read it after run_measure() returns.
  const obs::FlowStats& flow_stats() const { return flow_stats_; }
  // Shared hostCC decision record across every controller; the `host`
  // column disambiguates (cfg.record_decisions, hostcc runs only).
  // Controllers log privately and run_measure() merges the logs
  // (time-ordered, controller order on ties).
  const obs::DecisionLog& decisions() const { return decisions_; }
  // Sampled per-switch/per-port occupancy time-series (cfg.telemetry).
  obs::FabricTelemetry& telemetry() { return telemetry_; }
  // The fabric invariant report over every cell's checker: summed counts
  // and the recorded violations in time order (cell order on ties).
  std::string fabric_invariants_report() const;
  // Merged fabric-wide pause ledger (cfg.lossless). The run keeps one
  // ledger per cell and folds them here inside run_measure().
  const fabric::PauseLedger& pause_ledger() const { return pause_ledger_; }
  // Simulator self-profiler. Detached until attach_profiler() (or
  // cfg.profile) wires its handles into hosts, switches, and stacks.
  obs::SimProfiler& profiler() { return profiler_; }
  void attach_profiler(bool enable);
  const FabricScenarioConfig& config() const { return cfg_; }
  // Workload-engine surface (cfg.workload.enabled; empty otherwise).
  workload::HostWorkload* host_workload(int i) {
    return i < static_cast<int>(workloads_.size()) ? workloads_[i].get() : nullptr;
  }
  const workload::SizeCdf& workload_cdf() const { return workload_cdf_; }

 private:
  void build();
  void build_workload(int n_hosts, double bisection_bytes_per_sec);
  void workload_accept(transport::Stack& st, const net::Packet& p);
  void mark_measurement_start();
  // The simulator a cell's components schedule on.
  sim::Simulator& cell_sim(int cell) { return engine_->cell(cell); }

  FabricScenarioConfig cfg_;

  // Execution: the topology partition, the per-cell event loops, and the
  // cross-cell packet channels. The epoch hook glues them: at each cell's
  // first entry into an epoch, ShardChannels::begin_epoch schedules that
  // epoch's cross-cell arrivals.
  fabric::ShardPlan plan_;
  std::unique_ptr<sim::ShardedSimulator> engine_;
  std::unique_ptr<sim::ShardChannels<net::Packet>> channels_;
  std::vector<int> host_cell_;  // HostId -> owning cell

  std::unique_ptr<fabric::Fabric> fabric_;
  std::vector<std::unique_ptr<HostSlot>> slots_;                // HostId order
  std::vector<std::unique_ptr<FidelityManager>> managers_;      // kAuto, per cell
  std::vector<std::unique_ptr<obs::DecisionLog>> mgr_decisions_;  // per manager
  // Workload engine (cfg.workload.enabled): one churn generator per host,
  // plus the RPC fan-out/fan-in trees and their server halves. The churn
  // flow-id range is [kWorkloadFlowBase, workload_flow_end_).
  static constexpr net::FlowId kWorkloadFlowBase = 1 << 20;
  static constexpr net::FlowId kRpcFlowBase = 1000;
  std::vector<std::unique_ptr<workload::HostWorkload>> workloads_;
  std::vector<std::unique_ptr<workload::RpcTreeRoot>> rpc_roots_;
  std::vector<std::unique_ptr<apps::RpcServer>> rpc_servers_;
  workload::SizeCdf workload_cdf_;
  net::FlowId workload_flow_end_ = 0;
  std::vector<std::unique_ptr<apps::MemApp>> mapps_;
  std::vector<std::unique_ptr<core::HostCcController>> controllers_;
  std::vector<int> controller_host_;  // parallel: which host each controls
  std::unique_ptr<core::SignalSampler> passive_sampler_;  // host 0, hostCC off
  // One fabric checker / injector per cell, each on its cell's simulator
  // and scoped to the switches/uplinks that cell owns.
  std::vector<std::unique_ptr<faults::FabricInvariantChecker>> fabric_checkers_;
  std::vector<std::unique_ptr<faults::FaultInjector>> injectors_;
  // Lossless mode: one pause ledger per cell, merged into pause_ledger_
  // by run_measure().
  std::vector<std::unique_ptr<fabric::PauseLedger>> cell_ledgers_;
  fabric::PauseLedger pause_ledger_;
  std::vector<int> destinations_;  // flow-destination host ids, ascending

  obs::MetricsRegistry metrics_;
  obs::FlowStats flow_stats_;
  obs::DecisionLog decisions_;
  obs::FabricTelemetry telemetry_;
  obs::SimProfiler profiler_;
  // Per-thread observability staging, folded into the aggregates above by
  // run_measure().
  std::vector<std::unique_ptr<obs::FlowStats>> cell_flow_stats_;      // per cell
  std::vector<std::unique_ptr<obs::DecisionLog>> ctl_decisions_;      // per controller
  std::vector<std::unique_ptr<obs::SimProfiler>> cell_profilers_;     // per cell

  // Measurement-window baselines.
  std::uint64_t base_fabric_drops_ = 0;
  std::uint64_t base_fabric_marks_ = 0;
  std::uint64_t base_dst_arrived_ = 0;
  std::uint64_t base_dst_dropped_ = 0;
  sim::Time measure_start_;
};

}  // namespace hostcc::exp
