// HostModel: the complete host network of one server (Fig. 1), assembled.
//
//   wire -> NicRx -> PcieLink -> IioBuffer -> MemoryController/LLC
//        -> CpuComplex -> [ingress filter] -> transport stack
//
// plus the actuation/observation surfaces hostCC uses: MsrBank (ROCC/RINS/
// TSC) and MbaThrottle, and the shared MemoryController that MApp-style
// host-local traffic contends on.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "host/config.h"
#include "host/cpu.h"
#include "host/ddio.h"
#include "host/iio.h"
#include "host/mba.h"
#include "host/memctrl.h"
#include "host/msr.h"
#include "host/nic.h"
#include "host/pcie.h"
#include "host/tx.h"
#include "net/packet.h"
#include "obs/profiler.h"
#include "sim/simulator.h"

namespace hostcc::host {

class HostModel {
 public:
  HostModel(sim::Simulator& sim, HostConfig cfg, std::string name);

  HostModel(const HostModel&) = delete;
  HostModel& operator=(const HostModel&) = delete;

  const std::string& name() const { return name_; }
  const HostConfig& config() const { return cfg_; }

  // --- fabric side ---
  // Pooled fast path: the ref travels NIC -> PCIe -> IIO -> CPU unchanged.
  void receive_from_wire(net::PacketRef p) { nic_->packet_from_wire(std::move(p)); }
  // By-value bridge for callers holding a plain Packet (tests, loopback
  // fabrics): the packet is staged into this host's pool on entry.
  void receive_from_wire(const net::Packet& p) { receive_from_wire(pool_.make(p)); }
  void set_egress(TxPath::EgressFn fn) { tx_->set_egress(std::move(fn)); }
  void send(net::PacketRef p) {
    tx_queued_[p->flow] += p->size;
    tx_->send(std::move(p));
  }
  void send(const net::Packet& p) { send(pool_.make(p)); }

  // The pool backing this host's datapath; the transport allocates its
  // outbound packets here so egress is zero-copy too.
  net::PacketPool& packet_pool() { return pool_; }

  // --- TSQ-style egress accounting ---
  // The fabric notifies the host when a packet leaves the local NIC queue
  // (finished serialization on the uplink).
  void wire_dequeued(const net::Packet& p) {
    auto it = tx_queued_.find(p.flow);
    if (it != tx_queued_.end()) {
      // Kept at zero, not erased: avoids per-packet node churn (see the
      // steady-state allocation test).
      it->second -= p.size;
      if (it->second < 0) it->second = 0;
    }
    if (on_tx_drained_) on_tx_drained_(p.flow);
  }
  sim::Bytes tx_path_queued() const { return tx_->queued_packets(); }
  sim::Bytes tx_queued_bytes(net::FlowId flow) const {
    auto it = tx_queued_.find(flow);
    return it != tx_queued_.end() ? it->second : 0;
  }
  // Pre-creates the per-flow accounting entries (egress bytes here, receive
  // backlog in the CPU complex) so a flow id's first real packet never
  // inserts a hash-map node. The workload engine calls this for every churn
  // flow id at build time; entries start and idle at zero, which is
  // indistinguishable from "absent" everywhere they are read.
  void prewarm_flow(net::FlowId flow) {
    tx_queued_.emplace(flow, 0);
    cpu_->prewarm_flow(flow);
  }
  // Reserves the CPU work rings to the rx-descriptor bound (the most
  // packets that can ever be queued between NIC arrival and protocol
  // processing). Churn workloads call this once at build; steady-state
  // sims skip it and let the rings double to their organic high-water.
  void prewarm_rx_queues() {
    cpu_->prewarm_depth(static_cast<std::size_t>(cfg_.rx_descriptors));
  }
  void set_on_tx_drained(std::function<void(net::FlowId)> fn) {
    on_tx_drained_ = std::move(fn);
  }

  // --- stack side ---
  void set_stack_rx(CpuComplex::StackRxFn fn) { cpu_->set_stack_rx(std::move(fn)); }
  // hostCC's receiver-ingress hook (NetFilter ip_recv analogue).
  void set_ingress_filter(CpuComplex::IngressFilter fn) {
    cpu_->set_ingress_filter(std::move(fn));
  }

  // Advertised receive window for `flow`: socket buffer minus the
  // unprocessed receive backlog attributable to the flow.
  sim::Bytes rwnd_for(net::FlowId flow) const {
    const sim::Bytes free = cfg_.socket_buffer_bytes - cpu_->backlog_bytes(flow);
    return free > 0 ? free : 0;
  }

  // --- host-local traffic (MApp etc.) ---
  void add_host_local_source(MemSource* src) { mc_->add_source(src, /*network_path=*/false); }

  // --- hybrid-fidelity parking ---
  // A demoted host is kept constructed (events may still reference it) but
  // parked: the memory controller's 100ns quantum lane — the only always-on
  // per-host periodic cost — stops until unpark(). Park only a quiescent
  // host (empty NIC/IIO/TX pipeline); in-flight datapath work would stall.
  void park() {
    parked_ = true;
    mc_->set_quantum_active(false);
  }
  void unpark() {
    parked_ = false;
    mc_->set_quantum_active(true);
  }
  bool parked() const { return parked_; }
  // Quiescence probe for the demotion decision: no bytes anywhere in the
  // rx pipeline or the egress queue.
  bool pipeline_empty() const {
    return nic_->queued_bytes() == 0 && iio_->occupancy_bytes() == 0 &&
           cpu_->total_backlog() == 0 && tx_->queued_packets() == 0;
  }

  // --- observability ---
  // Attaches (or detaches, with nullptr) a packet-lifecycle tracer to every
  // rx-datapath stage. The tracer decides whether it is enabled; attaching
  // a disabled tracer costs one predictable branch per stage hook.
  void set_tracer(obs::PacketTracer* t) {
    nic_->set_tracer(t);
    iio_->set_tracer(t);
    cpu_->set_tracer(t);
  }
  // Attaches (or detaches, with nullptr) the simulator self-profiler to the
  // datapath hot paths, registering "<host-name>/<component>" tags. The
  // profiler decides whether it is enabled; a detached handle is one branch.
  void set_profiler(obs::SimProfiler* p) {
    nic_->set_profiler(p ? p->handle(name_ + "/nic") : obs::ProfHandle{});
    iio_->set_profiler(p ? p->handle(name_ + "/iio") : obs::ProfHandle{});
    mc_->set_profiler(p ? p->handle(name_ + "/memctrl") : obs::ProfHandle{});
    cpu_->set_profiler(p ? p->handle(name_ + "/cpu") : obs::ProfHandle{});
  }
  // Registers every stage's metrics under "<host-name>/<component>/...".
  // Call after all MemSources have been added (see MemoryController).
  void register_metrics(obs::MetricsRegistry& reg) {
    nic_->register_metrics(reg, name_ + "/nic");
    pcie_->register_metrics(reg, name_ + "/pcie");
    iio_->register_metrics(reg, name_ + "/iio");
    mc_->register_metrics(reg, name_ + "/memctrl");
    cpu_->register_metrics(reg, name_ + "/cpu");
    tx_->register_metrics(reg, name_ + "/tx");
    mba_->register_metrics(reg, name_ + "/mba");
  }

  // --- component access (hostCC, telemetry, tests) ---
  MemoryController& memctrl() { return *mc_; }
  const MemoryController& memctrl() const { return *mc_; }
  MsrBank& msrs() { return *msrs_; }
  MbaThrottle& mba() { return *mba_; }
  NicRx& nic() { return *nic_; }
  const NicRx& nic() const { return *nic_; }
  IioBuffer& iio() { return *iio_; }
  const IioBuffer& iio() const { return *iio_; }
  LlcDdio& ddio() { return *ddio_; }
  CpuComplex& cpu() { return *cpu_; }
  const CpuComplex& cpu() const { return *cpu_; }
  PcieLink& pcie() { return *pcie_; }
  sim::Simulator& simulator() { return sim_; }

 private:
  sim::Simulator& sim_;
  HostConfig cfg_;
  std::string name_;

  // Order matters: constructed top-down, used bottom-up.
  std::unique_ptr<MemoryController> mc_;
  std::unique_ptr<MsrBank> msrs_;
  std::unique_ptr<MbaThrottle> mba_;
  std::unique_ptr<LlcDdio> ddio_;
  std::unique_ptr<PcieLink> pcie_;
  std::unique_ptr<IioBuffer> iio_;
  std::unique_ptr<NicRx> nic_;
  std::unique_ptr<CpuComplex> cpu_;
  std::unique_ptr<TxPath> tx_;

  net::PacketPool pool_;
  std::unordered_map<net::FlowId, sim::Bytes> tx_queued_;
  std::function<void(net::FlowId)> on_tx_drained_;
  bool parked_ = false;
};

}  // namespace hostcc::host
