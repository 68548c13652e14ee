#include "host/cpu.h"

#include <algorithm>
#include <cassert>

#include "host/nic.h"
#include "obs/trace.h"

namespace hostcc::host {

CpuComplex::CpuComplex(sim::Simulator& sim, const HostConfig& cfg, MemoryController& mc,
                       LlcDdio& ddio)
    : sim_(sim), cfg_(cfg), mc_(mc), ddio_(ddio), cores_(cfg.net_cores) {}

void CpuComplex::deliver(net::PacketRef p, bool from_llc) {
  const std::size_t core = p->flow % cores_.size();
  flow_backlog_[p->flow] += p->payload;
  total_backlog_ += p->payload;
  cores_[core].q.push_back({std::move(p), from_llc});
  maybe_start(core);
}

sim::Time CpuComplex::processing_time(const Work& w) const {
  if (w.pkt->payload == 0) {
    // Pure ACK/control: fixed protocol-processing cost.
    return cfg_.cpu_per_packet_overhead;
  }
  const sim::Time l_mem =
      w.from_llc ? cfg_.llc_hit_latency : mc_.device_latency() + mc_.source_wait(this);
  const double ns_per_byte =
      cfg_.cpu_ns_per_byte_base + cfg_.cpu_mem_stalls_per_byte * l_mem.ns();
  return cfg_.cpu_per_packet_overhead +
         sim::Time::nanoseconds(ns_per_byte * static_cast<double>(w.pkt->payload));
}

void CpuComplex::maybe_start(std::size_t core_idx) {
  Core& core = cores_[core_idx];
  if (core.busy || core.q.empty()) return;
  core.busy = true;
  busy_cores_ += 1.0;
  mem_wake();  // busy cores put pressure on the memory controller
  Work w = std::move(core.q.front());
  core.q.pop_front();
  const sim::Time t = processing_time(w);
  total_busy_ += t;
  sim_.after(t, [this, core_idx, w = std::move(w)]() mutable {
    finish(core_idx, std::move(w));
  });
}

void CpuComplex::finish(std::size_t core_idx, Work w) {
  obs::ProfScope scope(prof_);
  Core& core = cores_[core_idx];
  core.busy = false;
  busy_cores_ -= 1.0;

  const net::Packet& pkt = *w.pkt;
  auto it = flow_backlog_.find(pkt.flow);
  if (it != flow_backlog_.end()) {
    // Entries are kept at zero instead of erased: flows are long-lived, so
    // keeping the node avoids per-packet rehash/erase churn in the warm
    // steady state (the zero-allocation hook test pins this).
    it->second -= pkt.payload;
    if (it->second < 0) it->second = 0;
  }
  total_backlog_ -= pkt.payload;

  // Copy traffic: what the copy-to-user costs in DRAM bandwidth depends on
  // whether the packet was still LLC-resident (§2.2 / DDIO discussion).
  const double amp = w.from_llc ? cfg_.copy_llc_amplification : cfg_.copy_amplification;
  copy_backlog_ += amp * static_cast<double>(pkt.payload);
  mem_wake();
  if (w.from_llc) ddio_.consumed(pkt.payload);

  ++processed_pkts_;
  processed_bytes_ += pkt.payload;
  if (tracer_) tracer_->stage(obs::PacketStage::kDelivered, pkt, sim_.now());
  if (nic_ != nullptr) nic_->descriptor_returned();

  // The stack reads the pooled packet in place (the ingress filter may
  // mutate it first); no copy is made on the delivery path.
  net::Packet& out = *w.pkt;
  if (ingress_) ingress_(out);
  if (stack_rx_) stack_rx_(out);

  maybe_start(core_idx);
}

MemSource::Offer CpuComplex::mem_offer(sim::Time /*now*/, sim::Time /*quantum*/) {
  // Pressure: outstanding requests of the busy cores, scaled by the
  // memory-bound fraction of their work.
  const double l = (mc_.device_latency() + mc_.source_wait(this)).ns();
  const double duty = (cfg_.cpu_mem_stalls_per_byte * l) /
                      (cfg_.cpu_ns_per_byte_base + cfg_.cpu_mem_stalls_per_byte * l);
  const double pressure = busy_cores_ * cfg_.mapp_lfb_per_core *
                          static_cast<double>(sim::kCacheline) * duty;
  return {.demand_bytes = copy_backlog_, .pressure_bytes = pressure};
}

void CpuComplex::mem_granted(sim::Time /*now*/, double bytes) {
  copy_backlog_ = std::max(0.0, copy_backlog_ - bytes);
}

}  // namespace hostcc::host
