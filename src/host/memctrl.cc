#include "host/memctrl.h"

#include <cassert>
#include <cmath>

namespace hostcc::host {

void MemoryController::quantum() {
  obs::ProfScope scope(prof_);
  // Idle with nothing host-local to poll: every offer is known to be zero.
  // Once the EWMAs have settled at 0 the quantum changes nothing at all,
  // and after a few such quanta the lane sleeps until a wake.
  if (idle_ && host_local_sources_ == 0) {
    decay_idle(1);
    if (++idle_quanta_ == kSleepAfterIdleQuanta) timer_.sleep();
    return;
  }
  idle_quanta_ = 0;
  const sim::Time now = sim_.now();
  const double cap = quantum_cap_bytes_;

  const std::size_t n = sources_.size();

  // While idle, the network-path sources are known to offer nothing until
  // they call mem_wake(), so only the host-local ones are polled. Summing
  // the skipped zero offers would not change any total.
  const bool idle = idle_;
  bool network_busy = false;
  double total_demand = 0.0;
  double total_pressure = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    grants_[i] = 0.0;
    MemSource::Offer& offer = offers_[i];
    const bool network = network_path_[i] != 0;
    if (idle && network) {
      offer = {};
      continue;
    }
    offer = sources_[i]->mem_offer(now, cfg_.mc_quantum);
    assert(offer.demand_bytes >= 0.0 && offer.pressure_bytes >= 0.0);
    // A source with demand always has at least a cacheline of pressure, so
    // an offer is all-zero exactly when its pressure is.
    if (offer.demand_bytes > 0.0) {
      offer.pressure_bytes = std::max(offer.pressure_bytes, static_cast<double>(sim::kCacheline));
    }
    network_busy |= network & (offer.pressure_bytes > 0.0);
    total_demand += offer.demand_bytes;
    total_pressure += offer.pressure_bytes;
  }
  // Set before any grant: a wake raised from inside mem_granted (a drained
  // IIO write delivering to the CPU) must not be overwritten.
  idle_ = !network_busy;
  if (total_pressure == 0.0) {
    decay_idle(1);
    return;
  }
  settled_ = false;

  // Water-fill: proportional to pressure among unsatisfied sources, with
  // unused share redistributed. Converges in a handful of rounds.
  double cap_left = std::min(cap, total_demand);
  for (int round = 0; round < 8 && cap_left > 1.0; ++round) {
    double active_pressure = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (grants_[i] < offers_[i].demand_bytes) active_pressure += offers_[i].pressure_bytes;
    }
    if (active_pressure <= 0.0) break;
    const double fill_per_pressure = cap_left / active_pressure;
    double distributed = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double want = offers_[i].demand_bytes - grants_[i];
      if (want <= 0.0) continue;
      const double share = fill_per_pressure * offers_[i].pressure_bytes;
      const double take = std::min(want, share);
      grants_[i] += take;
      distributed += take;
    }
    cap_left -= distributed;
    if (distributed < 1.0) break;
  }

  double served = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (grants_[i] > 0.0) {
      sources_[i]->mem_granted(now, grants_[i]);
      granted_[i].total_bytes += static_cast<sim::Bytes>(grants_[i] + 0.5);
    }
    rate_ewma_[i].add(grants_[i] * grant_rate_scale_);
    pressure_ewma_[i].add(offers_[i].pressure_bytes);
    served += grants_[i];
  }

  // Latency model: device load latency from smoothed utilization (service
  // plus a bounded backlog penalty when demand persistently exceeds
  // capacity) and a contention wait from resident request bytes (Little).
  const double backlog_penalty = std::min((total_demand - served) * inv_quantum_cap_, 0.3);
  const double rho = served * inv_quantum_cap_ + std::max(backlog_penalty, 0.0);
  util_ewma_.add(rho);
  update_latency(total_pressure);
}

// `quanta` quanta in which no source offered anything. The water-fill
// would grant nothing, so only the zero-sample EWMA updates remain; they
// are bit-identical to the full quantum's (every grant and rho is +0.0).
// All EWMAs advance together, one quantum per pass, so their independent
// decay chains overlap; the passes stop once every value is exactly 0,
// after which a quantum changes nothing. The latency model reads only the
// last pass's state.
void MemoryController::decay_idle(std::uint64_t quanta) const {
  if (settled_) return;
  const std::size_t n = sources_.size();
  bool all_zero = false;
  for (; quanta > 0 && !all_zero; --quanta) {
    all_zero = true;
    for (std::size_t i = 0; i < n; ++i) {
      rate_ewma_[i].add(0.0);
      pressure_ewma_[i].add(0.0);
      all_zero = all_zero && rate_ewma_[i].value() == 0.0 && pressure_ewma_[i].value() == 0.0;
    }
    util_ewma_.add(0.0);
    all_zero = all_zero && util_ewma_.value() == 0.0;
  }
  update_latency(0.0);
  settled_ = all_zero;
}

void MemoryController::update_latency(double total_pressure) const {
  const auto& curve = HostConfig::kDramExtraCurve;
  constexpr std::size_t kPoints = std::size(curve);
  const double u = std::clamp(util_ewma_.value(), curve[0].util, curve[kPoints - 1].util);
  double extra_ns = curve[kPoints - 1].extra_ns;
  for (std::size_t i = 1; i < kPoints; ++i) {
    if (u <= curve[i].util) {
      const double f = (u - curve[i - 1].util) / (curve[i].util - curve[i - 1].util);
      extra_ns = curve[i - 1].extra_ns + f * (curve[i].extra_ns - curve[i - 1].extra_ns);
      break;
    }
  }
  extra_latency_ = sim::Time::nanoseconds(extra_ns);
  queue_wait_ = sim::Time::seconds(total_pressure / cfg_.dram_bandwidth.bytes_per_sec());
}

}  // namespace hostcc::host
