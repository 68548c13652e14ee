// Transmit path: the sender-side host datapath, simplified. Outbound
// packets need DMA-read memory bandwidth (tx_amplification bytes per wire
// byte) before they can leave; under sender-side host congestion the TX
// stream is starved exactly like the paper's sender-side scenario (§3.2).
// Wire serialization is performed by the attached net::Link.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "host/config.h"
#include "host/memctrl.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/ring_queue.h"
#include "sim/simulator.h"

namespace hostcc::host {

class TxPath : public MemSource {
 public:
  // Downstream consumers (links, test fabrics) receive the pooled ref;
  // PoolRef's implicit conversion also lets `const net::Packet&` lambdas
  // bind unchanged.
  using EgressFn = std::function<void(const net::PacketRef&)>;

  explicit TxPath(const HostConfig& cfg) : cfg_(cfg) {}

  void set_egress(EgressFn fn) { egress_ = std::move(fn); }

  void send(net::PacketRef p) {
    ++sent_pkts_;
    sent_bytes_ += p->size;
    if (cfg_.tx_amplification <= 0.0) {
      if (egress_) egress_(p);
      return;
    }
    queued_cost_ += cost(*p);
    q_.push_back(std::move(p));
    mem_wake();
    pump();
  }
  // By-value bridge (unit tests / standalone use): stages into a local pool.
  void send(const net::Packet& p) { send(pool_.make(p)); }

  sim::Bytes queued_packets() const { return static_cast<sim::Bytes>(q_.size()); }

  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
    reg.counter_fn(prefix + "/sent_pkts", [this] { return sent_pkts_; });
    reg.counter_fn(prefix + "/sent_bytes",
                   [this] { return static_cast<std::uint64_t>(sent_bytes_); });
    reg.gauge(prefix + "/queued_packets", [this] { return static_cast<double>(q_.size()); });
  }

  // MemSource: DMA reads for outbound data.
  std::string name() const override { return "tx_dma"; }
  Offer mem_offer(sim::Time /*now*/, sim::Time /*quantum*/) override {
    const double need = std::max(0.0, queued_cost_ - budget_);
    const double cap =
        static_cast<double>(cfg_.iio_mc_inflight_lines) * static_cast<double>(sim::kCacheline);
    return {.demand_bytes = need, .pressure_bytes = std::min(need, cap)};
  }
  void mem_granted(sim::Time /*now*/, double bytes) override {
    budget_ += bytes;
    pump();
  }

 private:
  // Whole bytes: the budget comparison must not hinge on floating-point
  // residue from fractional amplification.
  double cost(const net::Packet& p) const {
    return std::ceil(cfg_.tx_amplification * static_cast<double>(p.size));
  }

  void pump() {
    while (!q_.empty() && budget_ + 0.5 >= cost(*q_.front())) {
      net::PacketRef p = std::move(q_.front());
      q_.pop_front();
      budget_ -= cost(*p);
      queued_cost_ -= cost(*p);
      if (egress_) egress_(p);
    }
    if (q_.empty()) {
      budget_ = 0.0;  // DRAM slots are not bankable
      queued_cost_ = 0.0;
    }
  }

  const HostConfig& cfg_;
  EgressFn egress_;
  net::PacketPool pool_;
  sim::RingQueue<net::PacketRef> q_;
  double queued_cost_ = 0.0;
  double budget_ = 0.0;
  std::uint64_t sent_pkts_ = 0;
  sim::Bytes sent_bytes_ = 0;
};

}  // namespace hostcc::host
