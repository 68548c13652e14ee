#include "host/iio.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace hostcc::host {

sim::Time IioBuffer::congestion_extra() const {
  if (mc_ == nullptr) return sim::Time::zero();
  const auto& curve = HostConfig::kIioAdmitCurve;
  constexpr int n = HostConfig::kIioAdmitCurvePoints;
  const double x = std::clamp(mc_->overload(), curve[0].overload, curve[n - 1].overload);
  double extra = curve[n - 1].extra_ns;
  for (int i = 1; i < n; ++i) {
    if (x <= curve[i].overload) {
      const double f = (x - curve[i - 1].overload) / (curve[i].overload - curve[i - 1].overload);
      extra = curve[i - 1].extra_ns + f * (curve[i].extra_ns - curve[i - 1].extra_ns);
      break;
    }
  }
  return sim::Time::nanoseconds(extra);
}

// IOMMU extension (§6): an IOTLB miss stalls the write for a page walk,
// regardless of memory-controller load — host congestion can originate in
// the memory-protection hardware alone.
sim::Time IioBuffer::iommu_extra() {
  if (!cfg_.iommu_enabled) return sim::Time::zero();
  return rng_.bernoulli(cfg_.iotlb_miss_rate) ? cfg_.iotlb_miss_penalty : sim::Time::zero();
}

void IioBuffer::insert(net::PacketRef pkt, sim::Bytes credit_bytes, bool to_memory,
                       bool eviction, bool last_chunk) {
  obs::ProfScope scope(prof_);
  assert(credit_bytes > 0);
  msrs_.count_insertions(static_cast<double>(credit_bytes) /
                         static_cast<double>(sim::kCacheline));
  total_inserted_ += credit_bytes;

  const sim::Time now = sim_.now();
  if (tracer_ && last_chunk) tracer_->stage(obs::PacketStage::kIioAdmit, *pkt, now);
  if (to_memory) {
    Entry e;
    if (last_chunk) e.pkt = std::move(pkt);
    e.remaining = credit_bytes;
    e.admit_after = now + cfg_.iio_admit_latency + congestion_extra() + iommu_extra() +
                    (eviction ? cfg_.ddio_eviction_penalty : sim::Time::zero());
    e.eviction = eviction;
    e.last = last_chunk;
    change_occupancy(credit_bytes, 0);
    memq_.push_back(std::move(e));
    mem_wake();
    return;
  }

  // DDIO hit: the write goes straight to the LLC after the short IIO->LLC
  // latency, without consuming DRAM bandwidth. Completion keeps the pooled
  // ref only if this is the tail chunk.
  change_occupancy(0, credit_bytes);
  net::PacketRef done = last_chunk ? std::move(pkt) : net::PacketRef{};
  sim_.after(cfg_.iio_ddio_hit_latency,
             [this, done = std::move(done), credit_bytes, last_chunk]() mutable {
               change_occupancy(0, -credit_bytes);
               total_admitted_ += credit_bytes;
               pcie_.release(credit_bytes);
               if (last_chunk) {
                 if (tracer_) tracer_->stage(obs::PacketStage::kWriteIssued, *done, sim_.now());
                 if (deliver_) deliver_(std::move(done), /*from_llc=*/true);
               }
             });
}

MemSource::Offer IioBuffer::mem_offer(sim::Time now, sim::Time /*quantum*/) {
  sim::Bytes eligible = 0;
  for (std::size_t i = 0; i < memq_.size(); ++i) {
    const Entry& e = memq_[i];
    if (e.admit_after > now) break;  // FIFO with uniform latency: monotone
    eligible += e.remaining;
  }
  const sim::Bytes pressure_cap =
      static_cast<sim::Bytes>(cfg_.iio_mc_inflight_lines) * sim::kCacheline;
  return {.demand_bytes = static_cast<double>(eligible),
          .pressure_bytes = static_cast<double>(std::min(mem_bytes_, pressure_cap))};
}

void IioBuffer::mem_granted(sim::Time now, double bytes) {
  grant_carry_ += bytes;
  auto budget = static_cast<sim::Bytes>(grant_carry_);
  grant_carry_ -= static_cast<double>(budget);

  // Credits freed by this drain are released in one batch after the loop
  // (coalesced drain): PCIe is serialized, so at most one stalled DMA chunk
  // can start per instant regardless of how many release() callbacks fire —
  // batching collapses per-entry on_credit invocations into one without
  // changing when that chunk begins.
  sim::Bytes released = 0;
  while (budget > 0 && !memq_.empty()) {
    Entry& head = memq_.front();
    if (head.admit_after > now) break;
    const sim::Bytes take = std::min(budget, head.remaining);
    head.remaining -= take;
    budget -= take;
    change_occupancy(-take, 0);
    total_admitted_ += take;
    released += take;
    if (head.remaining == 0) {
      const bool was_last = head.last;
      net::PacketRef done = std::move(head.pkt);
      memq_.pop_front();
      if (was_last) {
        if (tracer_) tracer_->stage(obs::PacketStage::kWriteIssued, *done, now);
        if (deliver_) deliver_(std::move(done), /*from_llc=*/false);
      }
    }
  }
  if (released > 0) pcie_.release(released);
  // Any unused budget (entries not yet eligible) is forfeited: DRAM slots
  // are not bankable across quanta.
  grant_carry_ = std::min(grant_carry_, 63.0);
}

}  // namespace hostcc::host
