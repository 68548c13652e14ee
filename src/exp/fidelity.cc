#include "exp/fidelity.h"

#include <algorithm>
#include <stdexcept>

namespace hostcc::exp {

// ---------------------------------------------------------------- HostSlot

HostSlot::HostSlot(sim::Simulator& sim, Config cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      analytic_(std::make_unique<host::AnalyticHost>(sim, cfg_.name, cfg_.id, cfg_.transport)) {
  active_ = analytic_.get();
}

HostSlot::~HostSlot() = default;

void HostSlot::wire(fabric::Fabric* fab, net::Link* uplink, int switch_idx, int port_idx) {
  fabric_ = fab;
  uplink_ = uplink;
  switch_idx_ = switch_idx;
  port_idx_ = port_idx;
  analytic_->set_egress([lnk = uplink_](net::PacketRef p) { lnk->send(std::move(p)); });
}

void HostSlot::add_sender(net::FlowId flow, net::HostId peer, sim::Bytes bytes) {
  flows_.push_back({.flow = flow, .peer = peer, .sender = true, .bytes = bytes});
  analytic_->open_sender(flow, peer);
  analytic_->set_on_send_complete(flow, [this, flow] { on_message_complete(flow); });
}

void HostSlot::add_receiver(net::FlowId flow, net::HostId peer) {
  flows_.push_back({.flow = flow, .peer = peer, .sender = false});
  analytic_->open_receiver(flow, peer);
  analytic_->set_on_delivered(flow, [this](sim::Bytes n) { meter_.add(n); });
}

void HostSlot::commit() {
  analytic_->set_flow_stats(fs_);
  if (cfg_.pinned_full) {
    build_full_kit();
    analytic_->set_active(false);
    active_ = full_port_.get();
    full_active_ = true;  // the starting assignment, not a promotion
  }
}

HostSlot::FlowSlot& HostSlot::flow_slot(net::FlowId flow) {
  for (FlowSlot& f : flows_) {
    if (f.flow == flow) return f;
  }
  throw std::logic_error("HostSlot: unknown flow");
}

void HostSlot::start_flow(net::FlowId flow) {
  FlowSlot& f = flow_slot(flow);
  if (f.bytes == 0) {
    if (full_active_) {
      stack_->connection(flow).set_infinite_source(true);
    } else {
      analytic_->set_infinite_source(flow, true);
    }
  } else if (full_active_) {
    stack_->connection(flow).write(f.bytes);
  } else {
    analytic_->write(flow, f.bytes);
  }
}

void HostSlot::on_message_complete(net::FlowId flow) {
  FlowSlot& f = flow_slot(flow);
  ++f.messages_done;
  if (cfg_.messages_per_flow > 0 && f.messages_done >= cfg_.messages_per_flow) return;
  if (full_active_) {
    stack_->connection(flow).write(f.bytes);
  } else {
    analytic_->write(flow, f.bytes);
  }
}

void HostSlot::uplink_dequeued(const net::Packet& p) {
  // Both tiers drain their egress accounting: after a swap the uplink FIFO
  // still holds packets the previous tier emitted.
  analytic_->uplink_dequeued(p);
  if (full_host_) full_host_->wire_dequeued(p);
}

void HostSlot::build_full_kit() {
  full_host_ = std::make_unique<host::HostModel>(sim_, cfg_.host, cfg_.name);
  stack_ = std::make_unique<transport::Stack>(sim_, *full_host_, cfg_.id, cfg_.transport);
  if (fs_) stack_->set_flow_stats(fs_);
  full_host_->set_egress([lnk = uplink_](const net::PacketRef& p) { lnk->send(p); });
  if (cfg_.lossless) {
    // Watermark-driven host backpressure: ask the leaf to pause the
    // delivery port at half the RX SRAM, resume at a quarter. With the
    // leaf's headroom annex absorbing the reaction gap, host congestion
    // propagates upstream as pause instead of dropping at the NIC.
    fabric::Fabric* fab = fabric_;
    const net::HostId id = cfg_.id;
    const sim::Bytes buf = cfg_.host.nic_rx_buffer_bytes;
    full_host_->nic().set_pfc(buf / 2, buf / 4,
                              [fab, id](bool on) { fab->host_pause_request(id, 0, on); });
  }
  full_port_ = std::make_unique<host::FullHostPort>(*full_host_);
  for (const FlowSlot& f : flows_) {
    transport::TcpConnection& c = stack_->connect(f.flow, f.peer);
    if (f.sender) {
      c.set_on_send_complete([this, flow = f.flow] { on_message_complete(flow); });
    } else {
      c.set_on_delivered([this](sim::Bytes n) { meter_.add(n); });
    }
  }
  if (cfg_.check_invariants) {
    checker_ = std::make_unique<faults::InvariantChecker>(*full_host_);
    checker_->start();
  }
}

void HostSlot::promote(sim::Time /*now*/) {
  if (full_active_) return;
  analytic_->set_active(false);
  const bool first = !full_host_;
  if (first) {
    build_full_kit();
  } else {
    full_host_->unpark();
    if (checker_) checker_->start();
  }
  active_ = full_port_.get();
  full_active_ = true;
  ++promotions_;
  // State transfer last: restore() resumes transmission immediately, and
  // the packets it emits must leave through the (already active) full tier.
  for (const FlowSlot& f : flows_) {
    stack_->connection(f.flow).restore(analytic_->export_flow(f.flow));
  }
}

void HostSlot::demote(sim::Time /*now*/) {
  if (!full_active_) return;
  for (const FlowSlot& f : flows_) {
    transport::TcpConnection& c = stack_->connection(f.flow);
    analytic_->adopt_flow(f.flow, c.export_state());
    c.quiesce_timers();
  }
  active_ = analytic_.get();
  full_active_ = false;
  analytic_->set_active(true);
  if (checker_) {
    checker_->check_now();  // final audit over the still-live counters
    checker_->stop();
  }
  full_host_->park();
  ++demotions_;
}

bool HostSlot::demote_ready() const {
  if (!full_active_ || cfg_.pinned_full) return false;
  if (!full_host_->pipeline_empty()) return false;
  if (uplink_ && uplink_->queue_len() > 0) return false;
  for (const FlowSlot& f : flows_) {
    if (!stack_->connection(f.flow).transfer_idle()) return false;
  }
  return true;
}

sim::Bytes HostSlot::delivered_bytes(net::FlowId flow) const {
  // The cumulative count rides the TransferState across swaps, so the
  // active tier's counter is the authoritative total; the other tier's is
  // a snapshot from the last handoff, not an addend.
  if (full_active_ && stack_ && stack_->has_connection(flow)) {
    return stack_->connection(flow).delivered_bytes();
  }
  return analytic_->delivered_bytes(flow);
}

std::uint64_t HostSlot::arrived_pkts() const {
  std::uint64_t n = analytic_->arrived_pkts();
  if (full_host_) n += full_host_->nic().stats().arrived_pkts;
  return n;
}

std::uint64_t HostSlot::dropped_pkts() const {
  return full_host_ ? full_host_->nic().stats().dropped_pkts : 0;
}

transport::TcpConnection::Stats HostSlot::sender_stats() const {
  transport::TcpConnection::Stats t;
  for (const FlowSlot& f : flows_) {
    if (!f.sender) continue;
    t.add(analytic_->flow_stats_of(f.flow));
    if (stack_ && stack_->has_connection(f.flow)) t.add(stack_->connection(f.flow).stats());
  }
  return t;
}

// ---------------------------------------------------------- FidelityManager

FidelityManager::FidelityManager(sim::Simulator& sim, FidelityConfig cfg, fabric::Fabric* fab,
                                 std::vector<HostSlot*> slots)
    : sim_(sim),
      cfg_(cfg),
      fabric_(fab),
      slots_(std::move(slots)),
      timer_(sim, cfg.period, [this] { tick(); }) {
  const double ticks = cfg_.period > sim::Time::zero()
                           ? cfg_.demote_quiescence.sec() / cfg_.period.sec()
                           : 1.0;
  quiescence_ticks_ = std::max(1, static_cast<int>(ticks));
}

void FidelityManager::record(const HostSlot& s, obs::DecisionReason r, double queue_bytes) {
  if (!log_) return;
  obs::Decision d;
  d.at = sim_.now();
  d.host = s.name();
  d.is = queue_bytes;  // the trigger signal: delivery-port queue depth
  d.level_requested = s.full_active() ? 1 : 0;
  d.level_effective = d.level_requested;
  d.reason = r;
  log_->record(d);
}

void FidelityManager::tick() {
  const sim::Time now = sim_.now();
  for (HostSlot* s : slots_) {
    if (s->pinned()) continue;
    const auto ps = fabric_->switch_at(s->switch_idx()).port_stats(s->port_idx());
    if (!s->full_active()) {
      bool paused = false;
      if (net::Link* up = s->uplink()) {
        for (int prio = 0; prio < net::kPfcPriorities && !paused; ++prio) {
          paused = up->pfc_paused(prio);
        }
      }
      // PFC pause on the uplink promotes unconditionally: a paused analytic
      // host has no backpressure model, so a pause_storm fault must escalate
      // it to the full tier instead of silently no-opping.
      if (ps.queue_bytes >= cfg_.promote_threshold || paused) {
        s->promote(now);
        ++promotions_;
        record(*s, obs::DecisionReason::kPromote, static_cast<double>(ps.queue_bytes));
      }
    } else {
      if (ps.queue_bytes == 0 && s->demote_ready()) {
        if (++s->quiet_ticks >= quiescence_ticks_) {
          s->quiet_ticks = 0;
          s->demote(now);
          ++demotions_;
          record(*s, obs::DecisionReason::kDemote, static_cast<double>(ps.queue_bytes));
        }
      } else {
        s->quiet_ticks = 0;
      }
    }
  }
}

}  // namespace hostcc::exp
