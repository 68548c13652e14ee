#include "host/analytic_host.h"

#include <algorithm>
#include <cassert>

namespace hostcc::host {

AnalyticHost::AnalyticHost(sim::Simulator& sim, std::string name, net::HostId id,
                           transport::TransportConfig cfg)
    : sim_(sim), name_(std::move(name)), id_(id), cfg_(cfg) {}

AnalyticHost::~AnalyticHost() {
  for (auto& [flow, f] : senders_) {
    f.rto_deadline = sim::Time::max();
    f.rto_timer.cancel();
  }
}

// ------------------------------------------------------------- fabric seam

void AnalyticHost::deliver(const net::PacketRef& p) {
  if (!active_) return;  // promoted away; the slot routes to the full tier
  if (p->payload > 0) {
    auto it = receivers_.find(p->flow);
    if (it == receivers_.end()) return;
    ++arrived_pkts_;
    receive_data(p->flow, it->second, *p);
  } else if (p->has_ack) {
    auto it = senders_.find(p->flow);
    if (it == senders_.end()) return;
    process_ack(p->flow, it->second, *p);
  }
}

void AnalyticHost::uplink_dequeued(const net::Packet& p) {
  auto it = wire_queued_.find(p.flow);
  if (it != wire_queued_.end()) {
    it->second -= p.size;
    if (it->second < 0) it->second = 0;
  }
  if (!active_) return;
  auto sit = senders_.find(p.flow);
  if (sit != senders_.end()) try_send(p.flow, sit->second);  // TSQ refill
}

// --------------------------------------------------------- flow endpoints

void AnalyticHost::open_sender(net::FlowId flow, net::HostId peer) {
  auto [it, inserted] = senders_.try_emplace(flow);
  SenderFlow& f = it->second;
  if (!inserted) return;
  f.peer = peer;
  f.cc = transport::make_cc(cfg_.cc, cfg_.cc_config());
  f.peer_rwnd = cfg_.max_cwnd;
  f.rto = cfg_.min_rto;
}

void AnalyticHost::open_receiver(net::FlowId flow, net::HostId peer) {
  auto [it, inserted] = receivers_.try_emplace(flow);
  if (inserted) it->second.peer = peer;
}

void AnalyticHost::write(net::FlowId flow, sim::Bytes n) {
  SenderFlow& f = senders_.at(flow);
  if (n > 0 && !f.infinite && !f.episode_open && f.write_limit == f.snd_una) {
    f.episode_open = true;
    f.episode_base = f.snd_una;
    if (fs_) fs_->episode_started(flow, id_, sim_.now());
  }
  f.write_limit += n;
  if (active_) try_send(flow, f);
}

void AnalyticHost::set_infinite_source(net::FlowId flow, bool on) {
  SenderFlow& f = senders_.at(flow);
  if (on && f.episode_open) {
    f.episode_open = false;
    if (fs_) fs_->episode_abandoned(flow, id_);
  }
  f.infinite = on;
  if (on && active_) try_send(flow, f);
}

void AnalyticHost::set_on_send_complete(net::FlowId flow, std::function<void()> fn) {
  senders_.at(flow).on_send_complete = std::move(fn);
}

void AnalyticHost::set_on_delivered(net::FlowId flow, std::function<void(sim::Bytes)> fn) {
  receivers_.at(flow).on_delivered = std::move(fn);
}

// ------------------------------------------------------------------ sender

void AnalyticHost::try_send(net::FlowId flow, SenderFlow& f) {
  const sim::Bytes mss = cfg_.mss();
  while (wire_queued_[flow] < wire_budget()) {  // the token bucket (TSQ bound)
    if (f.infinite && f.write_limit < f.snd_nxt + mss) f.write_limit = f.snd_nxt + mss;
    const net::SeqNum app_limit = f.write_limit;
    const sim::Bytes wnd =
        std::min<sim::Bytes>(f.cc->cwnd(), std::max<sim::Bytes>(f.peer_rwnd, mss));
    const net::SeqNum win_limit = f.snd_una + wnd;
    const sim::Bytes len = std::min<sim::Bytes>(mss, std::min(app_limit, win_limit) - f.snd_nxt);
    if (len <= 0) break;
    if (len < mss && win_limit < app_limit) break;  // Nagle: no window-limited runts
    const net::SeqNum seq = f.snd_nxt;
    f.snd_nxt += len;
    send_data(flow, f, seq, len);
  }
  arm_rto(flow, f);
}

void AnalyticHost::send_data(net::FlowId flow, SenderFlow& f, net::SeqNum seq, sim::Bytes len) {
  const bool is_retx = seq < f.retx_until;
  net::PacketRef pr = pool_.make();
  net::Packet& p = *pr;
  p.id = next_packet_id();
  p.flow = flow;
  p.src = id_;
  p.dst = f.peer;
  p.payload = len;
  p.size = len + net::kHeaderBytes;
  p.seq = seq;
  p.ecn = f.cc->ecn_capable() ? net::Ecn::kEct0 : net::Ecn::kNotEct;
  p.sent_at = sim_.now();
  p.retransmit = is_retx;

  ++f.stats.data_packets_sent;
  if (is_retx) {
    f.stats.retransmitted_bytes += len;
    if (fs_) fs_->retransmitted(flow, id_, len);
  }
  wire_queued_[flow] += p.size;
  egress_(std::move(pr));
}

void AnalyticHost::enter_recovery(net::FlowId flow, SenderFlow& f) {
  f.in_recovery = true;
  f.recovery_point = f.snd_nxt;
  ++f.stats.fast_retransmits;
  f.cc->on_loss();
  // Go-back-N repair: rewind to the cumulative ACK and resend the window.
  // (No per-segment scoreboard in this tier, so no selective repair.)
  f.retx_until = std::max(f.retx_until, f.snd_nxt);
  f.snd_nxt = f.snd_una;
  try_send(flow, f);
}

void AnalyticHost::process_ack(net::FlowId flow, SenderFlow& f, const net::Packet& p) {
  f.peer_rwnd = p.rwnd;
  if (p.ece) ++f.stats.ece_received;

  if (p.ack > f.snd_una) {
    const sim::Bytes newly = p.ack - f.snd_una;
    f.snd_una = p.ack;
    if (f.snd_nxt < f.snd_una) f.snd_nxt = f.snd_una;
    f.dup_acks = 0;
    f.rto_backoff = 1;

    // RTT sample (Karn's rule: never from retransmitted data).
    sim::Time rtt = sim::Time::zero();
    if (p.ts_echo_valid && !p.ts_echo_retx) {
      rtt = sim_.now() - p.ts_echo;
      if (f.srtt == sim::Time::zero()) {
        f.srtt = rtt;
        f.rttvar = rtt / 2;
      } else {
        const sim::Time err = rtt > f.srtt ? rtt - f.srtt : f.srtt - rtt;
        f.rttvar = f.rttvar * 0.75 + err * 0.25;
        f.srtt = f.srtt * 0.875 + rtt * 0.125;
      }
      f.rto = std::max(cfg_.min_rto, f.srtt + f.rttvar * 4.0);
    }

    f.cc->on_ack(newly, p.ece, rtt, f.in_recovery);
    if (f.in_recovery && f.snd_una >= f.recovery_point) f.in_recovery = false;
    try_send(flow, f);
    maybe_complete_episode(flow, f);
    return;
  }

  if (p.ack == f.snd_una && f.snd_nxt > f.snd_una) {
    ++f.dup_acks;
    // SACK-based loss signal without a scoreboard: bytes the receiver holds
    // above the cumulative ACK, straight off the ACK's SACK blocks.
    sim::Bytes sacked = 0;
    for (int i = 0; i < p.sack_count; ++i) {
      const auto [b, e] = p.sack[static_cast<std::size_t>(i)];
      if (e > f.snd_una) sacked += e - std::max(b, f.snd_una);
    }
    const bool sack_loss = sacked >= 3 * cfg_.mss();
    if (!f.in_recovery && (f.dup_acks >= 3 || sack_loss)) {
      enter_recovery(flow, f);
      return;
    }
  }
  try_send(flow, f);  // window update may unblock sending
}

void AnalyticHost::maybe_complete_episode(net::FlowId flow, SenderFlow& f) {
  if (f.episode_open && !f.infinite && f.snd_una == f.write_limit) {
    f.episode_open = false;
    if (fs_) fs_->episode_completed(flow, id_, sim_.now(), f.snd_una - f.episode_base);
    // May synchronously write() the next message, opening a new episode.
    if (f.on_send_complete) f.on_send_complete();
  }
}

// Lazy deadline chase, same shape as TcpConnection's RTO timer: the ACK
// path only moves the deadline field; one scheduled event per deadline.
void AnalyticHost::arm_rto(net::FlowId flow, SenderFlow& f) {
  if (f.snd_nxt == f.snd_una) {
    f.rto_deadline = sim::Time::max();
    return;
  }
  const sim::Time deadline = sim_.now() + f.rto * static_cast<double>(f.rto_backoff);
  f.rto_deadline = deadline;
  if (f.rto_timer.pending() && f.rto_event_at <= deadline) return;
  f.rto_timer.cancel();
  f.rto_event_at = deadline;
  f.rto_timer = sim_.at(deadline, [this, flow] { rto_event(flow); });
}

void AnalyticHost::rto_event(net::FlowId flow) {
  auto it = senders_.find(flow);
  if (it == senders_.end()) return;
  SenderFlow& f = it->second;
  if (f.rto_deadline == sim::Time::max()) return;  // disarmed
  if (sim_.now() < f.rto_deadline) {               // deadline moved: chase it
    f.rto_event_at = f.rto_deadline;
    f.rto_timer = sim_.at(f.rto_deadline, [this, flow] { rto_event(flow); });
    return;
  }
  f.rto_deadline = sim::Time::max();
  if (!active_ || f.snd_nxt == f.snd_una) return;
  ++f.stats.timeouts;
  f.cc->on_timeout();
  f.in_recovery = false;
  f.dup_acks = 0;
  f.rto_backoff = std::min(f.rto_backoff * 2, 64);
  f.retx_until = std::max(f.retx_until, f.snd_nxt);
  f.snd_nxt = f.snd_una;  // go-back-N
  try_send(flow, f);
}

// ---------------------------------------------------------------- receiver

void AnalyticHost::receive_data(net::FlowId flow, ReceiverFlow& f, const net::Packet& p) {
  if (p.ecn == net::Ecn::kCe) ++f.stats.ce_received;

  const net::SeqNum begin = p.seq;
  const net::SeqNum end = p.end_seq();
  if (end > f.rcv_nxt) {
    if (begin <= f.rcv_nxt) {
      net::SeqNum advance_to = end;
      auto it = f.ooo.begin();
      while (it != f.ooo.end() && it->first <= advance_to) {
        advance_to = std::max(advance_to, it->second);
        f.ooo_bytes -= it->second - it->first;
        it = f.ooo.erase(it);
      }
      const sim::Bytes newly = advance_to - f.rcv_nxt;
      f.rcv_nxt = advance_to;
      f.delivered += newly;
      if (fs_ && newly > 0) fs_->bytes_delivered(flow, f.peer, sim_.now(), newly);
      if (f.on_delivered) f.on_delivered(newly);
    } else {
      net::SeqNum b = begin, e = end;
      auto it = f.ooo.lower_bound(b);
      if (it != f.ooo.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= b) {
          b = prev->first;
          e = std::max(e, prev->second);
          f.ooo_bytes -= prev->second - prev->first;
          it = f.ooo.erase(prev);
        }
      }
      while (it != f.ooo.end() && it->first <= e) {
        e = std::max(e, it->second);
        f.ooo_bytes -= it->second - it->first;
        it = f.ooo.erase(it);
      }
      f.ooo.emplace(b, e);
      f.ooo_bytes += e - b;
    }
  }
  send_ack(flow, f, p);
}

void AnalyticHost::send_ack(net::FlowId flow, ReceiverFlow& f, const net::Packet& trigger) {
  net::PacketRef ar = pool_.make();
  net::Packet& a = *ar;
  a.id = next_packet_id();
  a.flow = flow;
  a.src = id_;
  a.dst = f.peer;
  a.payload = 0;
  a.size = net::kHeaderBytes;
  a.has_ack = true;
  a.ack = f.rcv_nxt;
  a.ece = trigger.ecn == net::Ecn::kCe;  // per-packet exact ECN feedback
  // The analytic tier has no host pipeline, hence no receive backlog to
  // advertise against — the window is the socket-memory cap.
  a.rwnd = cfg_.max_cwnd;
  for (const auto& [b, e] : f.ooo) {
    if (a.sack_count >= static_cast<int>(a.sack.size())) break;
    a.sack[a.sack_count++] = {b, e};
  }
  a.ts_echo = trigger.sent_at;
  a.ts_echo_valid = true;
  a.ts_echo_retx = trigger.retransmit;
  a.sent_at = sim_.now();

  ++f.stats.acks_sent;
  wire_queued_[flow] += a.size;
  egress_(std::move(ar));
}

// ----------------------------------------------------------- tier transfer

void AnalyticHost::set_active(bool on) {
  if (active_ == on) return;
  active_ = on;
  if (on) {
    for (auto& [flow, f] : senders_) try_send(flow, f);
  } else {
    // Disarm timers; the in-flight chase events no-op on a dead deadline.
    for (auto& [flow, f] : senders_) f.rto_deadline = sim::Time::max();
  }
}

transport::TcpConnection::TransferState AnalyticHost::export_flow(net::FlowId flow) const {
  transport::TcpConnection::TransferState st;
  auto sit = senders_.find(flow);
  if (sit != senders_.end()) {
    const SenderFlow& f = sit->second;
    st.snd_una = f.snd_una;
    st.snd_nxt = f.snd_nxt;
    st.write_limit = f.write_limit;
    st.infinite_source = f.infinite;
    st.episode_open = f.episode_open;
    st.episode_base = f.episode_base;
    st.cwnd = static_cast<double>(f.cc->cwnd());
    st.srtt = f.srtt;
    st.rttvar = f.rttvar;
  }
  auto rit = receivers_.find(flow);
  if (rit != receivers_.end()) {
    const ReceiverFlow& f = rit->second;
    st.rcv_nxt = f.rcv_nxt;
    st.ooo.assign(f.ooo.begin(), f.ooo.end());
    st.delivered_bytes = f.delivered;
  }
  return st;
}

void AnalyticHost::adopt_flow(net::FlowId flow,
                              const transport::TcpConnection::TransferState& st) {
  auto sit = senders_.find(flow);
  if (sit != senders_.end()) {
    SenderFlow& f = sit->second;
    // Same go-back-N handoff as TcpConnection::restore: rewind to the
    // cumulative ACK; bytes the full tier had in flight are resent (and
    // marked retransmits so Karn's rule skips their RTT samples).
    f.snd_una = st.snd_una;
    f.snd_nxt = st.snd_una;
    f.retx_until = std::max(f.retx_until, st.snd_nxt);
    f.write_limit = st.write_limit;
    f.infinite = st.infinite_source;
    f.episode_open = st.episode_open;
    f.episode_base = st.episode_base;
    if (st.cwnd > 0.0) f.cc->restore_cwnd(st.cwnd);
    f.srtt = st.srtt;
    f.rttvar = st.rttvar;
    f.rto = f.srtt > sim::Time::zero() ? std::max(cfg_.min_rto, f.srtt + f.rttvar * 4.0)
                                       : cfg_.min_rto;
    f.rto_backoff = 1;
    f.dup_acks = 0;
    f.in_recovery = false;
    f.recovery_point = 0;
    if (active_) try_send(flow, f);
  }
  auto rit = receivers_.find(flow);
  if (rit != receivers_.end()) {
    ReceiverFlow& f = rit->second;
    f.rcv_nxt = st.rcv_nxt;
    f.ooo.clear();
    f.ooo_bytes = 0;
    for (const auto& [b, e] : st.ooo) {
      f.ooo.emplace(b, e);
      f.ooo_bytes += e - b;
    }
    f.delivered = st.delivered_bytes;
  }
}

bool AnalyticHost::quiescent() const {
  for (const auto& [flow, f] : senders_) {
    if (f.infinite) return false;
    if (f.snd_una != f.snd_nxt || f.snd_una != f.write_limit) return false;
  }
  for (const auto& [flow, f] : receivers_) {
    if (!f.ooo.empty()) return false;
  }
  for (const auto& [flow, q] : wire_queued_) {
    if (q != 0) return false;
  }
  return true;
}

// ------------------------------------------------------------- accounting

const transport::TcpConnection::Stats& AnalyticHost::flow_stats_of(net::FlowId flow) const {
  auto sit = senders_.find(flow);
  if (sit != senders_.end()) return sit->second.stats;
  return receivers_.at(flow).stats;
}

transport::TcpConnection::Stats AnalyticHost::totals() const {
  transport::TcpConnection::Stats t;
  for (const auto& [flow, f] : senders_) t.add(f.stats);
  for (const auto& [flow, f] : receivers_) t.add(f.stats);
  return t;
}

sim::Bytes AnalyticHost::delivered_bytes(net::FlowId flow) const {
  auto it = receivers_.find(flow);
  return it != receivers_.end() ? it->second.delivered : 0;
}

sim::Bytes AnalyticHost::cwnd(net::FlowId flow) const {
  auto it = senders_.find(flow);
  return it != senders_.end() ? it->second.cc->cwnd() : 0;
}

}  // namespace hostcc::host
