// NetApp-T: iperf-style long flows (§2.2). The sender side keeps each
// connection's stream non-empty (infinite source); the receiver side
// measures delivered goodput per flow and in aggregate.
//
// With `episode_bytes > 0` each flow instead sends back-to-back discrete
// messages of that size (closed loop: the next message is written the
// instant the previous one is fully ACKed), giving FlowStats real flow
// completion times while keeping the link saturated.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "transport/stack.h"

namespace hostcc::apps {

class ThroughputApp {
 public:
  // Creates `flows` connections from `sender` to `receiver`, flow ids
  // starting at `first_flow`. Starts are staggered by `stagger` per flow
  // (iperf-like: connections ramp one after another, not in lockstep).
  ThroughputApp(transport::Stack& sender, transport::Stack& receiver, int flows,
                net::FlowId first_flow, sim::Time stagger = sim::Time::milliseconds(1),
                sim::Bytes episode_bytes = 0) {
    for (int i = 0; i < flows; ++i) {
      const net::FlowId fid = first_flow + static_cast<net::FlowId>(i);
      auto& tx = sender.connect(fid, receiver.id());
      auto& rx = receiver.connect(fid, sender.id());
      rx.set_on_delivered([this](sim::Bytes n) { meter_.add(n); });
      if (episode_bytes > 0) {
        tx.set_on_send_complete([&tx, episode_bytes] { tx.write(episode_bytes); });
        sender.simulator().after(stagger * static_cast<double>(i),
                                 [&tx, episode_bytes] { tx.write(episode_bytes); });
      } else {
        sender.simulator().after(stagger * static_cast<double>(i),
                                 [&tx] { tx.set_infinite_source(true); });
      }
      tx_.push_back(&tx);
      rx_.push_back(&rx);
    }
  }

  // Aggregate goodput since the previous checkpoint.
  sim::Bandwidth goodput_since_mark(sim::Time now) { return meter_.checkpoint(now); }
  sim::Bytes delivered_bytes() const { return meter_.total_bytes(); }

  int flow_count() const { return static_cast<int>(tx_.size()); }
  transport::TcpConnection& sender_conn(int i) { return *tx_.at(i); }
  transport::TcpConnection& receiver_conn(int i) { return *rx_.at(i); }

  // Aggregated transport stats across senders.
  transport::TcpConnection::Stats sender_stats() const {
    transport::TcpConnection::Stats s;
    for (const auto* c : tx_) s.add(c->stats());
    return s;
  }

 private:
  std::vector<transport::TcpConnection*> tx_;
  std::vector<transport::TcpConnection*> rx_;
  sim::IntervalMeter meter_;
};

}  // namespace hostcc::apps
