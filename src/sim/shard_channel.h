// ShardChannels<P>: single-producer/single-consumer message channels that
// carry cross-cell payloads between the per-cell event loops of a
// sim::ShardedSimulator, preserving the byte-identical determinism
// contract.
//
// Protocol (conservative lookahead, window L):
//   - The producer cell, executing epoch E (sim time [E*L, (E+1)*L)),
//     stamps each message with its arrival time `due = now + link_delay`
//     and a per-channel monotone sequence number, and appends it to the
//     channel's parity-E buffer. Because link_delay >= L, due >= (E+1)*L.
//   - The consumer cell, at its FIRST entry into epoch E+1 (before any of
//     its events in that epoch run), drains every inbound channel's
//     parity-E buffer into a min-heap keyed (due, channel id, seq), then
//     moves every message with due < window_end into a FIFO delivery
//     window, scheduling one simulator event per message at its due time.
//     Messages due later stay in the heap for a future epoch.
//   - Delivery events fire in exactly the order they were scheduled
//     (the simulator breaks time ties by schedule order), which is the
//     heap's (due, channel, seq) order — a total order independent of
//     which thread ran which cell, or how many threads there were.
//
// Thread safety comes entirely from the epoch barrier: the producer only
// writes buffer parity E during epoch E; the consumer only reads parity E
// during epoch E+1; the barrier between epochs is the happens-before edge.
// No atomics, no locks, no data races per message — the whole cross-thread
// surface is two std::vectors per channel handed back and forth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/ring_queue.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace hostcc::sim {

template <typename P>
class ShardChannels {
 public:
  using Deliver = std::function<void(const P&)>;

  explicit ShardChannels(int cells) : cells_(cells) {
    inbound_.resize(cells);
    outbound_.resize(cells);
    ready_.resize(cells);
    window_.resize(cells);
    scheduled_.assign(cells, 0);
  }

  ShardChannels(const ShardChannels&) = delete;
  ShardChannels& operator=(const ShardChannels&) = delete;

  // Registers a directed channel. `deliver` runs on the consumer cell's
  // thread, in global (due, channel id, seq) order. Channel ids are dense
  // and assigned in registration order — register in a deterministic order
  // (e.g. topology arc order) to pin the tie-break.
  int add_channel(int from_cell, int to_cell, Deliver deliver) {
    const int id = static_cast<int>(channels_.size());
    channels_.push_back(std::make_unique<Channel>());
    Channel& ch = *channels_.back();
    ch.id = id;
    ch.deliver = std::move(deliver);
    inbound_[to_cell].push_back(&ch);
    outbound_[from_cell].push_back(&ch);
    return id;
  }

  // Producer side; must run on the producing cell's thread.
  void push(int chan_id, Time due, const P& payload) {
    Channel& ch = *channels_[chan_id];
    ch.bufs[ch.prod_parity].push_back({due, ch.next_seq++, payload});
  }

  // Consumer side; must run on `cell`'s thread at its first entry into
  // `epoch`, with `sim.now()` at the epoch start and `window_end` the
  // epoch's end. Schedules the epoch's deliveries into `sim`.
  void begin_epoch(int cell, std::int64_t epoch, Time window_end, Simulator& sim) {
    // Flip this cell's outbound buffers to the new epoch's parity.
    const int parity = static_cast<int>(epoch & 1);
    for (Channel* ch : outbound_[cell]) ch->prod_parity = parity;

    // Drain what producers published last epoch ((epoch-1)'s parity —
    // empty at epoch 0) into the arrival heap.
    std::vector<Msg>& heap = ready_[cell];
    const int drain = static_cast<int>((epoch + 1) & 1);
    for (Channel* ch : inbound_[cell]) {
      for (Msg& m : ch->bufs[drain]) {
        m.chan = ch->id;
        heap.push_back(std::move(m));
        std::push_heap(heap.begin(), heap.end(), Later{});
      }
      ch->bufs[drain].clear();
    }

    // Promote everything due inside this window to the delivery FIFO, one
    // event each. The tiny [this, cell] capture stays inside the event
    // queue's inline-callback budget; the payload rides the ring, which
    // stops allocating once it has grown to the cell's peak window.
    RingQueue<Msg>& window = window_[cell];
    while (!heap.empty() && heap.front().due < window_end) {
      std::pop_heap(heap.begin(), heap.end(), Later{});
      window.push_back(std::move(heap.back()));
      heap.pop_back();
      sim.at(window.back().due, [this, cell] { deliver_front(cell); });
      ++scheduled_[cell];
    }
  }

  int cell_count() const { return cells_; }
  int channel_count() const { return static_cast<int>(channels_.size()); }
  // Messages handed to deliver callbacks so far, per cell / total.
  std::uint64_t delivered(int cell) const { return scheduled_[cell] - pending(cell); }
  std::uint64_t total_delivered() const {
    std::uint64_t n = 0;
    for (int c = 0; c < cells_; ++c) n += delivered(c);
    return n;
  }

 private:
  struct Msg {
    Time due;
    std::uint64_t seq = 0;
    P payload;
    int chan = -1;
  };
  // Min-heap comparator: "a delivers later than b".
  struct Later {
    bool operator()(const Msg& a, const Msg& b) const {
      if (a.due != b.due) return a.due > b.due;
      if (a.chan != b.chan) return a.chan > b.chan;
      return a.seq > b.seq;
    }
  };
  struct Channel {
    int id = -1;
    Deliver deliver;
    std::uint64_t next_seq = 0;
    int prod_parity = 0;
    std::vector<Msg> bufs[2];
  };

  std::uint64_t pending(int cell) const {
    return static_cast<std::uint64_t>(window_[cell].size());
  }

  void deliver_front(int cell) {
    Msg m = std::move(window_[cell].front());
    window_[cell].pop_front();
    channels_[m.chan]->deliver(m.payload);
  }

  int cells_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::vector<Channel*>> inbound_;   // per consumer cell
  std::vector<std::vector<Channel*>> outbound_;  // per producer cell
  std::vector<std::vector<Msg>> ready_;          // per-cell arrival min-heap
  std::vector<RingQueue<Msg>> window_;           // per-cell delivery FIFO
  std::vector<std::uint64_t> scheduled_;         // per-cell delivery events
};

}  // namespace hostcc::sim
