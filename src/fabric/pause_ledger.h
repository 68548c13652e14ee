// PauseLedger: the lossless fabric's conservation record. Every *applied*
// PFC transition — an XOFF taking effect at the paused egress (switch port
// or host uplink), or the matching XON releasing it — is recorded against
// a stable key ("<edge-or-port>/p<prio>"). Recording at the apply point
// (not the emit point) is deliberate: a muted XON (pfc_mute fault) never
// applies, so the ledger keeps the XOFF outstanding — exactly the dangling
// state the invariant checker must be able to see.
//
// Sharded runs keep one ledger per cell (applies always happen on the
// paused component's owning thread) and fold them with merge_from() at the
// quiesced measurement boundary, mirroring obs::FlowStats. Each ledger
// logs its timestamped +1/-1 transitions so the merge can replay them in
// (time, cell) order and recover the true fabric-wide concurrent peak and
// last all-clear instant, not a sum of per-cell peaks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"

namespace hostcc::fabric {

class PauseLedger {
 public:
  struct Entry {
    std::uint64_t xoffs = 0;
    std::uint64_t xons = 0;
    bool paused = false;
    sim::Time since;  // time of the last transition
  };

  // Records an applied transition. Repeated same-state applies are
  // ignored (a pause refresh is not a new outstanding XOFF).
  void record(const std::string& key, bool on, sim::Time now) {
    Entry& e = entries_[key];
    if (e.paused == on) return;
    e.paused = on;
    e.since = now;
    if (on) {
      ++e.xoffs;
      ++xoff_total_;
    } else {
      ++e.xons;
      ++xon_total_;
    }
    transitions_.push_back({now, on ? 1 : -1});
    apply(transitions_.back());
  }
  void record_muted_xon() { ++muted_xons_; }

  std::uint64_t xoff_total() const { return xoff_total_; }
  std::uint64_t xon_total() const { return xon_total_; }
  std::uint64_t muted_xons() const { return muted_xons_; }
  int outstanding() const { return outstanding_; }
  int max_outstanding() const { return max_outstanding_; }
  // The last instant every applied XOFF had been matched by its XON (zero
  // if the fabric never paused, or never fully released). fig22's
  // time-to-drain metric: last_all_clear - storm window end.
  sim::Time last_all_clear() const { return last_all_clear_; }
  const std::map<std::string, Entry>& entries() const { return entries_; }

  // Folds a per-cell ledger into this aggregate. Counts sum (per-cell key
  // sets are disjoint: each edge's pauses apply on one owning cell). The
  // transition logs merge stably by time, this ledger's entries first on
  // ties, and are replayed to recompute outstanding, max_outstanding and
  // last_all_clear. Folding the cells in index order therefore replays in
  // (time, cell) order — a pure function of the partition, the same for
  // every worker count.
  void merge_from(const PauseLedger& other) {
    for (const auto& [key, e] : other.entries_) {
      Entry& mine = entries_[key];
      mine.xoffs += e.xoffs;
      mine.xons += e.xons;
      mine.paused = e.paused;
      if (e.since > mine.since) mine.since = e.since;
    }
    xoff_total_ += other.xoff_total_;
    xon_total_ += other.xon_total_;
    muted_xons_ += other.muted_xons_;
    std::vector<Transition> merged;
    merged.reserve(transitions_.size() + other.transitions_.size());
    std::merge(transitions_.begin(), transitions_.end(), other.transitions_.begin(),
               other.transitions_.end(), std::back_inserter(merged),
               [](const Transition& a, const Transition& b) { return a.at < b.at; });
    transitions_ = std::move(merged);
    outstanding_ = 0;
    max_outstanding_ = 0;
    last_all_clear_ = sim::Time();
    for (const Transition& t : transitions_) apply(t);
  }

 private:
  struct Transition {
    sim::Time at;
    int delta = 0;  // +1 applied XOFF, -1 applied XON
  };

  void apply(const Transition& t) {
    outstanding_ += t.delta;
    if (outstanding_ > max_outstanding_) max_outstanding_ = outstanding_;
    if (t.delta < 0 && outstanding_ == 0) last_all_clear_ = t.at;
  }

  std::vector<Transition> transitions_;  // in record order (time-sorted)
  std::map<std::string, Entry> entries_;
  std::uint64_t xoff_total_ = 0;
  std::uint64_t xon_total_ = 0;
  std::uint64_t muted_xons_ = 0;
  int outstanding_ = 0;
  int max_outstanding_ = 0;
  sim::Time last_all_clear_;
};

}  // namespace hostcc::fabric
