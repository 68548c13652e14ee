// Runtime invariant checker for the multi-switch fabric: audits every
// FabricSwitch's shared-buffer ledger on a periodic cadence (and on
// demand). The DT admission path must obey, regardless of injected
// link/port faults:
//
//   ledger (kBufferLedger)
//     Every admitted byte is either still queued or was drained to
//     serialization:  admitted == drained + occupancy.
//
//   occupancy (kOccupancyBounds)
//     The switch-wide occupancy equals the sum of the per-port queues and
//     never leaves [0, capacity] — DT admission must not oversubscribe
//     the shared pool even with alpha > 1, and a down port's queue still
//     counts against it. In lossless mode the bound is buffer + headroom.
//
// Lossless mode adds three classes:
//
//   losslessness (kLosslessness)
//     While PFC is enabled a switch drop is never policy — any increase in
//     a switch's drop count means the headroom was undersized or pause
//     propagation failed.
//
//   pause ledger (kPauseLedger)
//     Dangling XOFF: for every pause relation (emitter ingress / host
//     watermark vs applier port / uplink), once more than the edge's
//     propagation delay has elapsed since the emitter's last transition,
//     both ends must agree. A muted XON (pfc_mute) leaves the applier
//     paused with the emitter cleared — exactly this violation.
//
//   pause deadlock (kPauseDeadlock)
//     Cycle detection over the live pause-dependency (wait-for) graph:
//     switch U depends on V when any of U's egress ports toward V is
//     paused. A cycle at one sampling instant is only a *candidate* —
//     transient mutual pauses are normal in a live lossless fabric (XON
//     turnaround is sub-microsecond, the check period is 25 us). A
//     violation requires confirmation: the same wait-for edges still
//     paused at the next deep check with ZERO bytes forwarded by those
//     ports in between (persistence without progress = a real wedge).
//     The longest dependency chain is the congestion-tree depth (peak
//     exported for fig22).
//
// The dangling/deadlock sweeps read the whole fabric, so multi-cell runs
// disable them on the periodic cadence (deep_periodic=false) and invoke
// check_deep_now() from the engine's boundary tick
// (sim::ShardedSimulator::set_boundary_tick), at quiesced epoch ends.
//
// Read-only by default: enabling the checker perturbs no random stream and
// no behaviour (same contract as the host InvariantChecker). The one
// exception is the opt-in storm breaker (cfg.storm_breaker): when a
// deadlock cycle is detected it force-XONs every port on the cycle —
// mirroring the PR 3 watchdog pattern — so the run completes instead of
// wedging; each intervention is counted in storm_breaks().
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fabric/fabric.h"
#include "obs/log.h"
#include "sim/simulator.h"

namespace hostcc::faults {

enum class FabricInvariantClass : std::uint8_t {
  kBufferLedger,
  kOccupancyBounds,
  kLosslessness,
  kPauseLedger,
  kPauseDeadlock,
};
inline constexpr int kFabricInvariantClasses = 5;

inline const char* fabric_invariant_class_name(FabricInvariantClass c) {
  switch (c) {
    case FabricInvariantClass::kBufferLedger: return "buffer_ledger";
    case FabricInvariantClass::kOccupancyBounds: return "occupancy_bounds";
    case FabricInvariantClass::kLosslessness: return "losslessness";
    case FabricInvariantClass::kPauseLedger: return "pause_ledger";
    case FabricInvariantClass::kPauseDeadlock: return "pause_deadlock";
  }
  return "?";
}

struct FabricViolation {
  sim::Time at;
  FabricInvariantClass cls = FabricInvariantClass::kBufferLedger;
  std::string detail;
};

struct FabricInvariantConfig {
  sim::Time period = sim::Time::microseconds(25);
  std::size_t max_recorded = 64;  // counting continues past the cap
  // Run the whole-fabric deep sweeps (dangling XOFF + deadlock cycle) on
  // the periodic cadence. Multi-cell runs set this false and call
  // check_deep_now() at quiesced epoch boundaries instead.
  bool deep_periodic = true;
  // Opt-in graceful degradation: force-XON detected deadlock cycles so the
  // run completes (counted in storm_breaks()).
  bool storm_breaker = false;
};

class FabricInvariantChecker {
 public:
  FabricInvariantChecker(sim::Simulator& sim, fabric::Fabric& fab, FabricInvariantConfig cfg = {})
      : sim_(sim), fabric_(fab), cfg_(cfg), timer_(sim, cfg.period, [this] { check_now(); }) {}

  // Switch-subset form for sharded runs: audits only the listed switch
  // indices, so each cell runs a checker over its own switches on its own
  // simulator (ledger reads stay on the owning thread). An empty subset
  // means "all switches" (the whole-fabric form above).
  FabricInvariantChecker(sim::Simulator& sim, fabric::Fabric& fab, std::vector<int> subset,
                         FabricInvariantConfig cfg = {})
      : sim_(sim), fabric_(fab), cfg_(cfg), subset_(std::move(subset)),
        timer_(sim, cfg.period, [this] { check_now(); }) {}

  void start() { timer_.start(); }
  void stop() { timer_.stop(); }

  void check_now() {
    ++checks_;
    const int n = subset_.empty() ? fabric_.switch_count() : static_cast<int>(subset_.size());
    for (int i = 0; i < n; ++i) {
      const int s = subset_.empty() ? i : subset_[i];
      const fabric::FabricSwitch& sw = fabric_.switch_at(s);
      const sim::Bytes occ = sw.occupancy();
      const std::uint64_t accounted =
          sw.drained_bytes() + static_cast<std::uint64_t>(occ > 0 ? occ : 0);
      if (sw.admitted_bytes() != accounted) {
        fail(FabricInvariantClass::kBufferLedger,
             "%s ledger: admitted %llu != drained %llu + occupancy %lld", sw.name().c_str(),
             static_cast<unsigned long long>(sw.admitted_bytes()),
             static_cast<unsigned long long>(sw.drained_bytes()), static_cast<long long>(occ));
      }
      if (occ != sw.queued_bytes_across_ports()) {
        fail(FabricInvariantClass::kOccupancyBounds,
             "%s occupancy %lld != per-port queue sum %lld", sw.name().c_str(),
             static_cast<long long>(occ),
             static_cast<long long>(sw.queued_bytes_across_ports()));
      }
      // In lossless mode the physical bound includes the headroom annex
      // (capacity_bytes() == buffer_bytes on a lossy switch).
      if (occ < 0 || occ > sw.capacity_bytes()) {
        fail(FabricInvariantClass::kOccupancyBounds,
             "%s occupancy %lld outside [0, %lld]", sw.name().c_str(),
             static_cast<long long>(occ), static_cast<long long>(sw.capacity_bytes()));
      }
      if (sw.pfc_enabled()) {
        const std::uint64_t drops = sw.totals().drops;
        std::uint64_t& seen = last_drops_[s];
        if (drops > seen) {
          fail(FabricInvariantClass::kLosslessness,
               "%s dropped %llu packet(s) while PFC enabled (undersized headroom "
               "or failed pause propagation)",
               sw.name().c_str(), static_cast<unsigned long long>(drops - seen));
        }
        seen = drops;
      }
    }
    if (cfg_.deep_periodic) check_deep_now();
  }

  // Whole-fabric sweeps: dangling-XOFF conservation and deadlock-cycle
  // detection over the pause-dependency graph. Reads every cell's state,
  // so sharded runs call this only at quiesced boundaries.
  void check_deep_now() {
    // Lossy fabrics register no pause relations: nothing to sweep, and the
    // periodic deep check must stay off the datapath's zero-alloc budget
    // (the DFS below uses heap scratch).
    if (fabric_.pause_relations().empty()) return;
    const sim::Time now = sim_.now();
    // -- dangling XOFF: both ends of every pause relation must agree once
    // the propagation delay has elapsed since the emitter's transition.
    // Strict '>' so a check event sharing a timestamp with the in-flight
    // apply event never false-positives.
    for (const fabric::Fabric::PauseRelation& rel : fabric_.pause_relations()) {
      for (int prio = 0; prio < net::kPfcPriorities; ++prio) {
        bool wants = false;
        sim::Time change;
        if (rel.dn_switch >= 0) {
          const fabric::FabricSwitch& dn = fabric_.switch_at(rel.dn_switch);
          wants = dn.ingress_paused_out(rel.in_idx, prio);
          change = dn.ingress_paused_change(rel.in_idx, prio);
        } else {
          wants = fabric_.host_wants_pause(static_cast<net::HostId>(rel.host), prio);
          change = fabric_.host_wants_change(static_cast<net::HostId>(rel.host), prio);
        }
        const bool applied = rel.uplink
                                 ? rel.uplink->pfc_real_paused(prio)
                                 : fabric_.switch_at(rel.up_switch).port_real_paused(
                                       rel.up_port, prio);
        if (wants != applied && now - change > rel.delay) {
          fail(FabricInvariantClass::kPauseLedger,
               "%s/p%d dangling %s: emitter %s, applier %s for %.1fus > delay %.1fus",
               rel.edge.c_str(), prio, applied ? "XOFF" : "XON", wants ? "paused" : "clear",
               applied ? "paused" : "clear", (now - change).us(), rel.delay.us());
        }
      }
    }
    // -- deadlock / congestion tree: wait-for edge U -> V when any of U's
    // egress ports toward V is paused (real or forced).
    const int n = fabric_.switch_count();
    std::vector<std::vector<int>> adj(n);
    for (const fabric::Fabric::PauseRelation& rel : fabric_.pause_relations()) {
      if (rel.up_switch < 0 || rel.dn_switch < 0) continue;
      bool paused = false;
      for (int prio = 0; prio < net::kPfcPriorities && !paused; ++prio) {
        paused = fabric_.switch_at(rel.up_switch).port_paused(rel.up_port, prio);
      }
      if (paused) adj[rel.up_switch].push_back(rel.dn_switch);
    }
    // Iterative DFS: colors for cycle detection, memoized depth (chain
    // length in switches) for the congestion-tree metric.
    std::vector<int> color(n, 0);  // 0 white, 1 on stack, 2 done
    std::vector<int> depth(n, 0);
    bool cycle = false;
    std::vector<int> cycle_nodes;
    for (int root = 0; root < n; ++root) {
      if (color[root] != 0) continue;
      std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
      color[root] = 1;
      while (!stack.empty()) {
        auto& [u, next] = stack.back();
        if (next < adj[u].size()) {
          const int v = adj[u][next++];
          if (color[v] == 0) {
            color[v] = 1;
            stack.push_back({v, 0});
          } else if (color[v] == 1) {
            // Back edge: everything on the stack from v onward is a cycle.
            if (!cycle) {
              bool in = false;
              for (const auto& [s, ni] : stack) {
                (void)ni;
                if (s == v) in = true;
                if (in) cycle_nodes.push_back(s);
              }
            }
            cycle = true;
          } else if (depth[v] + 1 > depth[u]) {
            depth[u] = depth[v] + 1;
          }
        } else {
          color[u] = 2;
          const int du = depth[u];
          stack.pop_back();
          if (!stack.empty()) {
            const int p = stack.back().first;
            if (du + 1 > depth[p]) depth[p] = du + 1;
          }
        }
      }
    }
    int max_depth = 0;
    for (int d : depth) {
      if (d > max_depth) max_depth = d;
    }
    // A node's depth counts edges below it; a cycle makes the true depth
    // unbounded — report the cycle length instead.
    if (cycle && static_cast<int>(cycle_nodes.size()) > max_depth) {
      max_depth = static_cast<int>(cycle_nodes.size());
    }
    if (max_depth > tree_depth_peak_) tree_depth_peak_ = max_depth;
    if (!cycle) {
      pending_cycle_.clear();
      return;
    }
    // Candidate cycle: snapshot the paused wait-for edges (cycle members
    // only) with their ports' forwarded-byte counters. The candidate is
    // confirmed as a deadlock only if every one of those edges was already
    // in the previous deep check's snapshot with an UNCHANGED tx counter:
    // still paused, and not a single byte of progress in a whole check
    // period. A transient mutual pause resumes (and forwards) in between
    // and never confirms.
    std::vector<char> in_cycle(static_cast<std::size_t>(n), 0);
    for (int s : cycle_nodes) in_cycle[s] = 1;
    std::map<std::pair<int, int>, std::uint64_t> snap;  // (switch, port) -> tx_bytes
    for (const fabric::Fabric::PauseRelation& rel : fabric_.pause_relations()) {
      if (rel.up_switch < 0 || rel.dn_switch < 0) continue;
      if (!in_cycle[rel.up_switch] || !in_cycle[rel.dn_switch]) continue;
      bool paused = false;
      for (int prio = 0; prio < net::kPfcPriorities && !paused; ++prio) {
        paused = fabric_.switch_at(rel.up_switch).port_paused(rel.up_port, prio);
      }
      if (paused) {
        snap[{rel.up_switch, rel.up_port}] =
            fabric_.switch_at(rel.up_switch).port_stats(rel.up_port).tx_bytes;
      }
    }
    bool confirmed = !snap.empty() && !pending_cycle_.empty();
    for (const auto& [key, tx] : snap) {
      if (!confirmed) break;
      const auto it = pending_cycle_.find(key);
      confirmed = it != pending_cycle_.end() && it->second == tx;
    }
    pending_cycle_ = std::move(snap);
    if (!confirmed) return;  // armed; the next consecutive check decides
    std::string members;
    for (int s : cycle_nodes) {
      if (!members.empty()) members += "->";
      members += fabric_.switch_at(s).name();
    }
    fail(FabricInvariantClass::kPauseDeadlock, "pause cycle (no progress): %s", members.c_str());
    if (cfg_.storm_breaker) {
      ++storm_breaks_;
      OBS_LOG(obs::LogLevel::kError, now, "faults/fabric_invariants",
              "storm breaker: force-XON on %d cycle switch(es)",
              static_cast<int>(cycle_nodes.size()));
      for (int s : cycle_nodes) {
        fabric::FabricSwitch& sw = fabric_.switch_at(s);
        for (int p = 0; p < sw.port_count(); ++p) sw.clear_port_pauses(p);
      }
      pending_cycle_.clear();
    }
  }

  std::uint64_t checks_run() const { return checks_; }
  std::uint64_t total_violations() const { return total_violations_; }
  std::uint64_t violations_of(FabricInvariantClass c) const {
    return by_class_[static_cast<int>(c)];
  }
  const std::vector<FabricViolation>& violations() const { return recorded_; }
  // Peak congestion-tree depth (longest pause-dependency chain, in hops)
  // observed across all deep checks, and storm-breaker interventions.
  int tree_depth_peak() const { return tree_depth_peak_; }
  std::uint64_t storm_breaks() const { return storm_breaks_; }

  std::string report() const { return report({this}); }

  // One report over several checkers (FabricScenario's per-cell ones):
  // summed counts, and the recorded violations merged in time order, in
  // the given checker order on ties.
  static std::string report(const std::vector<const FabricInvariantChecker*>& checkers) {
    std::uint64_t checks = 0, total = 0;
    std::uint64_t by_class[kFabricInvariantClasses] = {};
    std::vector<FabricViolation> recorded;
    for (const FabricInvariantChecker* c : checkers) {
      checks += c->checks_;
      total += c->total_violations_;
      for (int i = 0; i < kFabricInvariantClasses; ++i) by_class[i] += c->by_class_[i];
      recorded.insert(recorded.end(), c->recorded_.begin(), c->recorded_.end());
    }
    std::stable_sort(
        recorded.begin(), recorded.end(),
        [](const FabricViolation& a, const FabricViolation& b) { return a.at < b.at; });
    // Silent no-route drops can't hide: the final count is always in the
    // end-of-run report (and `--json` meta), even on an otherwise-OK run.
    const std::string no_route =
        "fabric no-route drops: " +
        std::to_string(checkers.front()->fabric_.totals().no_route_drops);
    if (total == 0) {
      return "fabric invariants: OK (" + std::to_string(checks) + " checks)\n" + no_route;
    }
    std::string out = "fabric invariants: " + std::to_string(total) + " violation(s) in " +
                      std::to_string(checks) + " checks\n" + no_route + "\n";
    for (int i = 0; i < kFabricInvariantClasses; ++i) {
      if (by_class[i] == 0) continue;
      out += "  " +
             std::string(fabric_invariant_class_name(static_cast<FabricInvariantClass>(i))) +
             ": " + std::to_string(by_class[i]) + "\n";
    }
    for (const FabricViolation& v : recorded) {
      char line[64];
      std::snprintf(line, sizeof(line), "  [%10.3fus] %s: ", v.at.us(),
                    fabric_invariant_class_name(v.cls));
      out += line + v.detail + "\n";
    }
    if (total > recorded.size()) {
      out += "  ... (" + std::to_string(total - recorded.size()) +
             " further violations not recorded)\n";
    }
    return out;
  }

 private:
  template <typename... Args>
  void fail(FabricInvariantClass cls, const char* fmt, Args... args) {
    ++total_violations_;
    ++by_class_[static_cast<int>(cls)];
    char buf[192];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    const sim::Time now = sim_.now();
    OBS_LOG(obs::LogLevel::kError, now, "faults/fabric_invariants", "%s: %s",
            fabric_invariant_class_name(cls), buf);
    if (recorded_.size() < cfg_.max_recorded) {
      recorded_.push_back({now, cls, std::string(buf)});
    }
  }

  sim::Simulator& sim_;
  fabric::Fabric& fabric_;
  FabricInvariantConfig cfg_;
  std::vector<int> subset_;  // empty = every switch
  sim::PeriodicTimer timer_;
  std::uint64_t checks_ = 0;
  std::uint64_t total_violations_ = 0;
  std::uint64_t by_class_[kFabricInvariantClasses] = {};
  std::vector<FabricViolation> recorded_;
  std::map<int, std::uint64_t> last_drops_;  // per audited switch (lossless)
  // Deadlock candidate from the previous deep check: the cycle's paused
  // (switch, port) wait-for edges with their tx_bytes progress witnesses.
  std::map<std::pair<int, int>, std::uint64_t> pending_cycle_;
  int tree_depth_peak_ = 0;
  std::uint64_t storm_breaks_ = 0;
};

}  // namespace hostcc::faults
