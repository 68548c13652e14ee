// FaultInjector: replays a FaultPlan against the live simulation. The
// injector is pure orchestration — every failure mode is implemented by
// the owning component's fault hooks (MsrBank::fault_*, MbaThrottle::
// fault_write_*, Link::set_down/set_rate_factor, FabricSwitch::
// set_port_down, SignalSampler::preempt_for); the injector only schedules
// when each hook turns on and off. All scheduling happens through the
// simulator, so fault runs are as deterministic as fault-free ones.
//
// Overlapping windows of the same (kind, target) nest: the fault stays
// active until every window covering the current instant has ended, and
// the most recently activated window's parameter wins.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fabric/fabric.h"
#include "fabric/fabric_switch.h"
#include "faults/fault_plan.h"
#include "host/mba.h"
#include "host/msr.h"
#include "hostcc/signals.h"
#include "net/link.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace hostcc::faults {

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, FaultPlan plan) : sim_(sim), plan_(std::move(plan)) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- attachment (what the plan can act on) ---
  // Unattached targets make the corresponding events no-ops (counted as
  // `skipped`), so a plan written for a full scenario can run against a
  // partial testbed.
  void attach_msrs(host::MsrBank& msrs) { msrs_ = &msrs; }
  void attach_mba(host::MbaThrottle& mba) { mba_ = &mba; }
  void attach_link(int index, net::Link& link) { links_[index] = &link; }
  // Single-switch testbeds: numeric port_down targets are port indices.
  void attach_switch(fabric::FabricSwitch& sw) { switch_ = &sw; }
  void attach_sampler(core::SignalSampler& sampler) { sampler_ = &sampler; }
  // Multi-switch topologies: link/port faults with a `target_edge` resolve
  // through the fabric's edge-name surface.
  void attach_fabric(fabric::Fabric& fab) { fabric_ = &fab; }
  // Sharded runs build one injector per cell, each armed on its cell's
  // simulator; scoping restricts the fabric edge calls to ports/uplinks
  // that cell owns so every side effect happens on the owning thread.
  void set_edge_cell_scope(int cell) { edge_cell_ = cell; }

  const FaultPlan& plan() const { return plan_; }
  bool plan_has(FaultKind k) const {
    for (const FaultEvent& ev : plan_.events)
      if (ev.kind == k) return true;
    return false;
  }

  // Schedules every event in the plan. Call once, before Simulator::run.
  void arm() {
    outcomes_.assign(plan_.events.size(), Outcome{});
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
      const FaultEvent& ev = plan_.events[i];
      sim_.at(ev.start, [this, i] { activate(i); });
      // duration 0 = until the end of the run: no deactivation event.
      if (ev.duration > sim::Time::zero()) {
        sim_.at(ev.end(), [this, i] { deactivate(i); });
      }
    }
  }

  struct Counts {
    std::uint64_t activations = 0;    // plan events some target took
    std::uint64_t deactivations = 0;  // plan events whose end cleared a fault
    std::uint64_t skipped = 0;        // plan events that fired with no target
    double active = 0.0;              // distinct (kind, target) faults in force
  };
  // Counts over injectors replaying one plan (one per cell of a sharded
  // run, each seeing every event): a plan event counts once — applied if
  // any injector applied it, skipped only if it fired and none did.
  static Counts merged(const std::vector<const FaultInjector*>& injectors) {
    Counts c;
    if (injectors.empty()) return c;
    std::set<std::pair<FaultKind, int>> active;
    std::set<std::pair<FaultKind, std::string>> active_named;
    for (const FaultInjector* j : injectors) {
      for (const auto& [key, n] : j->active_) {
        if (n > 0) active.insert(key);
      }
      for (const auto& [key, n] : j->active_named_) {
        if (n > 0) active_named.insert(key);
      }
    }
    c.active = static_cast<double>(active.size() + active_named.size());
    for (std::size_t i = 0; i < injectors.front()->outcomes_.size(); ++i) {
      Outcome any;
      for (const FaultInjector* j : injectors) {
        const Outcome& o = j->outcomes_[i];
        any.fired = any.fired || o.fired;
        any.applied = any.applied || o.applied;
        any.cleared = any.cleared || o.cleared;
      }
      c.activations += any.applied ? 1 : 0;
      c.deactivations += any.cleared ? 1 : 0;
      c.skipped += any.fired && !any.applied ? 1 : 0;
    }
    return c;
  }
  Counts counts() const { return merged({this}); }
  std::uint64_t activations() const { return counts().activations; }
  std::uint64_t deactivations() const { return counts().deactivations; }
  std::uint64_t skipped() const { return counts().skipped; }

  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
    register_counts(reg, prefix, [this] { return counts(); });
  }
  // The same metric set over any Counts source (e.g. merged per-cell
  // injectors).
  static void register_counts(obs::MetricsRegistry& reg, const std::string& prefix,
                              std::function<Counts()> fn) {
    reg.counter_fn(prefix + "/activations", [fn] { return fn().activations; });
    reg.counter_fn(prefix + "/deactivations", [fn] { return fn().deactivations; });
    reg.counter_fn(prefix + "/skipped", [fn] { return fn().skipped; });
    reg.gauge(prefix + "/active", [fn] { return fn().active; });
  }

 private:
  // Per-kind parameter defaults (spec param 0 = "use the default").
  static double default_param(FaultKind k) {
    switch (k) {
      case FaultKind::kMsrStall: return 20.0;      // us of extra read latency
      case FaultKind::kMsrTorn: return 0.25;       // corruption probability
      case FaultKind::kMbaWriteDelay: return 8.0;  // latency multiplier
      case FaultKind::kLinkDegrade: return 0.25;   // rate factor
      default: return 0.0;
    }
  }
  static int default_target(FaultKind k) {
    // link faults default to uplink 1 (the first sender); port faults to
    // port 0 (the single-star receiver's output port).
    return k == FaultKind::kLinkDown || k == FaultKind::kLinkDegrade ? 1 : 0;
  }

  void activate(std::size_t i) {
    const FaultEvent& ev = plan_.events[i];
    Outcome& out = outcomes_[i];
    out.fired = true;
    const double param = ev.param > 0.0 ? ev.param : default_param(ev.kind);
    if (!ev.target_edge.empty()) {
      if (!apply_edge(ev, param, /*on=*/true)) return;
      ++active_named_[{ev.kind, ev.target_edge}];
      out.applied = true;
      OBS_LOG(obs::LogLevel::kWarn, sim_.now(), "faults", "inject %s param=%.3f edge=%s",
              fault_kind_name(ev.kind), param, ev.target_edge.c_str());
      return;
    }
    const int target = ev.target >= 0 ? ev.target : default_target(ev.kind);
    if (!apply(ev, param, target, /*on=*/true)) return;
    ++active_[{ev.kind, target}];
    out.applied = true;
    OBS_LOG(obs::LogLevel::kWarn, sim_.now(), "faults", "inject %s param=%.3f target=%d",
            fault_kind_name(ev.kind), param, target);
  }

  void deactivate(std::size_t i) {
    const FaultEvent& ev = plan_.events[i];
    const double param = ev.param > 0.0 ? ev.param : default_param(ev.kind);
    if (!ev.target_edge.empty()) {
      auto it = active_named_.find({ev.kind, ev.target_edge});
      if (it == active_named_.end() || it->second == 0) return;  // was skipped
      if (--it->second > 0) return;  // an overlapping window is still open
      if (!apply_edge(ev, param, /*on=*/false)) return;
      outcomes_[i].cleared = true;
      OBS_LOG(obs::LogLevel::kInfo, sim_.now(), "faults", "clear %s edge=%s",
              fault_kind_name(ev.kind), ev.target_edge.c_str());
      return;
    }
    const int target = ev.target >= 0 ? ev.target : default_target(ev.kind);
    auto it = active_.find({ev.kind, target});
    if (it == active_.end() || it->second == 0) return;  // was skipped
    if (--it->second > 0) return;  // an overlapping window is still open
    if (!apply(ev, param, target, /*on=*/false)) return;
    outcomes_[i].cleared = true;
    OBS_LOG(obs::LogLevel::kInfo, sim_.now(), "faults", "clear %s target=%d",
            fault_kind_name(ev.kind), target);
  }

  // Edge-name faults route through the fabric. Returns false (skipped)
  // when no fabric is attached or the edge does not exist.
  bool apply_edge(const FaultEvent& ev, double param, bool on) {
    if (!fabric_) return false;
    switch (ev.kind) {
      case FaultKind::kLinkDown:
        return fabric_->set_edge_down(ev.target_edge, on, edge_cell_);
      case FaultKind::kLinkDegrade:
        return fabric_->set_edge_rate_factor(ev.target_edge, on ? param : 1.0, edge_cell_);
      case FaultKind::kPortDown:
        return fabric_->set_edge_port_down(ev.target_edge, on, edge_cell_);
      case FaultKind::kPauseStorm:
        // param carries the PFC priority (default 0 — the data class).
        return fabric_->set_edge_forced_pause(ev.target_edge, static_cast<int>(param), on,
                                              edge_cell_);
      case FaultKind::kPfcMute:
        return fabric_->set_edge_xon_mute(ev.target_edge, on, edge_cell_);
      default:
        return false;
    }
  }

  // Turns one fault on/off. Returns false when the target is not attached.
  bool apply(const FaultEvent& ev, double param, int target, bool on) {
    switch (ev.kind) {
      case FaultKind::kMsrStall:
        if (!msrs_) return false;
        msrs_->fault_stall(on ? sim::Time::microseconds(param) : sim::Time::zero());
        return true;
      case FaultKind::kMsrFreeze:
        if (!msrs_) return false;
        msrs_->fault_freeze(on);
        return true;
      case FaultKind::kMsrTorn:
        if (!msrs_) return false;
        msrs_->fault_torn(on ? param : 0.0, plan_.seed);
        return true;
      case FaultKind::kMbaWriteFail:
        if (!mba_) return false;
        mba_->fault_write_fail(on);
        return true;
      case FaultKind::kMbaWriteDelay:
        if (!mba_) return false;
        mba_->fault_write_delay(on ? param : 1.0);
        return true;
      case FaultKind::kLinkDown: {
        auto it = links_.find(target);
        if (it == links_.end()) return false;
        it->second->set_down(on);
        return true;
      }
      case FaultKind::kLinkDegrade: {
        auto it = links_.find(target);
        if (it == links_.end()) return false;
        it->second->set_rate_factor(on ? param : 1.0);
        return true;
      }
      case FaultKind::kPortDown:
        if (!switch_) return false;
        switch_->set_port_down(target, on);
        return true;
      case FaultKind::kPauseStorm:
      case FaultKind::kPfcMute:
        // PFC faults are edge-addressed only (no numeric-target surface).
        return false;
      case FaultKind::kSamplerPause:
        if (!sampler_) return false;
        // The pause is expressed as one preemption covering the whole
        // window, so the "off" edge has nothing to undo.
        if (on) {
          sampler_->preempt_for(ev.duration > sim::Time::zero() ? ev.duration
                                                                : sim::Time::seconds(3600.0));
        }
        return true;
    }
    return false;
  }

  sim::Simulator& sim_;
  FaultPlan plan_;
  host::MsrBank* msrs_ = nullptr;
  host::MbaThrottle* mba_ = nullptr;
  std::map<int, net::Link*> links_;
  fabric::FabricSwitch* switch_ = nullptr;
  core::SignalSampler* sampler_ = nullptr;
  fabric::Fabric* fabric_ = nullptr;
  int edge_cell_ = -1;  // -1 = whole fabric
  // What happened to one plan event on this injector.
  struct Outcome {
    bool fired = false;    // its start time was reached
    bool applied = false;  // a target took the fault (else it was skipped)
    bool cleared = false;  // its window's end turned the fault off
  };

  std::map<std::pair<FaultKind, int>, int> active_;
  std::map<std::pair<FaultKind, std::string>, int> active_named_;
  std::vector<Outcome> outcomes_;  // parallel to plan_.events
};

}  // namespace hostcc::faults
