// Output-queued fabric switch: the one switch model, used by every fabric
// topology and by the paper's single-star testbed (exp::Scenario).
//
//   * Admission, one of two modes:
//       - Dynamic threshold (DT, Choudhury–Hahne; port_buffer_bytes == 0):
//         one buffer pool shared by every output port, and a packet is
//         admitted to port i iff
//           q_i + size <= alpha * (B - occupancy)
//         where occupancy is the switch-wide queued total. Hot ports can
//         grab most of the buffer when the fabric is quiet, but the
//         shrinking headroom caps them as total occupancy climbs — the
//         behaviour that produces realistic incast drop rates
//         (EXPERIMENTS.md deviation #6).
//       - Static per-port drop-tail (port_buffer_bytes > 0): drop iff
//         q_i + size > port_buffer_bytes, independent of the other ports.
//         The paper testbed's switch (§2.2, §5.1); DT cannot reproduce it,
//         because a DT limit moves with other ports' occupancy.
//   * Per-port ECN marking (DCTCP mark-on-enqueue at threshold K).
//   * ECMP: routes_ maps each destination host to a sorted set of
//     equal-cost egress ports; the pick hashes (flow ^ salt) with
//     splitmix64, so one flow always takes one path (no reordering) while
//     different flows spread. The per-switch salt decorrelates consecutive
//     hops (no hash polarization). No RNG is consulted, so routing is
//     deterministic and allocation-free.
//   * Ports carry their own rate: egress serialization happens here (a
//     switch-switch hop needs no separate net::Link). rate zero = ideal
//     port (serialization-free) for unit testbeds. Propagation to the next
//     hop rides the port's extra_delay: the delivery event lands at the
//     downstream arrival time, so a hop costs no separate relay event.
//
// Ledger (audited by faults::FabricInvariantChecker): every admitted byte
// is either still queued or was drained to serialization, i.e.
//   admitted_bytes == drained_bytes + occupancy,
//   occupancy == sum(port q_bytes),  0 <= occupancy <= buffer_bytes.
//
// Fault surface (FaultInjector, by topology edge name via Fabric, or by
// port index on the single-star testbed): per-port down (the queue
// drop-tails) and per-port rate degradation; in lossless mode, per-port
// forced pause (pause_storm) and XON muting (pfc_mute).
//
// Lossless mode (cfg.pfc_enabled): per-priority PFC on top of the shared
// buffer. Each upstream neighbor registers an *ingress* (add_ingress) with
// a pause emitter and a headroom allowance. Per-(ingress, priority) byte
// counts are stamped on admission and released at drain; when a count
// crosses the XOFF threshold — carved from the DT pool as
//   threshold = max(pfc_alpha * (B - occupancy), pfc_min_threshold)
// — the ingress emits XOFF upstream, and XON once it drains back under
// pfc_xon_fraction of the (re-evaluated) threshold. While PFC is on,
// lossless admission replaces the DT drop path: packets are admitted as
// long as they fit in buffer_bytes plus the summed per-ingress headroom
// (the annex that absorbs the one-RTT flight between XOFF emission and the
// upstream actually stopping), so a drop in lossless mode is an invariant
// violation, never policy. Egress ports carry per-priority pause state
// (set_port_pause); a paused head-of-queue priority stalls the whole port
// FIFO — head-of-line blocking is the modelled pathology, not a bug.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fabric/pause_ledger.h"
#include "net/packet.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/random.h"
#include "sim/ring_queue.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace hostcc::fabric {

struct FabricSwitchConfig {
  sim::Bytes buffer_bytes = 2 * sim::kMiB;  // shared across all ports
  // DT alpha: per-port threshold = alpha * remaining headroom. 1.0 lets a
  // single hot port take half the buffer at equilibrium (T = B - T).
  double dt_alpha = 1.0;
  // > 0: static per-port drop-tail at this many bytes instead of DT (the
  // single-star paper testbed). buffer_bytes must still cover every port's
  // share, or the ledger bound occupancy <= buffer_bytes breaks.
  sim::Bytes port_buffer_bytes = 0;
  sim::Bytes ecn_threshold = 80 * sim::kKiB;  // per-port DCTCP K
  sim::Time forward_latency = sim::Time::nanoseconds(600);
  // Per-packet pipeline jitter, uniform [0, max]; zero disables the RNG
  // draw entirely (required for the byte-exact ideal testbed).
  sim::Time forward_jitter_max = sim::Time::microseconds(2);
  std::uint64_t seed = 0xfab51c;

  // --- PFC / lossless mode ---
  bool pfc_enabled = false;
  // XOFF threshold as a fraction of the free shared pool (DT-style: the
  // allowance shrinks as the switch fills, so a hot ingress pauses its
  // upstream before it can starve everyone else's headroom).
  double pfc_alpha = 0.125;
  // XON once the ingress count drains under this fraction of the (current)
  // XOFF threshold — hysteresis against pause/resume flapping.
  double pfc_xon_fraction = 0.5;
  // Threshold floor: keeps XON reachable when occupancy is near the pool
  // cap (a zero threshold would wedge every paused ingress forever).
  sim::Bytes pfc_min_threshold = 8 * sim::kKiB;
  // Default per-ingress headroom when add_ingress passes 0. Sized by the
  // Fabric from the arc's rate-delay product; this is the fallback.
  sim::Bytes pfc_headroom_bytes = 64 * sim::kKiB;
};

class FabricSwitch {
 public:
  using PortSink = std::function<void(const net::PacketRef&)>;
  // Pause emitter toward one upstream sender: called when this switch
  // wants that sender to stop (on=true, XOFF) or resume (XON) a priority.
  using PauseFn = std::function<void(int prio, bool on)>;

  FabricSwitch(sim::Simulator& sim, std::string name, FabricSwitchConfig cfg)
      : sim_(sim),
        name_(std::move(name)),
        cfg_(cfg),
        rng_(cfg.seed),
        salt_(splitmix64(cfg.seed ^ 0x9e3779b97f4a7c15ull)) {}

  const std::string& name() const { return name_; }

  // Adds an egress port; returns its index. `rate` zero = ideal
  // (serialization-free). `delivery_extra` folds the downstream
  // propagation into the delivery event.
  int add_port(std::string port_name, sim::Bandwidth rate, PortSink sink,
               sim::Time delivery_extra = sim::Time::zero()) {
    Port port;
    port.name = std::move(port_name);
    port.rate = rate;
    port.sink = std::move(sink);
    port.extra_delay = delivery_extra;
    ports_.push_back(std::move(port));
    return static_cast<int>(ports_.size()) - 1;
  }

  // Declares the equal-cost egress set for packets destined to `host`.
  // Port indices are kept sorted so the ECMP pick is independent of
  // insertion order.
  void set_route(net::HostId host, std::vector<int> equal_cost_ports) {
    if (routes_.size() <= host) routes_.resize(host + 1);
    std::vector<int>& r = routes_[host];
    r = std::move(equal_cost_ports);
    for (std::size_t i = 1; i < r.size(); ++i) {  // insertion sort; sets are tiny
      int v = r[i];
      std::size_t j = i;
      for (; j > 0 && r[j - 1] > v; --j) r[j] = r[j - 1];
      r[j] = v;
    }
  }

  // Self-profiler attribution for routing/admission and port dequeue.
  void set_profiler(obs::ProfHandle h) { prof_ = h; }
  // Applied pause transitions are recorded here (one ledger per cell in
  // sharded runs; the Fabric wires it).
  void set_pause_ledger(PauseLedger* ledger) { ledger_ = ledger; }

  // Registers an upstream sender for PFC accounting: packets entering via
  // `in_idx` are charged to this ingress until drained, and `pause` is
  // invoked on XOFF/XON threshold crossings. `headroom` (0 = config
  // default) extends the lossless admission capacity to absorb the bytes
  // in flight between XOFF emission and the upstream actually stopping.
  int add_ingress(std::string ingress_name, PauseFn pause, sim::Bytes headroom = 0) {
    Ingress in;
    in.name = std::move(ingress_name);
    in.pause = std::move(pause);
    in.headroom = headroom > 0 ? headroom : cfg_.pfc_headroom_bytes;
    headroom_total_ += in.headroom;
    ingresses_.push_back(std::move(in));
    return static_cast<int>(ingresses_.size()) - 1;
  }

  // Packet arriving on input `in_idx` (-1 = unregistered ingress, e.g. a
  // direct-attached testbed host): route, admit (see admits), mark,
  // enqueue.
  void ingress(net::PacketRef p, int in_idx) {
    obs::ProfScope scope(prof_);
    const int pi = route(p->dst, p->flow);
    if (pi < 0) {
      if (no_route_drops_ == 0) {
        OBS_LOG(obs::LogLevel::kWarn, sim_.now(), "fabric/switch",
                "%s: dropping packet for unknown host %llu (flow %llu); "
                "counting further no-route drops silently",
                name_.c_str(), static_cast<unsigned long long>(p->dst),
                static_cast<unsigned long long>(p->flow));
      }
      ++no_route_drops_;
      return;
    }
    Port& port = ports_[pi];

    if (!admits(port, p->size)) {
      ++port.drops;
      dropped_bytes_ += p->size;
      return;
    }
    if (port.q_bytes >= cfg_.ecn_threshold && p->ecn == net::Ecn::kEct0) {
      p->ecn = net::Ecn::kCe;
      ++port.marks;
    }
    port.q_bytes += p->size;
    occupancy_ += p->size;
    admitted_bytes_ += p->size;
    if (occupancy_ > occupancy_peak_) occupancy_peak_ = occupancy_;
    if (cfg_.pfc_enabled) {
      p->sw_in = static_cast<std::int16_t>(in_idx);
      if (in_idx >= 0) pfc_on_admit(in_idx, p->prio, p->size);
    }
    port.q.push_back(std::move(p));
    if (!port.busy && !port.down) transmit_next(port);
  }
  void ingress(net::PacketRef p) { ingress(std::move(p), -1); }
  // By-value bridges (unit tests, and the cross-cell channel consumer
  // which re-pools the packet on its own cell).
  void ingress(const net::Packet& p) { ingress(pool_.make(p), -1); }
  void ingress(const net::Packet& p, int in_idx) { ingress(pool_.make(p), in_idx); }

  struct PortStats {
    std::uint64_t drops = 0;
    std::uint64_t marks = 0;
    sim::Bytes queue_bytes = 0;
    bool down = false;
    // Monotone forwarded-byte count: the deadlock invariant's progress
    // witness (a paused port that also stopped advancing this is wedged).
    std::uint64_t tx_bytes = 0;
  };
  PortStats port_stats(int port) const {
    if (port < 0 || port >= static_cast<int>(ports_.size())) return {};
    const Port& p = ports_[port];
    return {p.drops, p.marks, p.q_bytes, p.down, p.tx_bytes};
  }
  int port_count() const { return static_cast<int>(ports_.size()); }
  const std::string& port_name(int port) const { return ports_.at(port).name; }
  // First port with this name, or -1 (edge-name fault addressing).
  int find_port(const std::string& port_name) const {
    for (int i = 0; i < port_count(); ++i)
      if (ports_[i].name == port_name) return i;
    return -1;
  }

  struct Totals {
    std::uint64_t drops = 0;
    std::uint64_t marks = 0;
    std::uint64_t no_route_drops = 0;
    sim::Bytes occupancy = 0;
    sim::Bytes occupancy_peak = 0;
    std::uint64_t pfc_xoffs_sent = 0;
    std::uint64_t pfc_xons_sent = 0;
    std::uint64_t pfc_muted_xons = 0;
  };
  Totals totals() const {
    Totals t;
    for (const Port& p : ports_) {
      t.drops += p.drops;
      t.marks += p.marks;
    }
    t.no_route_drops = no_route_drops_;
    t.occupancy = occupancy_;
    t.occupancy_peak = occupancy_peak_;
    t.pfc_xoffs_sent = pfc_xoffs_sent_;
    t.pfc_xons_sent = pfc_xons_sent_;
    t.pfc_muted_xons = muted_xons_;
    return t;
  }

  // Shared-buffer ledger, for the invariant checker.
  sim::Bytes occupancy() const { return occupancy_; }
  sim::Bytes queued_bytes_across_ports() const {
    sim::Bytes sum = 0;
    for (const Port& p : ports_) sum += p.q_bytes;
    return sum;
  }
  std::uint64_t admitted_bytes() const { return admitted_bytes_; }
  std::uint64_t drained_bytes() const { return drained_bytes_; }
  std::uint64_t dropped_bytes() const { return dropped_bytes_; }
  sim::Bytes buffer_bytes() const { return cfg_.buffer_bytes; }
  std::uint64_t no_route_drops() const { return no_route_drops_; }

  // Exposed for the ECMP flow-affinity unit test: the egress port this
  // switch would pick for (dst, flow), or -1 with no route.
  int route(net::HostId dst, net::FlowId flow) const {
    if (dst >= routes_.size() || routes_[dst].empty()) return -1;
    const std::vector<int>& r = routes_[dst];
    if (r.size() == 1) return r[0];
    const std::uint64_t h = splitmix64(static_cast<std::uint64_t>(flow) ^ salt_);
    return r[h % r.size()];
  }

  // --- fault hooks (FaultInjector via Fabric's edge-name surface) ---

  void set_port_down(int port, bool down) {
    if (port < 0 || port >= port_count()) return;
    Port& p = ports_[port];
    if (p.down == down) return;
    p.down = down;
    OBS_LOG(obs::LogLevel::kWarn, sim_.now(), "fabric/switch", "%s port %s %s", name_.c_str(),
            p.name.c_str(), down ? "down" : "up");
    if (!down && !p.busy) transmit_next(p);
  }
  bool port_down(int port) const {
    return port >= 0 && port < port_count() && ports_[port].down;
  }
  // Degraded egress line rate (factor in (0,1]; 1.0 restores nominal).
  // No effect on ideal (rate-zero) ports.
  void set_port_rate_factor(int port, double factor) {
    if (port < 0 || port >= port_count()) return;
    ports_[port].rate_factor = factor <= 0.0 ? 1.0 : factor;
    OBS_LOG(obs::LogLevel::kWarn, sim_.now(), "fabric/switch", "%s port %s rate factor %.3f",
            name_.c_str(), ports_[port].name.c_str(), ports_[port].rate_factor);
  }

  // --- PFC pause surface ---

  // Applies a pause (XOFF) or resume (XON) from the downstream neighbor on
  // egress `port`. An active XON mute (pfc_mute fault) drops resumes — the
  // lost-XON failure — leaving the port wedged. Returns whether applied.
  bool set_port_pause(int port, int prio, bool on) {
    if (port < 0 || port >= port_count() || prio < 0 || prio >= net::kPfcPriorities) return false;
    Port& p = ports_[port];
    if (!on && p.xon_mute) {
      ++muted_xons_;
      if (ledger_) ledger_->record_muted_xon();
      OBS_LOG(obs::LogLevel::kWarn, sim_.now(), "fabric/switch", "%s port %s XON prio %d muted",
              name_.c_str(), p.name.c_str(), prio);
      return false;
    }
    if (p.pause_in[prio] == on) return true;
    p.pause_in[prio] = on;
    if (on) {
      ++pfc_xoffs_applied_;
    } else {
      ++pfc_xons_applied_;
    }
    if (ledger_) ledger_->record(pause_key(p, prio), on, sim_.now());
    if (!on && !p.busy && !p.down) transmit_next(p);
    return true;
  }
  // pause_storm injection: forces the priority paused on this egress,
  // independent of (and without disturbing) the real pause state.
  void set_port_forced_pause(int port, int prio, bool on) {
    if (port < 0 || port >= port_count() || prio < 0 || prio >= net::kPfcPriorities) return;
    Port& p = ports_[port];
    if (p.forced_pause[prio] == on) return;
    p.forced_pause[prio] = on;
    if (on) ++forced_pauses_;
    OBS_LOG(obs::LogLevel::kWarn, sim_.now(), "fabric/switch", "%s port %s forced pause prio %d %s",
            name_.c_str(), p.name.c_str(), prio, on ? "on" : "off");
    if (!on && !p.busy && !p.down) transmit_next(p);
  }
  // pfc_mute injection: XON deliveries to this egress are dropped.
  void set_port_xon_mute(int port, bool on) {
    if (port < 0 || port >= port_count()) return;
    ports_[port].xon_mute = on;
  }
  // Storm-breaker hook: force-XONs every pause bit (real and forced) on
  // the port. Real releases are recorded in the ledger as applied XONs.
  void clear_port_pauses(int port) {
    if (port < 0 || port >= port_count()) return;
    Port& p = ports_[port];
    bool was = false;
    for (int prio = 0; prio < net::kPfcPriorities; ++prio) {
      if (p.pause_in[prio]) {
        p.pause_in[prio] = false;
        ++pfc_xons_applied_;
        if (ledger_) ledger_->record(pause_key(p, prio), false, sim_.now());
        was = true;
      }
      was = was || p.forced_pause[prio];
      p.forced_pause[prio] = false;
    }
    if (was && !p.busy && !p.down) transmit_next(p);
  }
  bool port_paused(int port, int prio) const {
    if (port < 0 || port >= port_count() || prio < 0 || prio >= net::kPfcPriorities) return false;
    return ports_[port].pause_in[prio] || ports_[port].forced_pause[prio];
  }
  bool port_real_paused(int port, int prio) const {
    return port >= 0 && port < port_count() && prio >= 0 && prio < net::kPfcPriorities &&
           ports_[port].pause_in[prio];
  }
  bool port_forced_paused(int port, int prio) const {
    return port >= 0 && port < port_count() && prio >= 0 && prio < net::kPfcPriorities &&
           ports_[port].forced_pause[prio];
  }
  bool port_xon_muted(int port) const {
    return port >= 0 && port < port_count() && ports_[port].xon_mute;
  }

  bool pfc_enabled() const { return cfg_.pfc_enabled; }
  // Physical capacity: the shared pool plus the lossless headroom annex.
  sim::Bytes capacity_bytes() const {
    return cfg_.pfc_enabled ? cfg_.buffer_bytes + headroom_total_ : cfg_.buffer_bytes;
  }
  int ingress_count() const { return static_cast<int>(ingresses_.size()); }
  const std::string& ingress_name(int in) const { return ingresses_.at(in).name; }
  sim::Bytes ingress_bytes(int in, int prio) const { return ingresses_.at(in).bytes[prio]; }
  // Whether this switch currently wants the upstream behind ingress `in`
  // paused for `prio` (the emitter-side truth the dangling-XOFF invariant
  // compares against the upstream's applied state).
  bool ingress_paused_out(int in, int prio) const { return ingresses_.at(in).paused_out[prio]; }
  sim::Time ingress_paused_change(int in, int prio) const {
    return ingresses_.at(in).paused_change[prio];
  }
  std::uint64_t pfc_xoffs_sent() const { return pfc_xoffs_sent_; }
  std::uint64_t pfc_xons_sent() const { return pfc_xons_sent_; }
  std::uint64_t pfc_xoffs_applied() const { return pfc_xoffs_applied_; }
  std::uint64_t pfc_xons_applied() const { return pfc_xons_applied_; }
  std::uint64_t muted_xons() const { return muted_xons_; }
  std::uint64_t forced_pauses() const { return forced_pauses_; }
  // Currently-paused (port, prio) pairs, for telemetry.
  int paused_port_count() const {
    int n = 0;
    for (const Port& p : ports_) {
      for (int prio = 0; prio < net::kPfcPriorities; ++prio) {
        if (p.pause_in[prio] || p.forced_pause[prio]) ++n;
      }
    }
    return n;
  }

  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
    reg.counter_fn(prefix + "/no_route_drops", [this] { return no_route_drops_; });
    reg.counter_fn(prefix + "/drops", [this] { return totals().drops; });
    reg.counter_fn(prefix + "/marks", [this] { return totals().marks; });
    reg.gauge(prefix + "/occupancy_bytes", [this] { return static_cast<double>(occupancy_); });
    reg.gauge(prefix + "/occupancy_peak_bytes",
              [this] { return static_cast<double>(occupancy_peak_); });
    if (cfg_.pfc_enabled) {
      reg.counter_fn(prefix + "/pfc_xoffs_sent", [this] { return pfc_xoffs_sent_; });
      reg.counter_fn(prefix + "/pfc_xons_sent", [this] { return pfc_xons_sent_; });
      reg.counter_fn(prefix + "/pfc_muted_xons", [this] { return muted_xons_; });
      reg.gauge(prefix + "/pfc_paused_ports",
                [this] { return static_cast<double>(paused_port_count()); });
    }
    for (const Port& port : ports_) {
      const std::string p = prefix + "/port/" + port.name;
      const Port* pp = &port;
      reg.counter_fn(p + "/drops", [pp] { return pp->drops; });
      reg.counter_fn(p + "/marks", [pp] { return pp->marks; });
      reg.gauge(p + "/queue_bytes", [pp] { return static_cast<double>(pp->q_bytes); });
      reg.gauge(p + "/down", [pp] { return pp->down ? 1.0 : 0.0; });
    }
  }

 private:
  struct Port {
    std::string name;
    PortSink sink;
    sim::Bandwidth rate;  // zero = ideal (no serialization)
    double rate_factor = 1.0;
    sim::RingQueue<net::PacketRef> q;
    sim::Bytes q_bytes = 0;
    bool busy = false;
    bool down = false;
    std::uint64_t drops = 0;
    std::uint64_t marks = 0;
    std::uint64_t tx_bytes = 0;
    sim::Time last_out;
    sim::Time extra_delay;  // folded downstream propagation
    // PFC state (lossless mode): pause_in is the real protocol pause the
    // downstream applied; forced_pause is the pause_storm overlay.
    bool pause_in[net::kPfcPriorities] = {};
    bool forced_pause[net::kPfcPriorities] = {};
    bool xon_mute = false;
  };

  // One registered upstream sender: per-priority byte occupancy charged on
  // admission, released at drain, with the emitter-side pause state.
  struct Ingress {
    std::string name;
    PauseFn pause;
    sim::Bytes headroom = 0;
    sim::Bytes bytes[net::kPfcPriorities] = {};
    bool paused_out[net::kPfcPriorities] = {};
    sim::Time paused_change[net::kPfcPriorities] = {};
  };

  std::string pause_key(const Port& port, int prio) const {
    return name_ + ":" + port.name + "/p" + std::to_string(prio);
  }

  // Admission: lossless (PFC on), static per-port drop-tail
  // (port_buffer_bytes > 0), or DT against the shared pool.
  bool admits(const Port& port, sim::Bytes size) const {
    if (cfg_.pfc_enabled) {
      // Lossless admission: the DT drop path is replaced by backpressure.
      // Physical capacity is the shared pool plus the headroom annex; an
      // overflow beyond it means the headroom was undersized (the
      // losslessness invariant reports it as a violation).
      return occupancy_ + size <= capacity_bytes();
    }
    if (cfg_.port_buffer_bytes > 0) return port.q_bytes + size <= cfg_.port_buffer_bytes;
    // DT admission against the shared pool: the per-port allowance
    // shrinks as switch-wide occupancy grows. The absolute pool cap also
    // binds (alpha > 1 must never oversubscribe physical buffer).
    const sim::Bytes headroom = cfg_.buffer_bytes - occupancy_;
    const sim::Bytes dt_limit =
        static_cast<sim::Bytes>(cfg_.dt_alpha * static_cast<double>(headroom));
    return port.q_bytes + size <= dt_limit && occupancy_ + size <= cfg_.buffer_bytes;
  }

  // Current XOFF threshold: DT-style fraction of the free shared pool with
  // a floor so XON stays reachable when the pool is nearly full.
  sim::Bytes pfc_threshold() const {
    const sim::Bytes free =
        occupancy_ < cfg_.buffer_bytes ? cfg_.buffer_bytes - occupancy_ : 0;
    const sim::Bytes dt = static_cast<sim::Bytes>(cfg_.pfc_alpha * static_cast<double>(free));
    return dt > cfg_.pfc_min_threshold ? dt : cfg_.pfc_min_threshold;
  }

  void pfc_on_admit(int in_idx, int prio, sim::Bytes size) {
    if (prio < 0 || prio >= net::kPfcPriorities) return;
    Ingress& in = ingresses_[in_idx];
    in.bytes[prio] += size;
    if (!in.paused_out[prio] && in.bytes[prio] > pfc_threshold()) {
      in.paused_out[prio] = true;
      in.paused_change[prio] = sim_.now();
      ++pfc_xoffs_sent_;
      OBS_LOG(obs::LogLevel::kDebug, sim_.now(), "fabric/switch", "%s XOFF -> %s prio %d (%llu B)",
              name_.c_str(), in.name.c_str(), prio,
              static_cast<unsigned long long>(in.bytes[prio]));
      if (in.pause) in.pause(prio, true);
    }
  }

  void pfc_on_drain(int in_idx, int prio, sim::Bytes size) {
    if (in_idx < 0 || in_idx >= ingress_count() || prio < 0 || prio >= net::kPfcPriorities) return;
    Ingress& in = ingresses_[in_idx];
    in.bytes[prio] = in.bytes[prio] > size ? in.bytes[prio] - size : 0;
    if (in.paused_out[prio] &&
        static_cast<double>(in.bytes[prio]) <=
            cfg_.pfc_xon_fraction * static_cast<double>(pfc_threshold())) {
      in.paused_out[prio] = false;
      in.paused_change[prio] = sim_.now();
      ++pfc_xons_sent_;
      if (in.pause) in.pause(prio, false);
    }
  }

  static constexpr std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void transmit_next(Port& port) {
    if (port.q.empty() || port.down) {
      port.busy = false;
      return;
    }
    if (cfg_.pfc_enabled) {
      // A paused head-of-queue priority stalls the whole FIFO (HoL blocking
      // by design — the port is a single lane). A later set_port_pause(off)
      // or clear_port_pauses restarts it.
      const int head_prio = port.q.front()->prio;
      if (port.pause_in[head_prio] || port.forced_pause[head_prio]) {
        port.busy = false;
        return;
      }
    }
    obs::ProfScope scope(prof_);
    port.busy = true;
    net::PacketRef p = std::move(port.q.front());
    port.q.pop_front();
    port.q_bytes -= p->size;
    occupancy_ -= p->size;
    drained_bytes_ += p->size;
    port.tx_bytes += static_cast<std::uint64_t>(p->size);
    if (cfg_.pfc_enabled) pfc_on_drain(p->sw_in, p->prio, p->size);
    // Serialization time must be read before the init-capture below moves
    // `p` (argument evaluation order is unspecified).
    const sim::Time ser = port.rate.is_zero()
                              ? sim::Time::zero()
                              : (port.rate * port.rate_factor).transfer_time(p->size);
    sim_.after(ser, [this, &port, p = std::move(p)]() mutable {
      const sim::Time jitter =
          cfg_.forward_jitter_max > sim::Time::zero()
              ? sim::Time::nanoseconds(rng_.uniform(0.0, cfg_.forward_jitter_max.ns()))
              : sim::Time::zero();
      // Jittered but FIFO: delivery times are non-decreasing per port, so
      // jitter never reorders packets (which would fake loss signals).
      sim::Time out = sim_.now() + cfg_.forward_latency + jitter;
      if (out < port.last_out) out = port.last_out;
      port.last_out = out;
      sim_.at(out + port.extra_delay, [&port, p = std::move(p)] { port.sink(p); });
      transmit_next(port);
    });
  }

  sim::Simulator& sim_;
  std::string name_;
  FabricSwitchConfig cfg_;
  sim::Rng rng_;
  std::uint64_t salt_;
  net::PacketPool pool_;
  std::vector<Port> ports_;
  std::vector<std::vector<int>> routes_;  // dst HostId -> equal-cost ports

  sim::Bytes occupancy_ = 0;
  sim::Bytes occupancy_peak_ = 0;
  std::uint64_t admitted_bytes_ = 0;
  std::uint64_t drained_bytes_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::uint64_t no_route_drops_ = 0;
  obs::ProfHandle prof_;

  // PFC (lossless mode).
  std::vector<Ingress> ingresses_;
  sim::Bytes headroom_total_ = 0;
  PauseLedger* ledger_ = nullptr;
  std::uint64_t pfc_xoffs_sent_ = 0;    // XOFFs this switch emitted upstream
  std::uint64_t pfc_xons_sent_ = 0;     // XONs this switch emitted upstream
  std::uint64_t pfc_xoffs_applied_ = 0;  // XOFFs applied to our egress ports
  std::uint64_t pfc_xons_applied_ = 0;
  std::uint64_t muted_xons_ = 0;
  std::uint64_t forced_pauses_ = 0;
};

}  // namespace hostcc::fabric
