// Deterministic fault-injection plans. The paper's hostCC runs against real
// hardware that misbehaves: MSR reads stall, MBA MSR writes are serialized
// and slow (and can silently fail to latch), links flap, and the sampling
// kernel thread gets preempted. A FaultPlan is a declarative list of such
// events — each with a fixed start time, duration, and kind-specific
// parameter — parsed from CLI/scenario config and replayed by the
// FaultInjector. Identical seeds + identical plans produce byte-identical
// simulations (the determinism test covers fault runs).
//
// CLI/scenario spec grammar (times in microseconds):
//
//   <kind>@<start_us>+<duration_us>[:<param>][:<target>]
//
//   msr_stall@500+200:50     MSR reads take 50us extra during the window
//   msr_freeze@500+200       ROCC/RINS appear frozen at their last values
//   msr_torn@500+200:0.25    each MSR read corrupted with probability 0.25
//   mba_fail@500+200         MBA MSR writes complete but do not latch
//   mba_delay@500+200:8      MBA MSR writes take 8x the normal latency
//   link_down@500+100:1      uplink 1 loses carrier (frames queue, none sent)
//   link_degrade@500+200:0.25:1   uplink 1 serializes at 0.25x its rate
//   port_down@500+100:0      switch output port to host 0 stops transmitting
//   sampler_pause@500+200    the hostCC sampler thread is preempted
//   pause_storm@500+200:1:leaf0-spine0   force-XOFF priority 1 on the edge
//   pfc_mute@500+200:leaf0-spine0        XON deliveries dropped (lost resume)
//
// Fabric scenarios address links and ports by topology *edge name* instead
// of an index (a non-numeric target field):
//
//   link_down@500+100:h3-leaf0        the whole edge loses carrier
//   link_degrade@500+200:0.25:leaf0-spine1   every lane at 0.25x rate
//   port_down@500+100:leaf0-spine0    switch-side egress ports wedge
//
// A duration of 0 means "until the end of the run".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace hostcc::faults {

enum class FaultKind : std::uint8_t {
  kMsrStall,      // param: extra per-read latency (us)
  kMsrFreeze,     // ROCC/RINS reads return the values captured at onset
  kMsrTorn,       // param: per-read corruption probability
  kMbaWriteFail,  // MBA MSR writes complete but the level does not latch
  kMbaWriteDelay, // param: multiplier on the MBA MSR write latency
  kLinkDown,      // target: uplink index (0 = receiver, 1.. = senders)
  kLinkDegrade,   // param: rate factor in (0,1]; target: uplink index
  kPortDown,      // target: switch output port (destination host id)
  kSamplerPause,  // hostCC sampler preempted for the window
  kPauseStorm,    // param: PFC priority (default 0); target: edge name
  kPfcMute,       // target: edge name; XON deliveries dropped while active
};

inline const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kMsrStall: return "msr_stall";
    case FaultKind::kMsrFreeze: return "msr_freeze";
    case FaultKind::kMsrTorn: return "msr_torn";
    case FaultKind::kMbaWriteFail: return "mba_fail";
    case FaultKind::kMbaWriteDelay: return "mba_delay";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kPortDown: return "port_down";
    case FaultKind::kSamplerPause: return "sampler_pause";
    case FaultKind::kPauseStorm: return "pause_storm";
    case FaultKind::kPfcMute: return "pfc_mute";
  }
  return "?";
}

// Every kind, in enum order — parse_kind iterates it and error messages
// list it so an unknown-kind failure names what would have been accepted.
inline const std::vector<FaultKind>& all_fault_kinds() {
  static const std::vector<FaultKind> kinds = {
      FaultKind::kMsrStall,      FaultKind::kMsrFreeze, FaultKind::kMsrTorn,
      FaultKind::kMbaWriteFail,  FaultKind::kMbaWriteDelay, FaultKind::kLinkDown,
      FaultKind::kLinkDegrade,   FaultKind::kPortDown,  FaultKind::kSamplerPause,
      FaultKind::kPauseStorm,    FaultKind::kPfcMute};
  return kinds;
}

inline std::string fault_kind_list() {
  std::string out;
  for (FaultKind k : all_fault_kinds()) {
    if (!out.empty()) out += ", ";
    out += fault_kind_name(k);
  }
  return out;
}

struct FaultEvent {
  FaultKind kind = FaultKind::kMsrStall;
  sim::Time start;
  sim::Time duration;  // zero = until the end of the run
  double param = 0.0;  // kind-specific; 0 = use the kind's default
  int target = -1;     // link index / port id; -1 = kind's default
  // Fabric topologies address link/port faults by edge name ("h0-leaf0");
  // non-empty takes precedence over the numeric target.
  std::string target_edge;
  // The spec text this event was parsed from, and where that spec came
  // from ("--fault" or "<file>:<line>", stamped by the caller of add_spec),
  // so validation errors can name what to fix. Empty for events built in
  // code.
  std::string spec;
  std::string origin;

  sim::Time end() const { return duration > sim::Time::zero() ? start + duration : sim::Time::max(); }
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  // Seeds the torn-read corruption stream (independent of the host seed so
  // enabling faults does not perturb the fault-free random sequences).
  std::uint64_t seed = 0xfa017ULL;

  bool empty() const { return events.empty(); }

  // Parses one spec (grammar above) and appends it. Returns an error
  // message, or std::nullopt on success.
  std::optional<std::string> add_spec(const std::string& spec);

  // Sanity-checks every event; returns one message per problem.
  std::vector<std::string> validate() const;
};

namespace detail {

// Kinds whose first optional spec field is a parameter; for the rest a
// single trailing field is the target (e.g. link_down@500+100:2 = uplink 2).
inline bool kind_takes_param(FaultKind k) {
  return k == FaultKind::kMsrStall || k == FaultKind::kMsrTorn ||
         k == FaultKind::kMbaWriteDelay || k == FaultKind::kLinkDegrade ||
         k == FaultKind::kPauseStorm;
}

// Kinds whose target may be a topology edge name instead of an index.
inline bool kind_takes_edge(FaultKind k) {
  return k == FaultKind::kLinkDown || k == FaultKind::kLinkDegrade ||
         k == FaultKind::kPortDown || k == FaultKind::kPauseStorm || k == FaultKind::kPfcMute;
}

inline std::optional<FaultKind> parse_kind(const std::string& s) {
  for (FaultKind k : all_fault_kinds()) {
    if (s == fault_kind_name(k)) return k;
  }
  return std::nullopt;
}

}  // namespace detail

inline std::optional<std::string> FaultPlan::add_spec(const std::string& spec) {
  const auto fail = [&spec](const std::string& why) {
    return "bad fault spec '" + spec + "': " + why +
           " (expected <kind>@<start_us>+<dur_us>[:<param>][:<target>])";
  };
  const std::size_t at = spec.find('@');
  if (at == std::string::npos) return fail("missing '@'");
  const auto kind = detail::parse_kind(spec.substr(0, at));
  if (!kind) {
    return fail("unknown kind '" + spec.substr(0, at) + "' (valid kinds: " + fault_kind_list() +
                ")");
  }

  const std::size_t plus = spec.find('+', at + 1);
  if (plus == std::string::npos) return fail("missing '+<duration_us>'");

  FaultEvent ev;
  ev.kind = *kind;
  ev.spec = spec;
  // A field parses as a number only if it consumes entirely; anything else
  // is a topology edge name ("h0-leaf0").
  const auto as_number = [](const std::string& f) -> std::optional<double> {
    try {
      std::size_t used = 0;
      const double v = std::stod(f, &used);
      if (used == f.size()) return v;
    } catch (const std::exception&) {
    }
    return std::nullopt;
  };
  try {
    ev.start = sim::Time::microseconds(std::stod(spec.substr(at + 1, plus - at - 1)));
    std::size_t pos = plus + 1;
    std::size_t used = 0;
    ev.duration = sim::Time::microseconds(std::stod(spec.substr(pos), &used));
    pos += used;
    // The remaining ':'-separated fields: [:<param>][:<target>], where the
    // target is a numeric index or an edge name.
    std::vector<std::string> fields;
    while (pos < spec.size() && spec[pos] == ':') {
      const std::size_t next = spec.find(':', pos + 1);
      fields.push_back(spec.substr(pos + 1, next == std::string::npos ? next : next - pos - 1));
      pos = next == std::string::npos ? spec.size() : next;
    }
    if (pos != spec.size()) return fail("trailing characters");
    if (fields.size() > 2) return fail("too many ':' fields");
    if (fields.size() == 2) {
      const auto p = as_number(fields[0]);
      if (!p) return fail("param field '" + fields[0] + "' is not a number");
      ev.param = *p;
      if (const auto t = as_number(fields[1])) {
        ev.target = static_cast<int>(*t);
      } else if (detail::kind_takes_edge(ev.kind)) {
        ev.target_edge = fields[1];
      } else {
        return fail("target field '" + fields[1] + "' is not a number");
      }
    } else if (fields.size() == 1) {
      if (const auto v = as_number(fields[0])) {
        if (detail::kind_takes_param(ev.kind)) {
          ev.param = *v;
        } else {
          // Param-less kinds: a single trailing field is the target.
          ev.target = static_cast<int>(*v);
        }
      } else if (detail::kind_takes_edge(ev.kind)) {
        ev.target_edge = fields[0];
      } else {
        return fail("field '" + fields[0] + "' is not a number");
      }
    }
  } catch (const std::exception&) {
    return fail("malformed number");
  }
  events.push_back(ev);
  return std::nullopt;
}

inline std::vector<std::string> FaultPlan::validate() const {
  std::vector<std::string> errs;
  for (const FaultEvent& ev : events) {
    const std::string who = std::string("fault ") + fault_kind_name(ev.kind);
    if (ev.start < sim::Time::zero()) errs.push_back(who + ": start must be >= 0");
    if (ev.duration < sim::Time::zero()) errs.push_back(who + ": duration must be >= 0");
    switch (ev.kind) {
      case FaultKind::kMsrTorn:
        if (ev.param < 0.0 || ev.param > 1.0)
          errs.push_back(who + ": corruption probability must be in [0,1]");
        break;
      case FaultKind::kLinkDegrade:
        if (ev.param < 0.0 || ev.param > 1.0)
          errs.push_back(who + ": rate factor must be in (0,1] (0 = default)");
        break;
      case FaultKind::kMsrStall:
      case FaultKind::kMbaWriteDelay:
        if (ev.param < 0.0) errs.push_back(who + ": parameter must be >= 0");
        break;
      case FaultKind::kPauseStorm:
        if (ev.param < 0.0 || ev.param >= 8.0)
          errs.push_back(who + ": PFC priority must be a small non-negative class index");
        break;
      case FaultKind::kPfcMute:
        if (ev.target_edge.empty())
          errs.push_back(who + ": requires a topology edge name target");
        break;
      default:
        break;
    }
    if (!ev.target_edge.empty() && !detail::kind_takes_edge(ev.kind)) {
      errs.push_back(who + ": edge-name target '" + ev.target_edge +
                     "' only applies to link_down/link_degrade/port_down/pause_storm/pfc_mute");
    }
  }
  return errs;
}

}  // namespace hostcc::faults
