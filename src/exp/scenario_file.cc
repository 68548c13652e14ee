#include "exp/scenario_file.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace hostcc::exp {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// Accumulates the file's problems; one entry per line that failed.
struct Errors {
  std::vector<std::string> list;
  void add(int line, const std::string& msg) {
    list.push_back("line " + std::to_string(line) + ": " + msg);
  }
};

constexpr const char* kFabricKeys =
    "topology, hosts, shards, pattern, seed, cc, mtu, hostcc, bt_gbps, it, "
    "degree, congested_hosts, lossless, storm_breaker, fidelity, warmup_ms, "
    "measure_ms, check_invariants, flows_per_pair, flow_bytes, "
    "fabric_buffer_kib, promote_threshold, messages_per_flow, ddio, "
    "iommu_miss_rate, fault";
constexpr const char* kWorkloadKeys =
    "arrival, load, size_cdf, slots_per_pair, reuse_cooldown_us, seed, "
    "burst_factor, burst_on_us, burst_off_us, profile, prewarm";
constexpr const char* kRpcKeys = "enabled, fanout, response_bytes, rate_hz";

// Piecewise profile: "off_us:mult[,off_us:mult...]". Ordering and value
// ranges are checked later by workload::validate.
bool parse_profile(const std::string& s,
                   std::vector<std::pair<sim::Time, double>>& out) {
  out.clear();
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, ',')) {
    part = trim(part);
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos) return false;
    double off_us = 0.0, mult = 0.0;
    if (!parse_double(trim(part.substr(0, colon)), off_us) ||
        !parse_double(trim(part.substr(colon + 1)), mult)) {
      return false;
    }
    out.emplace_back(sim::Time::microseconds(off_us), mult);
  }
  return !out.empty();
}

void apply_workload_key(FabricScenarioConfig& cfg, const std::string& key,
                        const std::string& val, int line, Errors& errs) {
  workload::WorkloadConfig& w = cfg.workload;
  const auto bad = [&](const char* want) {
    errs.add(line, "workload." + key + ": expected " + want + ", got '" + val + "'");
  };
  double d = 0.0;
  long long n = 0;
  std::uint64_t u = 0;
  bool b = false;
  if (key == "arrival") {
    if (!workload::parse_arrival_kind(val, w.arrival)) bad("poisson | mmpp");
  } else if (key == "load") {
    parse_double(val, d) ? void(w.load = d) : bad("a load fraction");
  } else if (key == "size_cdf") {
    w.size_dist = val;
  } else if (key == "slots_per_pair") {
    parse_i64(val, n) ? void(w.slots_per_pair = static_cast<int>(n)) : bad("an integer");
  } else if (key == "reuse_cooldown_us") {
    parse_double(val, d) ? void(w.reuse_cooldown = sim::Time::microseconds(d))
                         : bad("microseconds");
  } else if (key == "seed") {
    parse_u64(val, u) ? void(w.seed = u) : bad("an unsigned integer");
  } else if (key == "burst_factor") {
    parse_double(val, d) ? void(w.burst_factor = d) : bad("a number");
  } else if (key == "burst_on_us") {
    parse_double(val, d) ? void(w.burst_on = sim::Time::microseconds(d)) : bad("microseconds");
  } else if (key == "burst_off_us") {
    parse_double(val, d) ? void(w.burst_off = sim::Time::microseconds(d)) : bad("microseconds");
  } else if (key == "profile") {
    if (!parse_profile(val, w.profile)) bad("off_us:mult[,off_us:mult...]");
  } else if (key == "prewarm") {
    parse_bool(val, b) ? void(w.prewarm_pools = b) : bad("a boolean");
  } else {
    errs.add(line, "unknown key '" + key + "' in [workload] (valid keys: " +
                       std::string(kWorkloadKeys) + ")");
  }
}

void apply_rpc_key(FabricScenarioConfig& cfg, const std::string& key, const std::string& val,
                   int line, Errors& errs) {
  workload::RpcTreeConfig& r = cfg.workload.rpc;
  const auto bad = [&](const char* want) {
    errs.add(line, "rpc." + key + ": expected " + want + ", got '" + val + "'");
  };
  double d = 0.0;
  long long n = 0;
  bool b = false;
  if (key == "enabled") {
    parse_bool(val, b) ? void(r.enabled = b) : bad("a boolean");
  } else if (key == "fanout") {
    parse_i64(val, n) ? void(r.fanout = static_cast<int>(n)) : bad("an integer");
  } else if (key == "response_bytes") {
    parse_i64(val, n) ? void(r.response_bytes = n) : bad("bytes");
  } else if (key == "rate_hz") {
    parse_double(val, d) ? void(r.rate_hz = d) : bad("a rate");
  } else {
    errs.add(line, "unknown key '" + key + "' in [rpc] (valid keys: " +
                       std::string(kRpcKeys) + ")");
  }
}

}  // namespace

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool parse_i64(const std::string& s, long long& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoll(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

bool parse_bool(const std::string& s, bool& out) {
  if (s == "true" || s == "on" || s == "1") {
    out = true;
    return true;
  }
  if (s == "false" || s == "off" || s == "0") {
    out = false;
    return true;
  }
  return false;
}

std::optional<std::string> set_fabric_key(FabricScenarioConfig& cfg, const std::string& key,
                                          const std::string& val) {
  std::optional<std::string> err;
  const auto bad = [&](const char* want) {
    err = "fabric." + key + ": expected " + want + ", got '" + val + "'";
  };
  double d = 0.0;
  long long n = 0;
  std::uint64_t u = 0;
  bool b = false;
  if (key == "topology") {
    cfg.topology = val;
  } else if (key == "hosts") {
    parse_i64(val, n) ? void(cfg.hosts = static_cast<int>(n)) : bad("an integer");
  } else if (key == "shards") {
    parse_i64(val, n) ? void(cfg.shards = static_cast<int>(n)) : bad("an integer");
  } else if (key == "pattern") {
    if (val == "incast") {
      cfg.traffic = FabricTraffic::kIncast;
    } else if (val == "all-to-all") {
      cfg.traffic = FabricTraffic::kAllToAll;
    } else {
      bad("incast | all-to-all");
    }
  } else if (key == "seed") {
    parse_u64(val, u) ? void(cfg.host.seed = u) : bad("an unsigned integer");
  } else if (key == "cc") {
    if (!transport::parse_cc_kind(val, cfg.transport.cc)) bad("dctcp | reno | swift | dcqcn");
  } else if (key == "mtu") {
    parse_i64(val, n) ? void(cfg.transport.mtu = n) : bad("bytes");
  } else if (key == "hostcc") {
    parse_bool(val, b) ? void(cfg.hostcc_enabled = b) : bad("a boolean");
  } else if (key == "bt_gbps") {
    parse_double(val, d) ? void(cfg.hostcc.target_bandwidth = sim::Bandwidth::gbps(d))
                         : bad("a number");
  } else if (key == "it") {
    parse_double(val, d) ? void(cfg.hostcc.iio_threshold = d) : bad("a number");
  } else if (key == "degree") {
    parse_double(val, d) ? void(cfg.mapp_degree = d) : bad("a number");
  } else if (key == "congested_hosts") {
    parse_i64(val, n) ? void(cfg.congested_hosts = static_cast<int>(n)) : bad("an integer");
  } else if (key == "lossless") {
    parse_bool(val, b) ? void(cfg.lossless = b) : bad("a boolean");
  } else if (key == "storm_breaker") {
    parse_bool(val, b) ? void(cfg.storm_breaker = b) : bad("a boolean");
  } else if (key == "fidelity") {
    if (val == "full") {
      cfg.fidelity = HostFidelity::kFull;
    } else if (val == "analytic") {
      cfg.fidelity = HostFidelity::kAnalytic;
    } else if (val == "auto") {
      cfg.fidelity = HostFidelity::kAuto;
    } else {
      bad("full | analytic | auto");
    }
  } else if (key == "warmup_ms") {
    parse_double(val, d) ? void(cfg.warmup = sim::Time::milliseconds(d)) : bad("milliseconds");
  } else if (key == "measure_ms") {
    parse_double(val, d) ? void(cfg.measure = sim::Time::milliseconds(d)) : bad("milliseconds");
  } else if (key == "check_invariants") {
    parse_bool(val, b) ? void(cfg.check_invariants = b) : bad("a boolean");
  } else if (key == "flows_per_pair") {
    parse_i64(val, n) ? void(cfg.flows_per_pair = static_cast<int>(n)) : bad("an integer");
  } else if (key == "flow_bytes") {
    if (parse_i64(val, n)) {
      cfg.flow_bytes = n;
      if (n > 0) cfg.record_flow_stats = true;
    } else {
      bad("bytes");
    }
  } else if (key == "fabric_buffer_kib") {
    parse_i64(val, n) ? void(cfg.fabric.buffer_bytes = n * sim::kKiB) : bad("KiB");
  } else if (key == "promote_threshold") {
    parse_i64(val, n) ? void(cfg.promote_threshold = n) : bad("bytes");
  } else if (key == "messages_per_flow") {
    parse_u64(val, u) ? void(cfg.messages_per_flow = u) : bad("an unsigned integer");
  } else if (key == "ddio") {
    if (parse_bool(val, b)) {
      cfg.host.ddio_enabled = b;
      if (b) cfg.hostcc.iio_threshold = 50.0;  // §5.2's I_T for DDIO; a later `it` overrides
    } else {
      bad("a boolean");
    }
  } else if (key == "iommu_miss_rate") {
    if (parse_double(val, d)) {
      cfg.host.iommu_enabled = true;
      cfg.host.iotlb_miss_rate = d;
    } else {
      bad("an IOTLB miss rate");
    }
  } else if (key == "fault") {
    if (auto e = cfg.faults.add_spec(val)) err = "fabric.fault: " + *e;
  } else {
    err = "unknown key '" + key + "' in [fabric] (valid keys: " + std::string(kFabricKeys) + ")";
  }
  return err;
}

FabricScenarioConfig parse_scenario_text(const std::string& text, const std::string& origin) {
  FabricScenarioConfig cfg;
  Errors errs;
  enum class Section { kNone, kFabric, kWorkload, kRpc };
  Section section = Section::kNone;

  std::stringstream ss(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(ss, raw)) {
    ++lineno;
    // Strip comments before splitting so trailing "# ..." never reaches a
    // value. Fault specs and CDF paths contain no '#'.
    if (const std::size_t hash = raw.find('#'); hash != std::string::npos) {
      raw = raw.substr(0, hash);
    }
    const std::string line = trim(raw);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        errs.add(lineno, "malformed section header '" + line + "'");
        continue;
      }
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name == "fabric") {
        section = Section::kFabric;
      } else if (name == "workload") {
        section = Section::kWorkload;
        // Presence alone opts into the workload engine; every key refines it.
        cfg.workload.enabled = true;
      } else if (name == "rpc") {
        section = Section::kRpc;
        cfg.workload.rpc.enabled = true;
      } else {
        errs.add(lineno, "unknown section [" + name +
                             "] (valid sections: fabric, workload, rpc)");
        section = Section::kNone;
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      errs.add(lineno, "expected 'key = value', got '" + line + "'");
      continue;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (key.empty()) {
      errs.add(lineno, "empty key before '='");
      continue;
    }
    switch (section) {
      case Section::kNone:
        errs.add(lineno, "key '" + key +
                             "' before any section header (start with [fabric], "
                             "[workload], or [rpc])");
        break;
      case Section::kFabric:
        if (auto err = set_fabric_key(cfg, key, val)) {
          errs.add(lineno, *err);
        } else if (key == "fault") {
          cfg.faults.events.back().origin = origin + ":" + std::to_string(lineno);
        }
        break;
      case Section::kWorkload:
        apply_workload_key(cfg, key, val, lineno, errs);
        break;
      case Section::kRpc:
        apply_rpc_key(cfg, key, val, lineno, errs);
        break;
    }
  }

  if (!errs.list.empty()) {
    std::string joined = "invalid scenario file " + origin + ":";
    for (const std::string& e : errs.list) joined += "\n  - " + e;
    throw std::invalid_argument(joined);
  }
  return cfg;
}

FabricScenarioConfig load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("invalid scenario file " + path + ":\n  - cannot open file");
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return parse_scenario_text(buf.str(), path);
}

}  // namespace hostcc::exp
