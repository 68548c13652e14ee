// google-benchmark microbenchmarks for the simulation engine's hot paths:
// event queue churn, EWMA updates, histogram recording/percentiles, the
// memory-controller water-fill quantum, and the observability layer's
// disabled-path overhead on the host datapath.
#include <benchmark/benchmark.h>

#include <memory>

#include "exp/fabric_scenario.h"
#include "exp/scenario.h"
#include "host/config.h"
#include "host/host.h"
#include "host/memctrl.h"
#include "net/packet.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/ewma.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace {

using namespace hostcc;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t t = 0;
  int sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(sim::Time::picoseconds(t + (i * 37) % 1000), [&sink] { ++sink; });
    }
    while (!q.empty()) {
      auto [when, fn] = q.pop();
      benchmark::DoNotOptimize(when);
      fn();
    }
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_EventCancellation(benchmark::State& state) {
  sim::EventQueue q;
  for (auto _ : state) {
    std::vector<sim::EventHandle> handles;
    handles.reserve(64);
    for (int i = 0; i < 64; ++i) {
      handles.push_back(q.push(sim::Time::nanoseconds(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    benchmark::DoNotOptimize(q.empty());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventCancellation);

// The datapath's characteristic event: a lambda carrying a pooled packet
// handle (packets ride through the event core as 8-byte PacketRefs, never
// by value). Must stay within the event pool's inline storage.
void BM_EventQueuePushPopRefCapture(benchmark::State& state) {
  sim::EventQueue q;
  net::PacketPool pool;
  net::PacketRef pkt = pool.make();
  pkt->payload = 4030;
  std::int64_t t = 0;
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(sim::Time::picoseconds(t + (i * 37) % 1000), [&sink, pkt] { sink += pkt->payload; });
    }
    while (!q.empty()) {
      auto [when, fn] = q.pop();
      benchmark::DoNotOptimize(when);
      fn();
    }
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPopRefCapture);

void BM_SimulatorTimerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 256; ++i) {
      sim.after(sim::Time::nanoseconds(i * 3), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SimulatorTimerChurn);

void BM_EwmaAdd(benchmark::State& state) {
  sim::Ewma e(1.0 / 8.0);
  double v = 0.0;
  for (auto _ : state) {
    e.add(v);
    v += 1.25;
    benchmark::DoNotOptimize(e.value());
  }
}
BENCHMARK(BM_EwmaAdd);

void BM_HistogramRecord(benchmark::State& state) {
  sim::Histogram h;
  std::int64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 1103515245 + 12345) & 0xFFFFFFF;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  sim::Histogram h;
  for (std::int64_t i = 1; i < 100000; ++i) h.record(i * 7919 % 1000000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.percentile(0.99));
  }
}
BENCHMARK(BM_HistogramPercentile);

class ConstantSource : public host::MemSource {
 public:
  explicit ConstantSource(double demand) : demand_(demand) {}
  std::string name() const override { return "bench"; }
  Offer mem_offer(sim::Time, sim::Time) override { return {demand_, demand_}; }
  void mem_granted(sim::Time, double) override {}

 private:
  double demand_;
};

void BM_MemControllerQuantum(benchmark::State& state) {
  sim::Simulator sim;
  host::HostConfig cfg;
  host::MemoryController mc(sim, cfg);
  ConstantSource a(4000), b(8000), c(2000), d(1000);
  mc.add_source(&a, true);
  mc.add_source(&b, false);
  mc.add_source(&c, true);
  mc.add_source(&d, false);
  sim::Time horizon = sim.now();
  for (auto _ : state) {
    horizon += cfg.mc_quantum;
    sim.run_until(horizon);  // executes exactly one scheduling quantum
    benchmark::DoNotOptimize(mc.utilization());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemControllerQuantum);

// The memory-controller quantum of an idle host: the per-host lane of
// every full HostModel with nothing to do (in a 64-host incast, ~96% of
// all quanta). A short burst loads the controller's EWMAs; each iteration
// then times 10 ms (100k quanta) of idle simulated time. The lane sleeps
// after a few idle quanta and its decays are replayed on the next read,
// so the window ends with one read: the deferred decay is timed too. The
// zero-sample decays pass the subnormal range and reach 0 after ~36k
// quanta; the rest are settled quanta, as in a sender that stays idle.
// items/sec is idle quanta per second, gated against
// BM_MemControllerQuantum.
void BM_MemControllerIdleQuantum(benchmark::State& state) {
  struct BurstHost {
    sim::Simulator sim;
    host::HostModel host{sim, host::HostConfig{}, "idle"};
    net::PacketPool pool;
  };
  const sim::Time idle = sim::Time::milliseconds(10);
  const auto quanta = static_cast<std::int64_t>(idle / host::HostConfig{}.mc_quantum);
  std::unique_ptr<BurstHost> h;
  for (auto _ : state) {
    state.PauseTiming();
    h = std::make_unique<BurstHost>();
    h->host.set_stack_rx([](net::Packet&) {});
    for (int i = 0; i < 16; ++i) {
      net::PacketRef p = h->pool.make();
      p->flow = 5 + static_cast<net::FlowId>(i % 4);
      p->payload = 4030;
      p->size = p->payload + net::kHeaderBytes;
      h->sim.after(sim::Time::nanoseconds(410) * i,
                   [&host = h->host, p = std::move(p)]() mutable {
                     host.receive_from_wire(std::move(p));
                   });
    }
    h->sim.run_until(sim::Time::microseconds(50));
    if (!h->host.pipeline_empty()) {
      state.SkipWithError("burst did not drain");
      return;
    }
    state.ResumeTiming();
    h->sim.run_until(h->sim.now() + idle);
    benchmark::DoNotOptimize(h->host.memctrl().utilization());
  }
  state.SetItemsProcessed(state.iterations() * quanta);
}
BENCHMARK(BM_MemControllerIdleQuantum);

// Observability overhead: push a batch of packets through the full host
// datapath (NIC -> PCIe -> IIO -> memory -> CPU) under three tracer
// configurations. The acceptance bar is <2% events/sec regression for
// "attached but disabled" vs. "no tracer" — the disabled fast path is one
// branch per hook.
//   /0: no tracer attached
//   /1: tracer attached, disabled (the production configuration)
//   /2: tracer attached, enabled
void BM_HostDatapathTracer(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  constexpr int kPackets = 2000;
  constexpr sim::Bytes kPayload = 4030;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    host::HostModel host(sim, host::HostConfig{}, "bench");
    host.set_stack_rx([](net::Packet) {});
    obs::PacketTracer tracer("bench");
    if (mode >= 1) {
      tracer.set_enabled(mode == 2);
      host.set_tracer(&tracer);
    }
    // Pace arrivals at ~80Gbps, spread over four flows (CPU processing is
    // per-flow serialized) so the NIC never overflows, every packet
    // completes, and every mode does identical datapath work.
    const sim::Time gap = sim::Time::nanoseconds(410);
    net::PacketPool pool;
    for (int i = 0; i < kPackets; ++i) {
      net::PacketRef p = pool.make();
      p->id = static_cast<std::uint64_t>(i) + 1;
      p->flow = 5 + static_cast<net::FlowId>(i % 4);
      p->dst = 0;
      p->payload = kPayload;
      p->size = kPayload + net::kHeaderBytes;
      sim.after(gap * i, [&host, p = std::move(p)]() mutable {
        host.receive_from_wire(std::move(p));
      });
    }
    // The host's periodic timers never drain the queue; run a fixed sim
    // horizon comfortably past the last arrival instead.
    sim.run_until(sim::Time::milliseconds(2));
    events += sim.events_executed();
    if (mode == 2 && tracer.packets_completed() != kPackets) {
      state.SkipWithError("trace incomplete");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_HostDatapathTracer)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// The PR-level headline metric: wall-clock packet throughput of a warm
// end-to-end scenario (sender transport -> wire -> switch -> receiver NIC
// -> PCIe -> IIO -> MC -> CPU -> transport, ACKs clocking back). Setup and
// warmup run outside the timed region; each iteration advances the warm
// simulation by a fixed slice, so items/sec is delivered packets per
// second of wall time.
//   /0: plain datapath
//   /1: hostCC enabled with contending MApp (sampler + MBA active)
void BM_ScenarioPacketsPerSecond(benchmark::State& state) {
  exp::ScenarioConfig cfg;
  cfg.warmup = sim::Time::milliseconds(20);
  cfg.measure = sim::Time::milliseconds(5);
  if (state.range(0) == 1) {
    cfg.hostcc_enabled = true;
    cfg.mapp_degree = 2.0;
  }
  exp::Scenario s(std::move(cfg));
  s.run_warmup();
  s.run_for(sim::Time::milliseconds(5));  // settle past slow start's tail
  std::uint64_t pkts = 0;
  for (auto _ : state) {
    const std::uint64_t before = s.receiver().nic().stats().arrived_pkts;
    s.run_for(sim::Time::milliseconds(1));
    pkts += s.receiver().nic().stats().arrived_pkts - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pkts));
}
BENCHMARK(BM_ScenarioPacketsPerSecond)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Self-profiler overhead on the same warm end-to-end scenario. The
// acceptance bar (enforced by tools/bench_json.py's ratio gate) is <=1%
// items/sec regression for "attached but disabled" vs. "detached" — the
// disabled fast path resolves to a null handle at ProfScope construction,
// one predictable branch per instrumented hot path.
//   /0: profiler detached (no handles wired)
//   /1: profiler attached to every component, disabled (production config)
//   /2: profiler attached and enabled (collection on)
void BM_ScenarioProfilerOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  exp::ScenarioConfig cfg;
  cfg.warmup = sim::Time::milliseconds(20);
  cfg.measure = sim::Time::milliseconds(5);
  exp::Scenario s(std::move(cfg));
  if (mode >= 1) s.attach_profiler(mode == 2);
  s.run_warmup();
  s.run_for(sim::Time::milliseconds(5));  // settle past slow start's tail
  std::uint64_t pkts = 0;
  for (auto _ : state) {
    const std::uint64_t before = s.receiver().nic().stats().arrived_pkts;
    s.run_for(sim::Time::milliseconds(1));
    pkts += s.receiver().nic().stats().arrived_pkts - before;
  }
  if (mode == 2) {
    std::uint64_t scopes = 0;
    for (const auto& t : s.profiler().tags()) scopes += t.scopes;
    if (scopes == 0) {
      state.SkipWithError("profiler collected nothing");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pkts));
}
BENCHMARK(BM_ScenarioProfilerOverhead)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// Rack-scale headline: wall-clock packet throughput of a warm multi-switch
// fabric run (N full HostModels incasting through a shared-buffer fabric
// with ECMP). Arg = participating hosts; up to 16 the topology stays
// leaf-spine:4x4 (fixed switch count, scaling fan-in); 32 and 64 hosts run
// on leaf-spine:8x8 so the tail args also scale the switch count. items/sec
// is packets arriving at the incast destination's NIC per second of wall
// time.
void BM_FabricHostScaling(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  exp::FabricScenarioConfig cfg;
  cfg.topology = hosts <= 16 ? "leaf-spine:4x4" : "leaf-spine:8x8";
  cfg.hosts = hosts;
  cfg.mapp_degree = 0.0;
  cfg.warmup = sim::Time::milliseconds(5);
  cfg.measure = sim::Time::milliseconds(2);
  exp::FabricScenario s(std::move(cfg));
  s.run_warmup();
  s.run_for(sim::Time::milliseconds(5));  // settle past slow start's tail
  std::uint64_t pkts = 0;
  for (auto _ : state) {
    const std::uint64_t before = s.host(0).nic().stats().arrived_pkts;
    s.run_for(sim::Time::milliseconds(1));
    pkts += s.host(0).nic().stats().arrived_pkts - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pkts));
}
BENCHMARK(BM_FabricHostScaling)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Sharded-engine scaling: the same warm fat-tree incast executed by the
// conservative-lookahead ShardedSimulator on 1..N worker threads (args:
// hosts, shards; shards=1 is the single-worker baseline the speedup is
// measured against). The partition is a pure function of the topology, so
// every arg pair produces byte-identical simulation results — only the
// wall clock moves. items/sec counts packets arriving at the
// incast destination per second of wall time, the same figure of merit as
// BM_FabricHostScaling.
void BM_FabricShardScaling(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  exp::FabricScenarioConfig cfg;
  cfg.topology = hosts <= 16 ? "fat-tree:4" : "fat-tree:8";
  cfg.hosts = hosts;
  cfg.shards = static_cast<int>(state.range(1));
  cfg.mapp_degree = 0.0;
  cfg.warmup = sim::Time::milliseconds(5);
  cfg.measure = sim::Time::milliseconds(2);
  exp::FabricScenario s(std::move(cfg));
  s.run_warmup();
  s.run_for(sim::Time::milliseconds(5));  // settle past slow start's tail
  std::uint64_t pkts = 0;
  for (auto _ : state) {
    const std::uint64_t before = s.host(0).nic().stats().arrived_pkts;
    s.run_for(sim::Time::milliseconds(1));
    pkts += s.host(0).nic().stats().arrived_pkts - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pkts));
}
// UseRealTime matters: with workers, the main thread blocks at epoch
// barriers while peers simulate, so its CPU time (benchmark's default
// items/sec denominator) undercounts by ~1/workers and fakes a speedup.
BENCHMARK(BM_FabricShardScaling)
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Hybrid-fidelity scaling: the same warm incast with the host tier under
// --fidelity control (args: hosts, fidelity; 0 = all-full baseline, 1 =
// auto — senders flow-level analytic, the victim pinned to the full
// packet-level tier). The victim's datapath is bit-for-bit the full model
// in both modes, so items/sec (victim NIC arrivals per wall second) is
// directly comparable; the hybrid rows show how much larger a fabric one
// core sustains when only congested hosts pay packet-level prices.
void BM_HybridFidelityScaling(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const bool hybrid = state.range(1) != 0;
  exp::FabricScenarioConfig cfg;
  cfg.topology = hosts <= 64 ? "leaf-spine:8x8" : "leaf-spine:16x40";
  cfg.hosts = hosts;
  cfg.fidelity = hybrid ? exp::HostFidelity::kAuto : exp::HostFidelity::kFull;
  cfg.mapp_degree = 0.0;
  cfg.warmup = sim::Time::milliseconds(5);
  exp::FabricScenario s(std::move(cfg));
  s.run_warmup();
  s.run_for(sim::Time::milliseconds(5));  // settle past slow start's tail
  std::uint64_t pkts = 0;
  for (auto _ : state) {
    const std::uint64_t before = s.slot(0).arrived_pkts();
    s.run_for(sim::Time::milliseconds(1));
    pkts += s.slot(0).arrived_pkts() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pkts));
}
BENCHMARK(BM_HybridFidelityScaling)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({640, 1})
    ->Unit(benchmark::kMillisecond);

// Workload-engine churn throughput: a warm open-loop Poisson churn
// (fixed-size messages through the pooled stacks — endpoint opens are
// free-list rebinds, closes park the node) on a small leaf-spine fabric.
// items/sec counts completed flow episodes per second of wall time: the
// figure of merit for connection-churn capacity (arg: offered load as a
// percentage of host bisection bandwidth).
void BM_WorkloadChurn(benchmark::State& state) {
  exp::FabricScenarioConfig cfg;
  cfg.topology = "leaf-spine:2x2";
  cfg.warmup = sim::Time::milliseconds(5);
  cfg.workload.enabled = true;
  cfg.workload.load = static_cast<double>(state.range(0)) / 100.0;
  cfg.workload.size_dist = "fixed:16384";
  cfg.workload.slots_per_pair = 16;
  cfg.workload.reuse_cooldown = sim::Time::microseconds(50);
  exp::FabricScenario s(std::move(cfg));
  s.run_warmup();
  s.run_for(sim::Time::milliseconds(5));  // settle: pools at high water
  const auto completed = [&s] {
    std::uint64_t n = 0;
    for (int i = 0; s.host_workload(i) != nullptr; ++i) {
      n += s.host_workload(i)->flows_completed();
    }
    return n;
  };
  std::uint64_t flows = 0;
  for (auto _ : state) {
    const std::uint64_t before = completed();
    s.run_for(sim::Time::milliseconds(1));
    flows += completed() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_WorkloadChurn)->Arg(30)->Arg(70)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
