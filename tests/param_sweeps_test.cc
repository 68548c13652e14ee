// Parameterized property sweeps over the engine primitives and the memory
// controller's proportional-share arbitration. The simulator-backed sweeps
// fan their configurations out through sim::SweepRunner — each point owns
// its Simulator, so they run on all cores with deterministic results.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <random>
#include <vector>

#include "host/config.h"
#include "host/memctrl.h"
#include "sim/ewma.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/sweep_runner.h"

namespace hostcc {
namespace {

// --- EWMA: step response matches the closed form for every weight -----

class EwmaWeightSweep : public ::testing::TestWithParam<double> {};

TEST_P(EwmaWeightSweep, StepResponseClosedForm) {
  const double w = GetParam();
  sim::Ewma e(w);
  e.add(0.0);
  for (int n = 1; n <= 64; ++n) {
    e.add(1.0);
    EXPECT_NEAR(e.value(), 1.0 - std::pow(1.0 - w, n), 1e-9);
  }
}

TEST_P(EwmaWeightSweep, LinearityUnderScaling) {
  const double w = GetParam();
  sim::Ewma a(w), b(w);
  std::mt19937_64 rng(42);
  for (int i = 0; i < 200; ++i) {
    const double x = static_cast<double>(rng() % 1000);
    a.add(x);
    b.add(3.5 * x);
    EXPECT_NEAR(b.value(), 3.5 * a.value(), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Weights, EwmaWeightSweep,
                         ::testing::Values(1.0 / 2, 1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 256));

// --- Histogram: percentile accuracy across distributions --------------

struct DistCase {
  const char* name;
  int kind;  // 0 uniform, 1 exponential-ish, 2 bimodal
};

// gtest writes the printed parameter into each listed test name; the
// default printer dumps raw bytes (a string address and struct padding),
// which would make the name differ from one build to the next.
void PrintTo(const DistCase& c, std::ostream* os) { *os << c.name; }

class HistogramDistSweep : public ::testing::TestWithParam<DistCase> {};

TEST_P(HistogramDistSweep, PercentilesWithinRelativeError) {
  const DistCase c = GetParam();
  std::mt19937_64 rng(7);
  sim::Histogram h;
  std::vector<std::int64_t> vals;
  for (int i = 0; i < 30000; ++i) {
    std::int64_t v = 0;
    switch (c.kind) {
      case 0:
        v = 1 + static_cast<std::int64_t>(rng() % 1'000'000);
        break;
      case 1: {
        std::exponential_distribution<double> d(1e-5);
        v = 1 + static_cast<std::int64_t>(d(rng));
        break;
      }
      default:
        v = (rng() % 2 == 0) ? 1000 + static_cast<std::int64_t>(rng() % 100)
                             : 50'000'000 + static_cast<std::int64_t>(rng() % 1000);
    }
    vals.push_back(v);
    h.record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (const double q : {0.25, 0.5, 0.9, 0.99}) {
    const auto exact = vals[static_cast<std::size_t>(q * (vals.size() - 1))];
    EXPECT_NEAR(static_cast<double>(h.percentile(q)), static_cast<double>(exact),
                0.05 * static_cast<double>(exact) + 2.0)
        << c.name << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Dists, HistogramDistSweep,
                         ::testing::Values(DistCase{"uniform", 0}, DistCase{"exp", 1},
                                           DistCase{"bimodal", 2}),
                         [](const auto& info) { return info.param.name; });

// --- Memory controller: share ratios track pressure ratios ------------

class TwoSourceShare : public host::MemSource {
 public:
  TwoSourceShare(double pressure) : pressure_(pressure) {}
  std::string name() const override { return "s"; }
  Offer mem_offer(sim::Time, sim::Time) override { return {1e9, pressure_}; }
  void mem_granted(sim::Time, double b) override { granted += b; }
  double granted = 0.0;

 private:
  double pressure_;
};

TEST(ShareRatioSweep, GrantRatioMatchesPressureRatio) {
  const std::vector<double> ratios = {0.25, 0.5, 1.0, 2.0, 7.0};
  std::vector<std::function<double()>> tasks;
  for (const double ratio : ratios) {
    tasks.emplace_back([ratio] {
      sim::Simulator sim;
      host::HostConfig cfg;
      host::MemoryController mc(sim, cfg);
      TwoSourceShare a(1000.0 * ratio), b(1000.0);
      mc.add_source(&a, false);
      mc.add_source(&b, false);
      sim.run_until(sim::Time::milliseconds(1));
      return a.granted / b.granted;
    });
  }
  const std::vector<double> got = sim::SweepRunner(0).run(std::move(tasks));
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    EXPECT_NEAR(got[i], ratios[i], 0.02 * ratios[i]) << "ratio=" << ratios[i];
  }
}

// --- Memory controller: capacity conservation under overload ----------

TEST(CapacitySweep, NeverGrantsMoreThanCapacity) {
  const std::vector<int> source_counts = {1, 2, 3, 5, 8};
  struct Point {
    double total = 0.0;
    double cap_bytes = 0.0;
  };
  std::vector<std::function<Point()>> tasks;
  for (const int nsources : source_counts) {
    tasks.emplace_back([nsources] {
      sim::Simulator sim;
      host::HostConfig cfg;
      host::MemoryController mc(sim, cfg);
      std::vector<std::unique_ptr<TwoSourceShare>> sources;
      for (int i = 0; i < nsources; ++i) {
        sources.push_back(std::make_unique<TwoSourceShare>(100.0 * (i + 1)));
        mc.add_source(sources.back().get(), i % 2 == 0);
      }
      const sim::Time horizon = sim::Time::milliseconds(2);
      sim.run_until(horizon);
      Point p;
      for (const auto& s : sources) p.total += s->granted;
      p.cap_bytes = cfg.dram_bandwidth.bytes_per_sec() * horizon.sec();
      return p;
    });
  }
  const std::vector<Point> got = sim::SweepRunner(0).run(std::move(tasks));
  for (std::size_t i = 0; i < source_counts.size(); ++i) {
    EXPECT_LE(got[i].total, got[i].cap_bytes * 1.001) << "sources=" << source_counts[i];
    // Fully utilized under overload.
    EXPECT_GT(got[i].total, got[i].cap_bytes * 0.98) << "sources=" << source_counts[i];
  }
}

}  // namespace
}  // namespace hostcc
