// Unit + property tests for the measurement primitives (histogram, EWMA,
// interval meter, time series).
#include "sim/ewma.h"
#include "sim/stats.h"
#include "sim/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <sstream>

namespace hostcc::sim {
namespace {

TEST(HistogramTest, ExactForSmallValues) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(i);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 9);
  EXPECT_DOUBLE_EQ(h.mean(), 4.5);
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(1.0), 9);
}

TEST(HistogramTest, PercentileBoundedRelativeError) {
  Histogram h;
  std::mt19937_64 rng(7);
  std::vector<std::int64_t> vals;
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t v = 1 + (rng() % 10'000'000);
    vals.push_back(v);
    h.record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto exact = vals[static_cast<std::size_t>(q * (vals.size() - 1))];
    const auto approx = h.percentile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.05 * static_cast<double>(exact))
        << "q=" << q;
  }
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
}

TEST(HistogramTest, UnderflowCountTracksNegativeInputs) {
  Histogram h;
  EXPECT_EQ(h.underflow_count(), 0u);
  h.record(-1);
  h.record(-100);
  h.record(7);
  EXPECT_EQ(h.underflow_count(), 2u);
  EXPECT_EQ(h.count(), 3u);  // clamped samples still count
  h.reset();
  EXPECT_EQ(h.underflow_count(), 0u);
}

TEST(HistogramTest, MergeAddsUnderflows) {
  Histogram a, b;
  a.record(-1);
  b.record(-2);
  b.record(-3);
  a.merge(b);
  EXPECT_EQ(a.underflow_count(), 3u);
}

TEST(HistogramTest, EmptyPercentilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.percentile(1.0), 0);
}

TEST(HistogramTest, SingleSampleAllPercentilesAgree) {
  Histogram h;
  h.record(12345);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    const auto v = h.percentile(q);
    // One sample: every quantile is that sample (within bucket resolution).
    EXPECT_NEAR(static_cast<double>(v), 12345.0, 0.05 * 12345.0) << "q=" << q;
  }
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram a, empty;
  for (int i = 1; i <= 100; ++i) a.record(i);
  const auto count = a.count();
  const auto p50 = a.percentile(0.5);
  a.merge(empty);
  EXPECT_EQ(a.count(), count);
  EXPECT_EQ(a.percentile(0.5), p50);

  Histogram b;
  b.merge(a);  // empty.merge(nonempty) adopts the other's contents
  EXPECT_EQ(b.count(), count);
  EXPECT_EQ(b.min(), a.min());
  EXPECT_EQ(b.max(), a.max());
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  Histogram a, b, both;
  for (int i = 1; i < 1000; i += 2) {
    a.record(i);
    both.record(i);
  }
  for (int i = 2; i < 1000; i += 2) {
    b.record(i);
    both.record(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_EQ(a.percentile(0.5), both.percentile(0.5));
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.99), 0);
}

TEST(HistogramTest, PercentileMonotoneInQ) {
  Histogram h;
  std::mt19937_64 rng(3);
  for (int i = 0; i < 5000; ++i) h.record(static_cast<std::int64_t>(rng() % 1000000));
  std::int64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const auto v = h.percentile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(EwmaTest, SeedsWithFirstSample) {
  Ewma e(0.125);
  e.add(40.0);
  EXPECT_DOUBLE_EQ(e.value(), 40.0);
}

TEST(EwmaTest, ConvergesToConstantInput) {
  Ewma e(1.0 / 8.0);
  e.add(0.0);
  for (int i = 0; i < 200; ++i) e.add(100.0);
  EXPECT_NEAR(e.value(), 100.0, 1e-6);
}

TEST(EwmaTest, StepResponseMatchesClosedForm) {
  const double w = 1.0 / 16.0;
  Ewma e(w);
  e.add(0.0);
  for (int i = 0; i < 32; ++i) e.add(1.0);
  const double expected = 1.0 - std::pow(1.0 - w, 32);
  EXPECT_NEAR(e.value(), expected, 1e-12);
}

TEST(EwmaTest, ZeroSampleDecayFlushesInsteadOfGoingSubnormal) {
  for (const double w : {0.02, 0.05, 0.125, 0.5}) {
    Ewma e(w);
    e.add(4.4e10);
    int steps = 0;
    while (e.value() != 0.0) {
      e.add(0.0);
      ASSERT_NE(std::fpclassify(e.value()), FP_SUBNORMAL) << "w=" << w << " step=" << steps;
      ASSERT_LT(++steps, 1'000'000) << "w=" << w << ": decay never reached 0";
    }
    EXPECT_EQ(e.value(), 0.0);
    EXPECT_FALSE(std::signbit(e.value()));
    e.add(0.0);
    EXPECT_EQ(e.value(), 0.0);
  }
}

TEST(EwmaTest, NonZeroSamplesMatchInlineUpdateBitForBit) {
  const double w = 0.02;
  Ewma e(w);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> d(1e-300, 1e12);
  double v = 3.0;
  e.add(v);
  for (int i = 0; i < 10000; ++i) {
    // Tiny samples too: only a zero sample may flush.
    const double x = i % 7 == 0 ? 1e-310 : d(rng);
    v += w * (x - v);
    e.add(x);
    ASSERT_EQ(e.value(), v) << "i=" << i;
  }
}

TEST(EwmaTest, StaysWithinInputRange) {
  Ewma e(0.3);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    e.add(static_cast<double>(rng() % 100));
    EXPECT_GE(e.value(), 0.0);
    EXPECT_LE(e.value(), 99.0);
  }
}

TEST(IntervalMeterTest, CheckpointReturnsWindowRate) {
  IntervalMeter m;
  m.add(12'500'000);  // 12.5 MB
  const Bandwidth r = m.checkpoint(Time::milliseconds(1));
  EXPECT_NEAR(r.as_gbps(), 100.0, 1e-9);
  // Second window with no traffic: zero.
  EXPECT_NEAR(m.checkpoint(Time::milliseconds(2)).as_gbps(), 0.0, 1e-9);
}

TEST(IntervalMeterTest, TotalsAccumulate) {
  IntervalMeter m;
  m.add(100);
  m.add(200);
  EXPECT_EQ(m.total_bytes(), 300);
  EXPECT_EQ(m.total_ops(), 2u);
}

TEST(TimeSeriesTest, WindowStatistics) {
  TimeSeries ts("x");
  for (int i = 0; i < 10; ++i) ts.record(Time::microseconds(i), i);
  EXPECT_DOUBLE_EQ(ts.mean_over(Time::microseconds(0), Time::microseconds(5)), 2.0);
  EXPECT_DOUBLE_EQ(ts.max_over(Time::microseconds(2), Time::microseconds(8)), 7.0);
  EXPECT_DOUBLE_EQ(ts.fraction_above(Time::zero(), Time::microseconds(10), 6.5), 0.3);
}

TEST(TimeSeriesTest, CsvExportKeepsFullPrecision) {
  TimeSeries ts("x");
  const double v = 123.456789012345;  // would round to 123.457 at default precision
  ts.record(Time::microseconds(1), v);
  std::ostringstream os;
  os.precision(6);  // simulate a stream left at the default
  ts.write_csv(os);
  std::ostringstream want;
  want.precision(std::numeric_limits<double>::max_digits10);
  want << v;
  EXPECT_NE(os.str().find(want.str()), std::string::npos) << os.str();
  EXPECT_EQ(os.precision(), 6) << "write_csv must restore the caller's precision";
}

TEST(LatencySummaryTest, OrderedPercentiles) {
  Histogram h;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 10000; ++i) h.record_time(Time::nanoseconds(100 + rng() % 100000));
  const LatencySummary s = summarize(h);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, s.p9999);
  EXPECT_LE(s.p9999, s.max);
}

}  // namespace
}  // namespace hostcc::sim
