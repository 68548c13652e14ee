// Exponentially weighted moving average, as used by hostCC for its host
// congestion signals (§4.1: weight 1/8 for IIO occupancy, 1/256 for PCIe
// bandwidth) and by DCTCP for its alpha estimate (g = 1/16).
#pragma once

#include <cassert>
#include <cfloat>
#include <cmath>

namespace hostcc::sim {

class Ewma {
 public:
  // `weight` is the coefficient of the newest sample, in (0, 1].
  explicit Ewma(double weight) : weight_(weight) {
    assert(weight > 0.0 && weight <= 1.0);
  }

  void add(double sample) {
    if (!seeded_) {
      value_ = sample;  // seed with the first observation
      seeded_ = true;
      return;
    }
    value_ += weight_ * (sample - value_);
    // A zero sample is a pure decay. Left alone it walks the value down
    // through the subnormal range, where every op costs ~100x a normal one
    // on x86, and then sticks at the smallest subnormal (weight * value
    // rounds to 0). Flush it to exact 0 instead. Testing the sample first
    // keeps the check off the non-zero-sample path.
    if (sample == 0.0 && std::fabs(value_) < DBL_MIN) [[unlikely]] value_ = 0.0;
  }

  double value() const { return value_; }
  bool seeded() const { return seeded_; }
  double weight() const { return weight_; }

  void reset() {
    value_ = 0.0;
    seeded_ = false;
  }

 private:
  double weight_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace hostcc::sim
