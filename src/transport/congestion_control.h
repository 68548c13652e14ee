// Pluggable congestion control, the integration point §3.3/§4.3 of the
// paper relies on: hostCC does not modify the protocol — it only feeds it
// additional (host) ECN marks. Any ECN-capable controller works unchanged.
#pragma once

#include <memory>
#include <string>

#include "sim/time.h"
#include "sim/units.h"

namespace hostcc::transport {

struct CcConfig {
  sim::Bytes mss = 4030;                 // payload bytes per segment
  sim::Bytes init_cwnd_segments = 10;
  double dctcp_g = 1.0 / 16.0;           // DCTCP alpha gain [4]
  sim::Bytes max_cwnd = 16 * sim::kMiB;  // socket-memory cap
};

class CongestionControl {
 public:
  explicit CongestionControl(const CcConfig& cfg)
      : cfg_(cfg), cwnd_(static_cast<double>(cfg.mss * cfg.init_cwnd_segments)) {}
  virtual ~CongestionControl() = default;

  virtual std::string name() const = 0;
  // Whether data packets should carry ECT(0) (ECN-capable transport).
  virtual bool ecn_capable() const = 0;

  // Called for every cumulative ACK advancing snd_una. `in_recovery`
  // suppresses window growth (loss recovery in progress) while still
  // letting mark accounting (e.g. DCTCP's alpha) proceed.
  virtual void on_ack(sim::Bytes newly_acked, bool ece, sim::Time rtt, bool in_recovery) = 0;
  // Fast-retransmit loss (at most once per window of data).
  virtual void on_loss() = 0;
  // Retransmission timeout.
  virtual void on_timeout() = 0;

  sim::Bytes cwnd() const { return static_cast<sim::Bytes>(cwnd_); }

  // Tier-transfer hook (hybrid-fidelity hosts): seeds the window from the
  // state exported by the other tier's controller. Controller-internal
  // state (DCTCP alpha, DCQCN target) is deliberately not transferred —
  // it reconverges within a few windows of data.
  void restore_cwnd(double bytes) {
    cwnd_ = bytes;
    clamp_cwnd();
  }

  // Returns the controller to its freshly-constructed state. Pooled
  // connection reuse (Stack::open) hands a recycled TcpConnection to a
  // brand-new flow, which must not inherit the previous flow's window or
  // internal estimators. Subclasses extend this for their own state.
  virtual void reset() {
    cwnd_ = static_cast<double>(cfg_.mss * cfg_.init_cwnd_segments);
    clamp_cwnd();
  }

 protected:
  void clamp_cwnd() {
    const auto lo = static_cast<double>(cfg_.mss);
    const auto hi = static_cast<double>(cfg_.max_cwnd);
    if (cwnd_ < lo) cwnd_ = lo;
    if (cwnd_ > hi) cwnd_ = hi;
  }

  CcConfig cfg_;
  double cwnd_;
};

// TCP Reno/NewReno-style AIMD without ECN: the non-ECN baseline.
class RenoCc : public CongestionControl {
 public:
  explicit RenoCc(const CcConfig& cfg) : CongestionControl(cfg) {}

  std::string name() const override { return "reno"; }
  bool ecn_capable() const override { return false; }

  void on_ack(sim::Bytes newly_acked, bool /*ece*/, sim::Time /*rtt*/,
              bool in_recovery) override {
    if (in_recovery) return;
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(newly_acked);  // slow start
    } else {
      cwnd_ += static_cast<double>(cfg_.mss) * static_cast<double>(newly_acked) / cwnd_;
    }
    clamp_cwnd();
  }

  void on_loss() override {
    ssthresh_ = cwnd_ / 2.0;
    cwnd_ = ssthresh_;
    clamp_cwnd();
  }

  void on_timeout() override {
    ssthresh_ = cwnd_ / 2.0;
    cwnd_ = static_cast<double>(cfg_.mss);
  }

  void reset() override {
    CongestionControl::reset();
    ssthresh_ = 1e18;
  }

 protected:
  double ssthresh_ = 1e18;
};

// DCTCP [4]: EWMA of the marked-byte fraction, window scaled by alpha/2
// once per window of data. Falls back to Reno behaviour on loss.
class DctcpCc : public CongestionControl {
 public:
  explicit DctcpCc(const CcConfig& cfg) : CongestionControl(cfg) {}

  std::string name() const override { return "dctcp"; }
  bool ecn_capable() const override { return true; }

  void on_ack(sim::Bytes newly_acked, bool ece, sim::Time /*rtt*/, bool in_recovery) override {
    if (ece && cwnd_ < ssthresh_) ssthresh_ = cwnd_;  // marks end slow start
    acked_bytes_ += newly_acked;
    if (ece) marked_bytes_ += newly_acked;

    // End of observation window: one cwnd of data has been acknowledged.
    window_left_ -= newly_acked;
    if (window_left_ <= 0) {
      const double f = acked_bytes_ > 0 ? static_cast<double>(marked_bytes_) /
                                              static_cast<double>(acked_bytes_)
                                        : 0.0;
      alpha_ = (1.0 - cfg_.dctcp_g) * alpha_ + cfg_.dctcp_g * f;
      if (marked_bytes_ > 0 && cwnd_ >= ssthresh_) {
        cwnd_ *= (1.0 - alpha_ / 2.0);
        clamp_cwnd();
      }
      acked_bytes_ = 0;
      marked_bytes_ = 0;
      window_left_ = cwnd();
    }

    if (in_recovery || ece) {
      clamp_cwnd();
      return;  // no growth on marked ACKs or during loss recovery
    }
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(newly_acked);
    } else {
      cwnd_ += static_cast<double>(cfg_.mss) * static_cast<double>(newly_acked) / cwnd_;
    }
    clamp_cwnd();
  }

  void on_loss() override {
    ssthresh_ = cwnd_ / 2.0;
    cwnd_ = ssthresh_;
    clamp_cwnd();
    window_left_ = cwnd();
  }

  void on_timeout() override {
    ssthresh_ = cwnd_ / 2.0;
    cwnd_ = static_cast<double>(cfg_.mss);
    acked_bytes_ = marked_bytes_ = 0;
    window_left_ = cwnd();
  }

  void reset() override {
    CongestionControl::reset();
    alpha_ = 1.0;
    ssthresh_ = 1e18;
    acked_bytes_ = marked_bytes_ = 0;
    window_left_ = cwnd();
  }

  double alpha() const { return alpha_; }

 private:
  double alpha_ = 1.0;  // conservative start, per the Linux implementation
  double ssthresh_ = 1e18;
  sim::Bytes acked_bytes_ = 0;
  sim::Bytes marked_bytes_ = 0;
  sim::Bytes window_left_ = cwnd();
};

// DCQCN-style rate-based control (Zhu et al., SIGCOMM'15), recast onto the
// window interface the transport drives: the "rate" is cwnd/RTT, so the
// target/current rate pair (Rt/Rc) becomes a target/current window pair
// (Wt/Wc). Per window of acknowledged data:
//   * marked window:  alpha <- (1-g)alpha + g,  Wt <- Wc,
//                     Wc <- Wc(1 - alpha/2)          (rate decrease)
//   * clean window:   alpha <- (1-g)alpha, then recovery stages —
//     fast recovery (first kFastRecoveryWindows): Wc <- (Wt+Wc)/2
//     additive increase:                          Wt += Rai,  Wc <- (Wt+Wc)/2
//     hyper increase (after kHyperAfter clean):   Wt += kHyperFactor*Rai
// Driving every stage off windows-of-data instead of wall-clock timers
// keeps the controller deterministic and clock-free (the byte counter is
// the DCQCN byte counter; the rate timer's role collapses into it at
// simulation fidelity). Losses fall back to halving — a lossless fabric
// should never show them, and the invariant checker reports them if the
// fabric does.
class DcqcnCc : public CongestionControl {
 public:
  static constexpr int kFastRecoveryWindows = 5;
  static constexpr int kHyperAfter = 10;
  static constexpr double kHyperFactor = 5.0;

  explicit DcqcnCc(const CcConfig& cfg)
      : CongestionControl(cfg),
        target_(cwnd_),
        rai_(static_cast<double>(cfg.mss)) {}

  std::string name() const override { return "dcqcn"; }
  bool ecn_capable() const override { return true; }

  void on_ack(sim::Bytes newly_acked, bool ece, sim::Time /*rtt*/, bool in_recovery) override {
    acked_bytes_ += newly_acked;
    if (ece) marked_bytes_ += newly_acked;
    window_left_ -= newly_acked;
    if (window_left_ > 0) {
      (void)in_recovery;
      return;
    }
    // One window of data acknowledged: run the DCQCN update.
    const bool marked = marked_bytes_ > 0;
    const double f = acked_bytes_ > 0
                         ? static_cast<double>(marked_bytes_) / static_cast<double>(acked_bytes_)
                         : 0.0;
    alpha_ = (1.0 - cfg_.dctcp_g) * alpha_ + cfg_.dctcp_g * (marked ? f : 0.0);
    if (marked) {
      target_ = cwnd_;
      cwnd_ *= (1.0 - alpha_ / 2.0);
      clean_windows_ = 0;
    } else {
      ++clean_windows_;
      if (clean_windows_ > kFastRecoveryWindows) {
        // Additive (then hyper) increase raises the target; the current
        // window converges toward it at half the gap per window.
        const double inc =
            clean_windows_ > kFastRecoveryWindows + kHyperAfter ? kHyperFactor * rai_ : rai_;
        target_ += inc;
        if (target_ > static_cast<double>(cfg_.max_cwnd)) {
          target_ = static_cast<double>(cfg_.max_cwnd);
        }
      }
      cwnd_ = (target_ + cwnd_) / 2.0;
    }
    clamp_cwnd();
    acked_bytes_ = 0;
    marked_bytes_ = 0;
    window_left_ = cwnd();
  }

  void on_loss() override {
    // A lossless fabric should never get here; behave like a marked window
    // with the classic halving floor so lossy runs still converge.
    target_ = cwnd_;
    cwnd_ /= 2.0;
    clean_windows_ = 0;
    clamp_cwnd();
    window_left_ = cwnd();
  }

  void on_timeout() override {
    target_ = cwnd_;
    cwnd_ = static_cast<double>(cfg_.mss);
    clean_windows_ = 0;
    acked_bytes_ = marked_bytes_ = 0;
    window_left_ = cwnd();
  }

  void reset() override {
    CongestionControl::reset();
    alpha_ = 1.0;
    target_ = cwnd_;
    clean_windows_ = 0;
    acked_bytes_ = marked_bytes_ = 0;
    window_left_ = cwnd();
  }

  double alpha() const { return alpha_; }
  double target_window() const { return target_; }
  int clean_windows() const { return clean_windows_; }

 private:
  double alpha_ = 1.0;   // conservative start, like DCTCP
  double target_;        // Wt — the rate-target analogue
  double rai_;           // additive-increase step (one MSS per window)
  int clean_windows_ = 0;
  sim::Bytes acked_bytes_ = 0;
  sim::Bytes marked_bytes_ = 0;
  sim::Bytes window_left_ = cwnd();
};

enum class CcKind { kDctcp, kReno, kSwift, kDcqcn };

// Factory defined in congestion_control.cc (SwiftCc lives in swift.h).
std::unique_ptr<CongestionControl> make_cc(CcKind kind, const CcConfig& cfg);

inline const char* cc_kind_name(CcKind k) {
  switch (k) {
    case CcKind::kDctcp:
      return "dctcp";
    case CcKind::kReno:
      return "reno";
    case CcKind::kSwift:
      return "swift";
    case CcKind::kDcqcn:
      return "dcqcn";
  }
  return "?";
}

// Inverse of cc_kind_name; false (and `out` untouched) for any other name.
inline bool parse_cc_kind(const std::string& name, CcKind& out) {
  for (const CcKind k : {CcKind::kDctcp, CcKind::kReno, CcKind::kSwift, CcKind::kDcqcn}) {
    if (name == cc_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace hostcc::transport
