// Extension experiment (§6 "Host congestion signals"): hostCC with other
// congestion-control protocols. DCTCP (ECN-based), Reno (loss-only), and
// a Swift-style delay-based protocol run under 3x host congestion with
// and without hostCC.
//
// Expectations from the paper's discussion:
//  - Reno sees host congestion only through drops: highest drop rates.
//  - Swift's end-to-end delay signal includes NIC queueing, so it backs
//    off before the buffer overflows — fewer drops than Reno even without
//    hostCC (delay already encodes part of the host signal).
//  - hostCC's host-local response benefits all three; the ECN echo
//    accelerates only ECN-capable DCTCP.
#include <cstdio>

#include "exp/cli.h"
#include "exp/scenario.h"
#include "exp/table.h"

using namespace hostcc;

int main(int argc, char** argv) {
  const bool quick = exp::parse_bench_opts_or_die(argc, argv).quick;

  std::printf("=== Extension: hostCC with ECN-, loss-, and delay-based CC (3x) ===\n\n");

  exp::Table t({"cc", "mode", "net_tput_gbps", "drop_rate_pct", "avg_IS", "mapp_mem_util"});
  for (const auto kind :
       {transport::CcKind::kDctcp, transport::CcKind::kReno, transport::CcKind::kSwift}) {
    for (const bool hostcc : {false, true}) {
      exp::ScenarioConfig cfg;
      cfg.mapp_degree = 3.0;
      cfg.transport.cc = kind;
      cfg.hostcc_enabled = hostcc;
      cfg.record_signals = true;
      if (quick) {
        cfg.warmup = sim::Time::milliseconds(60);
        cfg.measure = sim::Time::milliseconds(60);
      }
      exp::Scenario s(cfg);
      const auto r = s.run();
      t.add_row({transport::cc_kind_name(kind), hostcc ? "+hostcc" : "plain",
                 exp::fmt(r.net_tput_gbps), exp::fmt_rate(r.host_drop_rate_pct),
                 exp::fmt(r.avg_iio_occupancy, 1), exp::fmt(r.mapp_mem_util)});
    }
  }
  t.print();

  std::printf("\n(hostCC requires no protocol modifications; delay-based protocols see\n"
              " host queueing through RTT already, loss-based ones only through drops.)\n");
  return 0;
}
