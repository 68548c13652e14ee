// ShardedSimulator: runs one logical simulation as N per-cell event loops
// (sim::Simulator instances) advancing in lockstep under a conservative
// lookahead window L. Time is divided into the absolute epoch grid
// [k*L, (k+1)*L); within an epoch every cell runs independently (its
// inbound cross-cell traffic for the epoch was fully published before the
// epoch began), and a barrier separates consecutive epochs.
//
// The per-epoch hook fires on the cell's worker thread at its FIRST entry
// into each epoch, before any of the cell's events in that epoch execute —
// this is where ShardChannels::begin_epoch drains and schedules the
// epoch's cross-cell arrivals. run_until() may stop mid-epoch (warmup /
// measurement boundaries); resuming the same epoch later does not re-fire
// the hook.
//
// Workers: min(workers, cells) threads; the calling thread doubles as
// worker 0. Cells are placed on workers longest-processing-time first by
// their own measured busy time (place_cells below): on every entry to the
// parallel loop, and again every kReplaceEpochs epochs inside it, worker
// 0 re-places them at a quiesced epoch boundary; each worker steps its
// cells in ascending index order. Before any cell has run, placement is
// round-robin. A cell's events never depend on which thread runs it, so
// placement — like the worker count — is pure execution policy, never
// schedule policy. With workers <= 1 the epoch loop runs serially on the
// caller — same hook sequence, same per-cell event order, byte-identical
// output. Exceptions from any cell are captured and the lowest-worker-
// index one rethrown after all threads joined.
//
// The boundary tick (set_boundary_tick) runs single-threaded at a quiesced
// epoch boundary: after every cell has finished epoch k and before any
// cell enters epoch k+1, so it may read and write any cell's state. It
// fires at the first epoch end at or after each multiple of its period,
// and only at real epoch ends — never at a mid-epoch run_until() stop —
// so its cadence does not depend on how the run is sliced. The parallel
// loop pays the extra barrier only on epochs where the tick is due.
//
// Degenerate runs (1 cell, or zero lookahead) bypass the epoch machinery
// entirely: one run_until on cell 0, no hook or tick calls.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace hostcc::sim {

// Longest-processing-time-first placement of cells on `workers` workers.
// Cells are taken heaviest weight first (ties: lower index first); each
// goes to the least-loaded worker (ties: fewer cells, then lower worker
// index), so equal or all-zero weights deal round-robin. Returns one
// ascending cell list per worker; no list is empty while cells >= workers.
std::vector<std::vector<int>> place_cells(const std::vector<std::int64_t>& weights, int workers);

class ShardedSimulator {
 public:
  using EpochHook = std::function<void(int cell, std::int64_t epoch, Time window_end)>;
  using BoundaryTick = std::function<void()>;

  // `workers` <= 0 selects std::thread::hardware_concurrency(); the count
  // is clamped to the cell count either way.
  ShardedSimulator(int cells, Time lookahead, int workers);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  Simulator& cell(int i) { return *cells_[i]; }
  const Simulator& cell(int i) const { return *cells_[i]; }
  int cell_count() const { return static_cast<int>(cells_.size()); }
  int workers() const { return workers_; }
  Time lookahead() const { return lookahead_; }

  void set_epoch_hook(EpochHook hook) { hook_ = std::move(hook); }
  // See the file comment. `period` must be positive.
  void set_boundary_tick(Time period, BoundaryTick tick) {
    tick_period_ = period;
    next_tick_ = period;
    tick_ = std::move(tick);
  }

  // Advances every cell to `deadline` (global position; all cells end at
  // the same sim time).
  void run_until(Time deadline);
  Time now() const { return now_; }

  // Sum of per-cell executed events — independent of the worker count.
  std::uint64_t events_executed() const;
  // Epoch windows entered by the parallel loop (0 on degenerate runs).
  std::uint64_t epochs_entered() const { return epochs_entered_; }

  // Per-cell wall-clock spent inside run_until (profiling only; excluded
  // from the determinism contract like every other wall-clock figure).
  double cell_wall_ms(int i) const { return static_cast<double>(wall_ns_[i]) * 1e-6; }
  double max_cell_wall_ms() const;
  // Wall-clock worker w spent stepping cells, whichever cells it held.
  double worker_wall_ms(int w) const {
    return static_cast<double>(worker_wall_ns_[w]) * 1e-6;
  }

  // The parallel loop re-places cells every this many epochs of a call.
  static constexpr std::int64_t kReplaceEpochs = 1024;

 private:
  // Returns the wall-clock nanoseconds the step took.
  std::int64_t step_cell(int c, std::int64_t epoch, Time seg_end, Time window_end);
  // Counts epoch k once, however many segments it is run in.
  void count_epoch(std::int64_t k) {
    if (k != counted_epoch_) {
      counted_epoch_ = k;
      ++epochs_entered_;
    }
  }
  void run_epochs_serial(Time deadline);
  void run_epochs_parallel(Time deadline);
  // True when the epoch ending at `window_end` completes inside this
  // segment and the boundary tick is due there.
  bool tick_due(Time seg_end, Time window_end) const {
    return tick_ && seg_end == window_end && window_end >= next_tick_;
  }
  void run_tick(Time epoch_end);

  std::vector<std::unique_ptr<Simulator>> cells_;
  Time lookahead_;
  int workers_;
  EpochHook hook_;
  BoundaryTick tick_;
  Time tick_period_ = Time::zero();
  Time next_tick_ = Time::zero();

  Time now_ = Time::zero();
  std::vector<std::int64_t> cell_epoch_;  // last epoch each cell entered
  std::vector<std::int64_t> wall_ns_;
  std::vector<std::int64_t> worker_wall_ns_;
  std::int64_t counted_epoch_ = -1;
  std::uint64_t epochs_entered_ = 0;
};

}  // namespace hostcc::sim
