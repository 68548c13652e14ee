#include "sim/sharded_sim.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

namespace hostcc::sim {

namespace {

// Reusable generation barrier (std::barrier's completion semantics are
// more than we need, and libstdc++'s std::barrier spins).
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lk(mu_);
    const std::uint64_t gen = gen_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++gen_;
      cv_.notify_all();
    } else {
      cv_.wait(lk, [&] { return gen_ != gen; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parties_;
  int waiting_ = 0;
  std::uint64_t gen_ = 0;
};

std::int64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::vector<std::vector<int>> place_cells(const std::vector<std::int64_t>& weights, int workers) {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(std::max(workers, 1)));
  std::vector<int> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return weights[a] > weights[b]; });
  std::vector<std::int64_t> load(out.size(), 0);
  for (int c : order) {
    std::size_t best = 0;
    for (std::size_t w = 1; w < out.size(); ++w) {
      if (load[w] < load[best] ||
          (load[w] == load[best] && out[w].size() < out[best].size())) {
        best = w;
      }
    }
    out[best].push_back(c);
    load[best] += weights[c];
  }
  for (std::vector<int>& cells : out) std::sort(cells.begin(), cells.end());
  return out;
}

ShardedSimulator::ShardedSimulator(int cells, Time lookahead, int workers)
    : lookahead_(lookahead) {
  if (cells < 1) cells = 1;
  cells_.reserve(cells);
  for (int i = 0; i < cells; ++i) cells_.push_back(std::make_unique<Simulator>());
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }
  workers_ = std::min(workers, cells);
  cell_epoch_.assign(cells, -1);
  wall_ns_.assign(cells, 0);
  worker_wall_ns_.assign(workers_, 0);
}

ShardedSimulator::~ShardedSimulator() = default;

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->events_executed();
  return n;
}

double ShardedSimulator::max_cell_wall_ms() const {
  std::int64_t w = 0;
  for (std::int64_t ns : wall_ns_) w = std::max(w, ns);
  return static_cast<double>(w) * 1e-6;
}

std::int64_t ShardedSimulator::step_cell(int c, std::int64_t epoch, Time seg_end,
                                         Time window_end) {
  const auto t0 = std::chrono::steady_clock::now();
  if (cell_epoch_[c] != epoch) {
    cell_epoch_[c] = epoch;
    if (hook_) hook_(c, epoch, window_end);
  }
  cells_[c]->run_until(seg_end);
  const std::int64_t ns = elapsed_ns(t0);
  wall_ns_[c] += ns;
  return ns;
}

void ShardedSimulator::run_tick(Time epoch_end) {
  tick_();
  next_tick_ =
      Time::picoseconds((epoch_end.ps() / tick_period_.ps() + 1) * tick_period_.ps());
}

void ShardedSimulator::run_until(Time deadline) {
  if (deadline <= now_) return;
  if (cells_.size() == 1 || lookahead_ <= Time::zero()) {
    // Degenerate: one cell (or no positive window) — a plain serial run.
    const auto t0 = std::chrono::steady_clock::now();
    for (auto& c : cells_) c->run_until(deadline);
    const std::int64_t ns = elapsed_ns(t0);
    wall_ns_[0] += ns;
    worker_wall_ns_[0] += ns;
    now_ = deadline;
    return;
  }
  if (workers_ <= 1) {
    run_epochs_serial(deadline);
  } else {
    run_epochs_parallel(deadline);
  }
  now_ = deadline;
}

void ShardedSimulator::run_epochs_serial(Time deadline) {
  Time pos = now_;
  while (pos < deadline) {
    const std::int64_t k = pos.ps() / lookahead_.ps();
    const Time window_end = Time::picoseconds((k + 1) * lookahead_.ps());
    const Time seg_end = std::min(deadline, window_end);
    count_epoch(k);
    for (int c = 0; c < cell_count(); ++c) {
      worker_wall_ns_[0] += step_cell(c, k, seg_end, window_end);
    }
    if (tick_due(seg_end, window_end)) run_tick(window_end);
    pos = seg_end;
  }
}

void ShardedSimulator::run_epochs_parallel(Time deadline) {
  const int W = workers_;
  Barrier barrier(W);
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(W);
  std::vector<std::vector<int>> placement = place_cells(wall_ns_, W);

  // Each worker owns the cells placement[w] and walks the epoch grid in
  // lockstep with its peers: all of epoch k's cell segments complete (and
  // their cross-cell buffers are fully published) before any cell enters
  // epoch k+1. The barrier is the happens-before edge the channel buffers
  // rely on. When the boundary tick or a re-placement is due, worker 0
  // runs it between that barrier and a second one, while every other
  // worker waits; every worker decides both before the first barrier, so
  // next_tick_ and placement are only ever written while no other thread
  // reads them. Worker 0 counts epochs on its own state, never on a cell's:
  // cell 0 may be placed on another worker.
  auto worker = [&](int w) {
    try {
      Time pos = now_;
      std::int64_t segments = 0;
      while (pos < deadline) {
        const std::int64_t k = pos.ps() / lookahead_.ps();
        const Time window_end = Time::picoseconds((k + 1) * lookahead_.ps());
        const Time seg_end = std::min(deadline, window_end);
        const bool tick = tick_due(seg_end, window_end);
        const bool replace = ++segments % kReplaceEpochs == 0;
        if (w == 0) count_epoch(k);
        std::int64_t busy_ns = 0;
        for (int c : placement[w]) busy_ns += step_cell(c, k, seg_end, window_end);
        worker_wall_ns_[w] += busy_ns;
        barrier.arrive_and_wait();
        if (failed.load(std::memory_order_acquire)) return;
        if (tick || replace) {
          if (w == 0) {
            if (tick) run_tick(window_end);
            if (replace) placement = place_cells(wall_ns_, W);
          }
          barrier.arrive_and_wait();
          if (failed.load(std::memory_order_acquire)) return;
        }
        pos = seg_end;
      }
    } catch (...) {
      errors[w] = std::current_exception();
      failed.store(true, std::memory_order_release);
      barrier.arrive_and_wait();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(W - 1);
  for (int w = 1; w < W; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < W; ++w) {
    if (errors[w]) std::rethrow_exception(errors[w]);
  }
}

}  // namespace hostcc::sim
