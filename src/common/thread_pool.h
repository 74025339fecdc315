#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace incshrink {

/// Resolves the worker count used by parallel execution: `requested` when
/// positive, else the `INCSHRINK_THREADS` environment override, else the
/// hardware concurrency. This is the *only* place in the repository allowed
/// to consult the machine's core count (the `concurrency-outside-pool` rule
/// in tools/lint/secret_api.toml enforces this statically): the resolved
/// value may steer scheduling but must never reach a simulated result, so
/// experiments stay reproducible on any machine.
int ResolveThreadCount(int requested = 0);

/// \brief Deterministic fork-join thread pool (no work stealing).
///
/// The pool exists to run *independent* tasks — per-seed engines, per-tenant
/// deployments — whose outputs land in caller-preallocated, index-addressed
/// slots. Iterations are claimed from a shared atomic counter, so the
/// task -> index mapping is stable (iteration i always computes slot i) even
/// though the iteration -> worker assignment is not; since tasks share no
/// mutable state and the caller merges slots in index order, the merged
/// output is bit-identical for every worker count.
class ThreadPool {
 public:
  /// Spawns `ResolveThreadCount(num_threads) - 1` workers; the caller's
  /// thread participates in every ParallelFor, so a 1-thread pool runs
  /// everything inline with no synchronization.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs body(i) for every i in [0, n) across the workers and blocks until
  /// all iterations completed. `body` must not touch shared mutable state
  /// beyond its own slot i, and must not call back into this pool (no
  /// nesting). The first exception thrown by any iteration is rethrown on
  /// the calling thread after the join.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

 private:
  void WorkerLoop();
  void RunSlice();

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;      ///< bumped once per ParallelFor
  bool shutdown_ = false;
  size_t workers_active_ = 0;    ///< workers still inside the current job

  const std::function<void(size_t)>* body_ = nullptr;
  size_t n_ = 0;
  std::atomic<size_t> next_{0};  ///< next unclaimed iteration index
  std::exception_ptr first_error_;
};

/// One-shot convenience: builds a pool of `num_threads` workers, runs the
/// loop, tears the pool down. Prefer a long-lived ThreadPool for repeated
/// fork-joins (the fleet holds one).
void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t)>& body);

}  // namespace incshrink
