#ifndef SCALEIN_PAR_WORKER_POOL_H_
#define SCALEIN_PAR_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace scalein::par {

/// Fixed pool of worker threads executing index-addressed morsels — the
/// process-wide execution substrate for batch bounded evaluation
/// (`EvaluateBatch` / `EvaluateEmbeddedBatch` in both executors), where each
/// morsel is one whole evaluation.
///
/// The scheduling model is deliberately minimal (morsel-driven, work-stealing
/// by atomic counter): one job at a time, `n` tasks addressed by index, every
/// lane — the `threads() - 1` workers plus the *calling* thread — grabs the
/// next unclaimed index until the job drains. `ParallelFor` blocks until all
/// tasks complete, so callers can merge per-task results afterwards without
/// any synchronization of their own; determinism is the caller's job and is
/// achieved by merging per-task slots in task-index order.
///
/// Tasks must not throw (the library reports failures through Status; a task
/// records its Status into its own slot). Nested `ParallelFor` calls — a task
/// that itself fans out — run inline on the calling lane, so composing
/// parallel components cannot deadlock the pool.
class WorkerPool {
 public:
  /// `threads` is the total lane count (callers + workers); the pool spawns
  /// `threads - 1` OS threads. 0 and 1 both mean "sequential".
  explicit WorkerPool(size_t threads = 1);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total execution lanes (>= 1).
  size_t threads() const;

  /// Joins the current workers and spawns `threads - 1` new ones. Waits for
  /// a running ParallelFor to finish first.
  void Resize(size_t threads);

  /// Runs fn(0), ..., fn(n-1), each exactly once, and returns when all have
  /// completed. Task start order is unspecified; with <= 1 lane (or a nested
  /// call from inside a task) the tasks run inline, in index order.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Lifetime totals, for metrics export ("pool.tasks", "pool.parallel_for").
  uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  uint64_t parallel_for_calls() const {
    return parallel_for_calls_.load(std::memory_order_relaxed);
  }

  /// The process-wide pool, lazily sized from SCALEIN_THREADS on first use
  /// (default 1 — fully sequential, the seed behavior). The shell's `threads`
  /// command resizes it at run time.
  static WorkerPool& Global();

  /// Parses SCALEIN_THREADS; 1 when unset/garbage, clamped to [1, 64].
  static size_t EnvThreads();

 private:
  /// One ParallelFor call. It lives on the submitter's stack: a worker joins
  /// it only while it is published in `job_` (under mu_), and ParallelFor
  /// unpublishes it and waits until every task is done and no worker is
  /// inside before returning, so no worker can run `fn` — or touch the
  /// counters — of a call that has already returned.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};  ///< next unclaimed task index
    size_t done = 0;              ///< tasks completed; guarded by mu_
    size_t inside = 0;            ///< workers in RunTasks; guarded by mu_
  };

  void WorkerLoop(size_t lane);
  /// Claims and runs tasks of `job` on the calling thread until none are
  /// left; returns how many it ran.
  size_t RunTasks(Job* job);
  /// Stops and joins every worker; the pool is then sequential.
  void StopWorkers();

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< workers wait for a published job
  std::condition_variable cv_done_;   ///< submitter waits for its job
  std::vector<std::thread> workers_;  ///< guarded by mu_
  bool stop_ = false;                 ///< guarded by mu_
  Job* job_ = nullptr;       ///< the published job, if any; guarded by mu_
  uint64_t generation_ = 0;  ///< bumped per published job so a worker joins
                             ///< each job at most once; guarded by mu_
  std::mutex submit_mu_;     ///< serializes submitters and Resize

  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> parallel_for_calls_{0};
};

/// Lane index of the pool lane running the current thread: 0 for a thread
/// currently submitting/draining a ParallelFor, 1..threads-1 inside a worker,
/// -1 outside any pool activity. Used for per-worker span/metric labels.
int CurrentLane();

}  // namespace scalein::par

#endif  // SCALEIN_PAR_WORKER_POOL_H_
