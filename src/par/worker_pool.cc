#include "par/worker_pool.h"

#include <cstdlib>

namespace scalein::par {
namespace {

/// -1 outside the pool; 0 on a thread draining its own ParallelFor; >= 1 in a
/// worker. Doubles as the nested-call detector: any lane >= 0 runs nested
/// ParallelFor calls inline.
thread_local int tls_lane = -1;

}  // namespace

int CurrentLane() { return tls_lane; }

WorkerPool::WorkerPool(size_t threads) { Resize(threads); }

WorkerPool::~WorkerPool() { StopWorkers(); }

size_t WorkerPool::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size() + 1;
}

void WorkerPool::StopWorkers() {
  std::vector<std::thread> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    old.swap(workers_);
  }
  cv_work_.notify_all();
  for (std::thread& t : old) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  stop_ = false;
}

void WorkerPool::Resize(size_t threads) {
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  StopWorkers();
  const size_t lanes = threads == 0 ? 1 : threads;
  std::lock_guard<std::mutex> lock(mu_);
  workers_.reserve(lanes - 1);
  for (size_t i = 1; i < lanes; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

size_t WorkerPool::RunTasks(Job* job) {
  size_t ran = 0;
  for (;;) {
    const size_t idx = job->next.fetch_add(1, std::memory_order_relaxed);
    if (idx >= job->n) break;
    (*job->fn)(idx);
    ++ran;
  }
  tasks_executed_.fetch_add(ran, std::memory_order_relaxed);
  return ran;
}

void WorkerPool::WorkerLoop(size_t lane) {
  tls_lane = static_cast<int>(lane);
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] {
      return stop_ || (job_ != nullptr && generation_ != seen_generation);
    });
    if (stop_) return;
    seen_generation = generation_;
    Job* job = job_;
    ++job->inside;
    lock.unlock();
    const size_t ran = RunTasks(job);
    lock.lock();
    job->done += ran;
    if (--job->inside == 0) cv_done_.notify_all();
  }
}

void WorkerPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  parallel_for_calls_.fetch_add(1, std::memory_order_relaxed);
  // Sequential fallbacks: a 1-lane pool, a single task, or a nested call from
  // inside a running task (running it inline keeps composition deadlock-free
  // and deterministic).
  bool inline_run = n == 1 || tls_lane >= 0;
  if (!inline_run) {
    std::lock_guard<std::mutex> lock(mu_);
    inline_run = workers_.empty();
  }
  if (inline_run) {
    for (size_t i = 0; i < n; ++i) fn(i);
    tasks_executed_.fetch_add(n, std::memory_order_relaxed);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  Job job;
  job.fn = &fn;
  job.n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
  }
  cv_work_.notify_all();
  // The submitting thread is lane 0 and participates in the drain.
  tls_lane = 0;
  const size_t ran = RunTasks(&job);
  tls_lane = -1;
  std::unique_lock<std::mutex> lock(mu_);
  job_ = nullptr;  // from here on no worker can join this job
  job.done += ran;
  cv_done_.wait(lock, [&] { return job.done == job.n && job.inside == 0; });
}

WorkerPool& WorkerPool::Global() {
  // Leaked (Google-style static storage): worker threads must not be joined
  // during static destruction.
  static WorkerPool& pool = *new WorkerPool(EnvThreads());
  return pool;
}

size_t WorkerPool::EnvThreads() {
  const char* env = std::getenv("SCALEIN_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || parsed < 1) return 1;
  return parsed > 64 ? 64 : static_cast<size_t>(parsed);
}

}  // namespace scalein::par
