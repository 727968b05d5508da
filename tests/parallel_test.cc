// Morsel-parallel execution tests: the worker pool's scheduling contract and
// the headline determinism property — batch bounded evaluation produces
// byte-identical answers AND byte-identical access accounting at every
// thread count, so Theorem 4.2 verdicts never depend on parallelism.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "core/embedded_controllability.h"
#include "par/worker_pool.h"
#include "query/parser.h"
#include "workload/social_gen.h"

namespace scalein {
namespace {

Variable V(const char* name) { return Variable::Named(name); }

FoQuery FQ(const char* text, const Schema& s) {
  Result<FoQuery> q = ParseFoQuery(text, &s);
  SI_CHECK_MSG(q.ok(), q.status().message().c_str());
  return *std::move(q);
}

struct Social {
  SocialConfig config;
  Schema schema = SocialSchema(false);
  Database db{Schema{}};
  AccessSchema access;

  explicit Social(uint64_t persons) {
    config.num_persons = persons;
    config.max_friends_per_person = 10;
    config.num_restaurants = 40;
    config.seed = 99;
    db = GenerateSocial(config);
    access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());
  }
};

/// Restores the global pool to sequential when a test scope ends, so thread
/// counts never leak between tests.
struct ScopedThreads {
  explicit ScopedThreads(size_t n) { par::WorkerPool::Global().Resize(n); }
  ~ScopedThreads() { par::WorkerPool::Global().Resize(1); }
};

TEST(WorkerPoolTest, ExecutesEveryTaskExactlyOnce) {
  par::WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  constexpr size_t kTasks = 1000;
  // Distinct indices → no two lanes touch the same slot; ParallelFor's
  // completion barrier publishes the writes back to this thread.
  std::vector<int> hits(kTasks, 0);
  pool.ParallelFor(kTasks, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i], 1) << i;
  EXPECT_EQ(pool.tasks_executed(), kTasks);
  EXPECT_EQ(pool.parallel_for_calls(), 1u);
}

TEST(WorkerPoolTest, SequentialPoolRunsInline) {
  par::WorkerPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  par::WorkerPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    // A task that itself fans out must not deadlock the fixed pool.
    pool.ParallelFor(8, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(WorkerPoolTest, CurrentLaneIsMinusOneOutsideAndBoundedInside) {
  EXPECT_EQ(par::CurrentLane(), -1);
  par::WorkerPool pool(3);
  std::atomic<bool> ok{true};
  pool.ParallelFor(64, [&](size_t) {
    const int lane = par::CurrentLane();
    if (lane < 0 || lane >= 3) ok.store(false);
  });
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(par::CurrentLane(), -1);
}

TEST(WorkerPoolTest, ResizeChangesLaneCount) {
  par::WorkerPool pool(1);
  pool.Resize(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::atomic<int> n{0};
  pool.ParallelFor(100, [&](size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 100);
  pool.Resize(1);
  EXPECT_EQ(pool.threads(), 1u);
}

// Regression for the stale-job race: a worker that woke for one ParallelFor
// call must never run that call's task, or claim its indices, after the call
// returned. A pool wider than the host makes descheduled workers likely, and
// Resize between calls spawns fresh workers that must not mistake an old
// job for a new one. Every task checks its own call's token, and every call
// checks that each of its indices ran exactly once.
TEST(WorkerPoolTest, BackToBackJobsAndResizesNeverRunStaleTasks) {
  const size_t wide =
      2 * std::max<size_t>(1, std::thread::hardware_concurrency()) + 1;
  par::WorkerPool pool(wide);
  std::atomic<uint64_t> current{0};
  std::atomic<uint64_t> stale{0};
  for (uint64_t call = 1; call <= 4000; ++call) {
    if (call % 250 == 0) pool.Resize(call % 500 == 0 ? wide : 3);
    current.store(call);
    std::vector<uint8_t> hits(2 + call % 13, 0);
    pool.ParallelFor(hits.size(), [&current, &stale, &hits, call](size_t i) {
      if (current.load() != call) stale.fetch_add(1);
      std::this_thread::yield();  // let workers finish the job's last tasks
      ++hits[i];
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "call " << call << " task " << i;
    }
  }
  EXPECT_EQ(stale.load(), 0u);
}

/// The determinism contract the benchmarks and the TSan CI lane pin down:
/// answers and accounting are identical at 1 and 4 threads.
TEST(ParallelBatchTest, BatchEvalIdenticalAcrossThreadCounts) {
  Social social(300);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  Result<ControllabilityAnalysis> analysis =
      ControllabilityAnalysis::Analyze(q1.body, social.schema, social.access);
  ASSERT_TRUE(analysis.ok());

  std::vector<Binding> batch;
  for (int64_t p = 0; p < 64; ++p) {
    batch.push_back({{V("p"), Value::Int(p)}});
  }
  BoundedEvaluator bounded(&social.db);

  // Reference: a plain sequential loop of Evaluate calls.
  std::vector<AnswerSet> expected;
  BoundedEvalStats expected_stats;
  for (const Binding& params : batch) {
    Result<AnswerSet> r =
        bounded.Evaluate(q1, *analysis, params, &expected_stats);
    ASSERT_TRUE(r.ok());
    expected.push_back(*std::move(r));
  }

  for (size_t threads : {1u, 4u}) {
    ScopedThreads scoped(threads);
    BoundedEvalStats stats;
    std::vector<Result<AnswerSet>> results =
        bounded.EvaluateBatch(q1, *analysis, batch, &stats);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << i;
      EXPECT_EQ(*results[i], expected[i]) << "threads=" << threads;
    }
    EXPECT_EQ(stats.base_tuples_fetched, expected_stats.base_tuples_fetched)
        << "threads=" << threads;
    EXPECT_EQ(stats.index_lookups, expected_stats.index_lookups)
        << "threads=" << threads;
    EXPECT_EQ(stats.fetched_by_relation, expected_stats.fetched_by_relation)
        << "threads=" << threads;
  }
}

TEST(ParallelBatchTest, EmbeddedBatchIdenticalAcrossThreadCounts) {
  SocialConfig config;
  config.num_persons = 120;
  config.max_friends_per_person = 8;
  config.num_restaurants = 12;
  config.avg_visits_per_person = 10;
  config.num_cities = 2;
  config.num_years = 1;
  config.dated_visits = true;
  config.seed = 17;
  Schema schema = SocialSchema(true);
  Database db = GenerateSocial(config);
  AccessSchema access = SocialAccessSchema(config);
  ASSERT_TRUE(access.BuildIndexes(&db, schema).ok());

  Result<Cq> q3 = ParseCq(
      "Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
      "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")",
      &schema);
  ASSERT_TRUE(q3.ok());
  Result<EmbeddedCqAnalysis> analysis =
      EmbeddedCqAnalysis::Analyze(*q3, schema, access, {V("p"), V("yy")});
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->IsScaleIndependent());

  std::vector<Binding> batch;
  for (int64_t p = 0; p < 40; ++p) {
    batch.push_back({{V("p"), Value::Int(p)}, {V("yy"), Value::Int(0)}});
  }
  BoundedEvaluator bounded(&db);

  std::vector<AnswerSet> expected;
  BoundedEvalStats expected_stats;
  for (const Binding& params : batch) {
    Result<AnswerSet> r =
        bounded.EvaluateEmbedded(*analysis, params, &expected_stats);
    ASSERT_TRUE(r.ok());
    expected.push_back(*std::move(r));
  }

  for (size_t threads : {1u, 4u}) {
    ScopedThreads scoped(threads);
    BoundedEvalStats stats;
    std::vector<Result<AnswerSet>> results =
        bounded.EvaluateEmbeddedBatch(*analysis, batch, &stats);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << i;
      EXPECT_EQ(*results[i], expected[i]) << "threads=" << threads;
    }
    EXPECT_EQ(stats.base_tuples_fetched, expected_stats.base_tuples_fetched)
        << "threads=" << threads;
    EXPECT_EQ(stats.index_lookups, expected_stats.index_lookups)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace scalein
