// Chaos harness: golden queries from every engine run under randomized
// failpoint schedules (error/delay injections at scan_next, index_probe,
// chase_step, delta_apply, view_refresh), some additionally under tight
// governor envelopes. The contract under fault injection:
//   - a run either succeeds with the exact golden answer, or fails with a
//     typed Status from the expected set — never a crash, never a wrong
//     answer reported as success (the CI chaos lane runs this suite under
//     ASan+UBSan);
//   - degraded (governor-tripped) partial answers are subsets of the truth.
// Schedules are generated from a counter-seeded mt19937_64 and replayed
// through the registry's own seeded stream, so every failure here is
// reproducible from the schedule index alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "core/qdsi.h"
#include "core/qsi.h"
#include "eval/cq_evaluator.h"
#include "eval/fo_evaluator.h"
#include "exec/exec_context.h"
#include "exec/operators.h"
#include "exec/planner.h"
#include "incremental/maintainer.h"
#include "query/parser.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "views/view_exec.h"
#include "workload/social_gen.h"
#include "workload/update_gen.h"

namespace scalein {
namespace {

Variable V(const char* name) { return Variable::Named(name); }

constexpr int kSchedulesPerEngine = 52;  // 5 engines → 260 runs total

/// Builds a random `;`-separated failpoint spec. Each site independently
/// gets one of the clause forms (or is left disarmed); the registry seed is
/// the schedule id, so the probability draws replay too.
std::string RandomSchedule(uint64_t schedule) {
  std::mt19937_64 rng(schedule * 0x9e3779b97f4a7c15ull + 0xc0ffee);
  const char* sites[] = {"scan_next", "index_probe", "chase_step",
                         "delta_apply", "view_refresh"};
  std::string spec;
  for (const char* site : sites) {
    if (rng() % 3 == 0) continue;  // leave this site disarmed
    if (!spec.empty()) spec += ";";
    spec += site;
    switch (rng() % 6) {
      case 0:
        spec += "=error";
        break;
      case 1:
      case 2:
        spec += "=error(" + std::to_string(1 + rng() % 50) + "%)";
        break;
      case 3:
      case 4:
        spec += "=error(every:" + std::to_string(2 + rng() % 20) + ")";
        break;
      case 5:
        spec += "=delay(1ms)";
        break;
    }
  }
  if (!spec.empty()) spec += ";";
  spec += "seed=" + std::to_string(schedule);
  return spec;
}

/// Every failure under chaos must be a *typed* error from the governed /
/// injected set — anything else means an engine mangled a fault.
void ExpectChaosStatus(const Status& s, const std::string& spec) {
  EXPECT_TRUE(s.code() == StatusCode::kInternal ||
              s.code() == StatusCode::kResourceExhausted ||
              s.code() == StatusCode::kDeadlineExceeded ||
              s.code() == StatusCode::kCancelled)
      << "unexpected failure shape under schedule '" << spec
      << "': " << s.ToString();
}

/// Arms the global registry for one run; disarms on scope exit.
class ScheduleScope {
 public:
  explicit ScheduleScope(const std::string& spec) {
    SI_CHECK(util::Failpoints::Global().Configure(spec).ok());
  }
  ~ScheduleScope() { util::Failpoints::Global().Clear(); }
};

struct Social {
  SocialConfig config;
  Schema schema = SocialSchema(false);
  Database db{Schema{}};
  AccessSchema access;

  explicit Social(uint64_t persons, uint64_t seed, uint64_t visits = 4) {
    config.num_persons = persons;
    config.max_friends_per_person = 6;
    config.num_restaurants = 20;
    config.avg_visits_per_person = visits;
    config.seed = seed;
    db = GenerateSocial(config);
    access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());
  }
};

TEST(ChaosTest, RaPipelineSurvivesSchedules) {
  Schema schema;
  schema.Relation("emp", {"id", "dept", "city"});
  schema.Relation("dept", {"dept", "budget"});
  Database db(schema);
  for (int64_t i = 0; i < 12; ++i) {
    db.Insert("emp", Tuple{Value::Int(i), Value::Str(i % 2 ? "eng" : "ops"),
                           Value::Str(i % 3 ? "NYC" : "LA")});
  }
  db.Insert("dept", Tuple{Value::Str("eng"), Value::Int(100)});
  db.Insert("dept", Tuple{Value::Str("ops"), Value::Int(50)});
  RaExpr expr = RaExpr::Join(RaExpr::Relation("emp", {"id", "dept", "city"}),
                             RaExpr::Relation("dept", {"dept", "budget"}));

  exec::ExecContext golden_ctx(&db);
  exec::Plan golden_plan = exec::PlanRa(expr, &golden_ctx);
  Relation golden = exec::DrainToRelation(golden_plan.root.get(),
                                          golden_plan.attributes.size());
  ASSERT_TRUE(golden_ctx.ok());
  ASSERT_EQ(golden.size(), 12u);

  for (int i = 0; i < kSchedulesPerEngine; ++i) {
    const std::string spec = RandomSchedule(1000 + i);
    ScheduleScope scope(spec);
    exec::ExecContext ctx(&db);
    exec::Plan plan = exec::PlanRa(expr, &ctx);
    Relation out =
        exec::DrainToRelation(plan.root.get(), plan.attributes.size());
    if (ctx.ok()) {
      EXPECT_EQ(out.SortedTuples(), golden.SortedTuples()) << spec;
    } else {
      ExpectChaosStatus(ctx.status(), spec);
    }
  }
}

TEST(ChaosTest, BoundedEvalSurvivesSchedulesAndBudgets) {
  Social social(60, 41);
  Result<FoQuery> q1 = ParseFoQuery(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      &social.schema);
  ASSERT_TRUE(q1.ok());
  Result<ControllabilityAnalysis> analysis = ControllabilityAnalysis::Analyze(
      q1->body, social.schema, social.access);
  ASSERT_TRUE(analysis.ok());
  FoEvaluator reference(&social.db);

  for (int i = 0; i < kSchedulesPerEngine; ++i) {
    const std::string spec = RandomSchedule(2000 + i);
    Binding params{{V("p"), Value::Int(i % 15)}};
    AnswerSet golden = reference.Evaluate(*q1, params);

    ScheduleScope scope(spec);
    BoundedEvaluator evaluator(&social.db);
    if (i % 3 == 0) {
      // Every third run also arms a tight governor: faults and resource
      // trips compose, and partial answers stay sound.
      exec::GovernorLimits limits;
      limits.fetch_budget = 1 + static_cast<uint64_t>(i % 7);
      evaluator.set_limits(limits);
      Result<exec::Degraded<AnswerSet>> degraded =
          evaluator.EvaluateDegraded(*q1, *analysis, params);
      if (degraded.ok()) {
        EXPECT_TRUE(std::includes(golden.begin(), golden.end(),
                                  degraded->value.begin(),
                                  degraded->value.end()))
            << spec;
        if (degraded->complete) {
          EXPECT_EQ(degraded->value, golden) << spec;
        }
      } else {
        ExpectChaosStatus(degraded.status(), spec);
      }
      continue;
    }
    Result<AnswerSet> out = evaluator.Evaluate(*q1, *analysis, params);
    if (out.ok()) {
      EXPECT_EQ(*out, golden) << spec;
    } else {
      ExpectChaosStatus(out.status(), spec);
    }
  }
}

TEST(ChaosTest, EmbeddedCqSurvivesSchedules) {
  SocialConfig config;
  config.num_persons = 50;
  config.max_friends_per_person = 6;
  config.num_restaurants = 10;
  config.avg_visits_per_person = 8;
  config.num_cities = 2;
  config.num_years = 1;
  config.dated_visits = true;
  config.seed = 19;
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
  BoundedEvaluator evaluator(&db);

  for (int i = 0; i < kSchedulesPerEngine; ++i) {
    const std::string spec = RandomSchedule(3000 + i);
    Binding params{
        {V("p"), Value::Int(i % 20)},
        {V("yy"), Value::Int(static_cast<int64_t>(config.first_year))}};
    Result<AnswerSet> golden = evaluator.EvaluateEmbedded(*analysis, params);
    ASSERT_TRUE(golden.ok());

    ScheduleScope scope(spec);
    Result<AnswerSet> out = evaluator.EvaluateEmbedded(*analysis, params);
    if (out.ok()) {
      EXPECT_EQ(*out, *golden) << spec;
    } else {
      ExpectChaosStatus(out.status(), spec);
    }
  }
}

TEST(ChaosTest, IncrementalMaintenanceSurvivesSchedules) {
  Social social(80, 57);
  AccessSchema access = social.access;
  access.Add("visit", {"id"}, 64);
  access.Add("visit", {"rid"}, 4 * social.config.num_persons);
  ASSERT_TRUE(access.BuildIndexes(&social.db, social.schema).ok());
  Result<Cq> q2 = ParseCq(
      "Q2(p, rn) :- friend(p, id), visit(id, rid), "
      "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")",
      &social.schema);
  ASSERT_TRUE(q2.ok());
  Result<IncrementalMaintainer> m =
      IncrementalMaintainer::Create(*q2, social.schema, access, {V("p")});
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  Binding params{{V("p"), Value::Int(3)}};
  Result<AnswerSet> answers = m->InitialAnswers(&social.db, params);
  ASSERT_TRUE(answers.ok());
  CqEvaluator reference(&social.db);
  Rng update_rng(13);

  for (int i = 0; i < kSchedulesPerEngine; ++i) {
    const std::string spec = RandomSchedule(4000 + i);
    Update u = VisitInsertions(social.db, social.config, 3, &update_rng);
    Status s;
    {
      ScheduleScope scope(spec);
      s = m->Maintain(&social.db, u, params, &*answers, nullptr);
    }
    if (s.ok()) {
      EXPECT_EQ(*answers, reference.EvaluateFull(*q2, params)) << spec;
    } else {
      ExpectChaosStatus(s, spec);
      // A failed batch may have stopped anywhere (before or after the
      // update applied); re-baseline and keep going, as a caller would.
      *answers = reference.EvaluateFull(*q2, params);
    }
  }
}

TEST(ChaosTest, ViewExecutionSurvivesSchedules) {
  Social social(60, 91, /*visits=*/5);
  ViewSet views;
  views.Define("V1(rid, rn, rating) :- restr(rid, rn, \"NYC\", rating)",
               social.schema);
  Schema ext_schema = ExtendedSchema(social.schema, views);
  Result<Cq> rewriting =
      ParseCq("QV(rn, rating) :- V1(rid, rn, rating)", &ext_schema);
  ASSERT_TRUE(rewriting.ok());

  int64_t next_rid = 100000;
  for (int i = 0; i < kSchedulesPerEngine; ++i) {
    const std::string spec = RandomSchedule(5000 + i);
    // Fresh executor per schedule: a failed refresh/maintenance run may
    // leave extents stale, exactly like a restarted process would resolve.
    Result<ViewExecutor> exec_result = ViewExecutor::Create(
        social.db, social.schema, views, social.access);
    ASSERT_TRUE(exec_result.ok()) << exec_result.status().ToString();
    ViewExecutor& view_exec = *exec_result;
    // Goldens are computed *disarmed* — the reference CqEvaluator runs
    // through the exec pipeline, so it would absorb injected faults too.
    CqEvaluator reference(const_cast<Database*>(&view_exec.extended_db()));
    AnswerSet golden = reference.EvaluateFull(*rewriting);
    Update u;
    u.insertions["restr"].push_back(Tuple{Value::Int(next_rid++),
                                          Value::Str("chaos"),
                                          Value::Str("NYC"), Value::Str("A")});

    Result<AnswerSet> out = AnswerSet{};
    Status apply_status;
    {
      ScheduleScope scope(spec);
      out = view_exec.Evaluate(*rewriting, {});
      apply_status = view_exec.ApplyBaseUpdate(u);
    }
    if (out.ok()) {
      EXPECT_EQ(*out, golden) << spec;
    } else {
      ExpectChaosStatus(out.status(), spec);
    }
    if (apply_status.ok()) {
      AnswerSet expected =
          reference.EvaluateFull(views.Find("V1")->definition);
      const Relation& extent = view_exec.extended_db().relation("V1");
      EXPECT_EQ(extent.size(), expected.size()) << spec;
    } else {
      ExpectChaosStatus(apply_status, spec);
    }
  }
}

TEST(ChaosTest, ConcurrentUpdatesVersusQueriesKeepAccountingExact) {
  // Storm schedule: reader tasks evaluate bounded Q1 on four threads under
  // a shared lock while writer tasks mutate `friend` under the exclusive
  // lock. Relation is not reader-safe
  // during mutation, so the readers/writers contract *is* the lock — this
  // test (run under TSan in CI) pins down that the library side (interner,
  // metered probes, per-context accounting) is race-free under it.
  Social social(80, 7);
  Result<FoQuery> q1 = ParseFoQuery(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      &social.schema);
  ASSERT_TRUE(q1.ok());
  Result<ControllabilityAnalysis> analysis = ControllabilityAnalysis::Analyze(
      q1->body, social.schema, social.access);
  ASSERT_TRUE(analysis.ok());
  BoundedEvaluator bounded(&social.db);
  // Prewarm every index the plan probes: Ensure* is const-but-mutating, so
  // index builds must not race with shared-lock readers.
  {
    BoundedEvalStats warm;
    ASSERT_TRUE(
        bounded.Evaluate(*q1, *analysis, {{V("p"), Value::Int(0)}}, &warm)
            .ok());
  }

  const size_t initial_friends = social.db.relation("friend").size();
  std::shared_mutex db_mu;
  constexpr size_t kTasks = 200;
  std::vector<Status> reader_status(kTasks, Status::OK());
  std::atomic<uint64_t> answers_seen{0};
  // Writers insert disjoint fresh tuples, so the final state is independent
  // of interleaving: initial + every written tuple.
  std::vector<Tuple> written(kTasks);
  auto run_task = [&](size_t i) {
    if (i % 4 == 0) {  // writer task
      Tuple t{Value::Int(static_cast<int64_t>(1000 + i)),
              Value::Int(static_cast<int64_t>(2000 + i))};
      std::unique_lock<std::shared_mutex> lock(db_mu);
      social.db.relation("friend").Insert(t);
      written[i] = std::move(t);
    } else {  // reader task
      Binding params{{V("p"), Value::Int(static_cast<int64_t>(i % 40))}};
      std::shared_lock<std::shared_mutex> lock(db_mu);
      BoundedEvalStats stats;
      Result<AnswerSet> r = bounded.Evaluate(*q1, *analysis, params, &stats);
      if (!r.ok()) {
        reader_status[i] = r.status();
      } else {
        answers_seen.fetch_add(r->size(), std::memory_order_relaxed);
      }
    }
  };
  // Each thread claims the next unclaimed task, so reads and writes mix.
  std::atomic<size_t> next_task{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next_task.fetch_add(1)) < kTasks;) run_task(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_TRUE(reader_status[i].ok())
        << i << ": " << reader_status[i].ToString();
  }
  // Final-state equality: exactly the disjoint writes landed.
  const Relation& friends = social.db.relation("friend");
  size_t writes = 0;
  for (size_t i = 0; i < kTasks; ++i) {
    if (i % 4 != 0) continue;
    ++writes;
    EXPECT_TRUE(friends.Contains(written[i])) << i;
  }
  EXPECT_EQ(friends.size(), initial_friends + writes);
  // Post-storm sanity: sequential evaluation still within the static bound.
  BoundedEvalStats stats;
  Result<AnswerSet> after =
      bounded.Evaluate(*q1, *analysis, {{V("p"), Value::Int(3)}}, &stats);
  ASSERT_TRUE(after.ok());
  Result<double> bound = analysis->StaticFetchBound({V("p")});
  ASSERT_TRUE(bound.ok());
  EXPECT_LE(static_cast<double>(stats.base_tuples_fetched), *bound);
}

TEST(ChaosTest, DecisionProceduresDegradeToUnknownUnderFaults) {
  // The §3 search-loop sites: a fault mid-search must degrade the verdict to
  // kUnknown with the Status surfaced in `error` — never forge a yes/no.
  Schema schema;
  schema.Relation("r", {"a", "b"});
  Database db(schema);
  for (int64_t i = 1; i <= 3; ++i) {
    db.Insert("r", Tuple{Value::Int(i), Value::Int(1)});
  }

  // qdsi_subset: the FO subset search, one hit per candidate subset.
  Result<FoQuery> fo = ParseFoQuery("Q() := exists x. exists y. r(x, y)",
                                    &schema);
  ASSERT_TRUE(fo.ok());
  const QdsiDecision fo_golden = DecideQdsiFo(*fo, db, 1);
  {
    ScheduleScope scope("qdsi_subset=error;seed=1");
    QdsiDecision d = DecideQdsiFo(*fo, db, 1);
    EXPECT_EQ(d.verdict, Verdict::kUnknown);
    EXPECT_FALSE(d.error.ok());
  }
  EXPECT_EQ(DecideQdsiFo(*fo, db, 1).verdict, fo_golden.verdict);

  // qdsi_support: the CQ support-cover branch, one hit per answer.
  Result<Cq> cq = ParseCq("Q(a) :- r(a, b)", &schema);
  ASSERT_TRUE(cq.ok());
  const QdsiDecision cq_golden = DecideQdsiCq(*cq, db, 2);
  {
    ScheduleScope scope("qdsi_support=error;seed=1");
    QdsiDecision d = DecideQdsiCq(*cq, db, 2);
    EXPECT_EQ(d.verdict, Verdict::kUnknown);
    EXPECT_FALSE(d.error.ok());
  }
  EXPECT_EQ(DecideQdsiCq(*cq, db, 2).verdict, cq_golden.verdict);

  // qsi_candidate: the QSI(FO) counterexample enumeration, one hit per
  // candidate database.
  QsiFoOptions options;
  options.domain_size = 2;
  options.max_tuples = 2;
  options.max_databases = 50;
  {
    ScheduleScope scope("qsi_candidate=error;seed=1");
    QsiDecision d = DecideQsiFo(*fo, schema, 1, options);
    EXPECT_EQ(d.verdict, Verdict::kUnknown);
    EXPECT_FALSE(d.error.ok());
  }
  // Probabilistic schedules across all three sites: any verdict must be the
  // disarmed golden or kUnknown, never the opposite definite answer.
  for (int i = 0; i < 20; ++i) {
    const std::string spec =
        "qsi_candidate=error(" + std::to_string(10 + i * 4 % 80) +
        "%);qdsi_subset=error(every:" + std::to_string(1 + i % 5) +
        ");qdsi_support=error(" + std::to_string(5 + i * 7 % 90) +
        "%);seed=" + std::to_string(i);
    ScheduleScope scope(spec);
    QdsiDecision d = DecideQdsiFo(*fo, db, 1);
    EXPECT_TRUE(d.verdict == fo_golden.verdict ||
                d.verdict == Verdict::kUnknown)
        << spec;
    QdsiDecision c = DecideQdsiCq(*cq, db, 2);
    EXPECT_TRUE(c.verdict == cq_golden.verdict ||
                c.verdict == Verdict::kUnknown)
        << spec;
  }
}

}  // namespace
}  // namespace scalein
