#include "core/bounded_eval.h"

#include <gtest/gtest.h>

#include "eval/fo_evaluator.h"
#include "exec/compiler.h"
#include "query/parser.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workload/social_gen.h"

namespace scalein {
namespace {

Variable V(const char* name) { return Variable::Named(name); }

FoQuery FQ(const char* text, const Schema& s) {
  Result<FoQuery> q = ParseFoQuery(text, &s);
  SI_CHECK_MSG(q.ok(), q.status().message().c_str());
  return *std::move(q);
}

ControllabilityAnalysis Analyze(const FoQuery& q, const Schema& s,
                                const AccessSchema& a) {
  Result<ControllabilityAnalysis> r =
      ControllabilityAnalysis::Analyze(q.body, s, a);
  SI_CHECK_MSG(r.ok(), r.status().message().c_str());
  return *std::move(r);
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

TEST(BoundedEvalTest, Q1MatchesReferenceEvaluator) {
  Social social(60);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  ControllabilityAnalysis analysis = Analyze(q1, social.schema, social.access);
  BoundedEvaluator bounded(&social.db);
  FoEvaluator reference(&social.db);
  for (int64_t p = 0; p < 10; ++p) {
    Binding params{{V("p"), Value::Int(p)}};
    BoundedEvalStats stats;
    Result<AnswerSet> fast = bounded.Evaluate(q1, analysis, params, &stats);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    AnswerSet slow = reference.Evaluate(q1, params);
    EXPECT_EQ(*fast, slow) << "p = " << p;
    // Fetches stay within the static bound.
    Result<double> bound = analysis.StaticFetchBound({V("p")});
    ASSERT_TRUE(bound.ok());
    EXPECT_LE(static_cast<double>(stats.base_tuples_fetched), *bound);
  }
}

TEST(BoundedEvalTest, FetchCountIndependentOfDatabaseSize) {
  // The headline property: fetches for Q1(p0) do not grow with |D|.
  uint64_t small_fetch = 0;
  uint64_t large_fetch = 0;
  for (uint64_t persons : {200u, 2000u}) {
    Social social(persons);
    FoQuery q1 = FQ(
        "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
        social.schema);
    ControllabilityAnalysis analysis =
        Analyze(q1, social.schema, social.access);
    BoundedEvaluator bounded(&social.db);
    BoundedEvalStats stats;
    Result<AnswerSet> r = bounded.Evaluate(
        q1, analysis, {{V("p"), Value::Int(5)}}, &stats);
    ASSERT_TRUE(r.ok());
    (persons == 200u ? small_fetch : large_fetch) = stats.base_tuples_fetched;
  }
  // Both runs touch at most 2 * cap tuples; sizes differ 10x.
  EXPECT_LE(large_fetch, 2 * 10u);
  EXPECT_LE(small_fetch, 2 * 10u);
}

TEST(BoundedEvalTest, UncontrolledParametersRejected) {
  Social social(30);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  ControllabilityAnalysis analysis = Analyze(q1, social.schema, social.access);
  BoundedEvaluator bounded(&social.db);
  Result<AnswerSet> r =
      bounded.Evaluate(q1, analysis, {{V("name"), Value::Str("p3")}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BoundedEvalTest, EnforceBoundsDetectsNonConformingData) {
  Schema s;
  s.Relation("e", {"a", "b"});
  Database db(s);
  for (int64_t i = 0; i < 5; ++i) {
    db.Insert("e", Tuple{Value::Int(1), Value::Int(i)});
  }
  AccessSchema access;
  access.Add("e", {"a"}, 2);  // declared N = 2, actual 5
  FoQuery q = FQ("Q(x, y) := e(x, y)", s);
  Result<ControllabilityAnalysis> analysis =
      ControllabilityAnalysis::Analyze(q.body, s, access);
  ASSERT_TRUE(analysis.ok());
  BoundedEvaluator bounded(&db);
  bounded.set_enforce_bounds(true);
  Result<AnswerSet> r =
      bounded.Evaluate(q, *analysis, {{V("x"), Value::Int(1)}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  bounded.set_enforce_bounds(false);
  Result<AnswerSet> lenient =
      bounded.Evaluate(q, *analysis, {{V("x"), Value::Int(1)}});
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient->size(), 5u);
}

TEST(BoundedEvalTest, FetchBudgetEnforced) {
  Social social(50);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  ControllabilityAnalysis analysis = Analyze(q1, social.schema, social.access);
  BoundedEvaluator bounded(&social.db);
  Binding params{{V("p"), Value::Int(5)}};

  // Unlimited run to learn the actual fetch count.
  BoundedEvalStats stats;
  Result<AnswerSet> full = bounded.Evaluate(q1, analysis, params, &stats);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(stats.base_tuples_fetched, 1u);

  // A generous budget succeeds; a budget one below the need fails.
  bounded.set_fetch_budget(stats.base_tuples_fetched);
  EXPECT_TRUE(bounded.Evaluate(q1, analysis, params).ok());
  bounded.set_fetch_budget(stats.base_tuples_fetched - 1);
  Result<AnswerSet> capped = bounded.Evaluate(q1, analysis, params);
  EXPECT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
  bounded.set_fetch_budget(0);  // disable
  EXPECT_TRUE(bounded.Evaluate(q1, analysis, params).ok());
}

TEST(BoundedEvalTest, FetchBudgetStopsMidEvaluationWithPartialStats) {
  Social social(50);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  ControllabilityAnalysis analysis = Analyze(q1, social.schema, social.access);
  BoundedEvaluator bounded(&social.db);
  Binding params{{V("p"), Value::Int(5)}};
  BoundedEvalStats full;
  ASSERT_TRUE(bounded.Evaluate(q1, analysis, params, &full).ok());
  ASSERT_GT(full.base_tuples_fetched, 2u);

  // With a budget of 1 the engine must stop at the first overrun, not run
  // to completion and reject afterwards: the partial counters stay strictly
  // below the unbudgeted total.
  bounded.set_fetch_budget(1);
  BoundedEvalStats partial;
  Result<AnswerSet> r = bounded.Evaluate(q1, analysis, params, &partial);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(partial.base_tuples_fetched, 0u);
  EXPECT_LT(partial.base_tuples_fetched, full.base_tuples_fetched);
}

TEST(BoundedEvalTest, StatsAccumulateAcrossEvaluations) {
  // One stats object fed by several evaluations (the incremental
  // maintainer's usage): totals add up, the budget stays per-evaluation.
  Social social(50);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  ControllabilityAnalysis analysis = Analyze(q1, social.schema, social.access);
  BoundedEvaluator bounded(&social.db);
  Binding params{{V("p"), Value::Int(5)}};
  BoundedEvalStats once;
  ASSERT_TRUE(bounded.Evaluate(q1, analysis, params, &once).ok());
  ASSERT_GT(once.base_tuples_fetched, 0u);
  ASSERT_GT(once.index_lookups, 0u);

  BoundedEvalStats twice;
  ASSERT_TRUE(bounded.Evaluate(q1, analysis, params, &twice).ok());
  ASSERT_TRUE(bounded.Evaluate(q1, analysis, params, &twice).ok());
  EXPECT_EQ(twice.base_tuples_fetched, 2 * once.base_tuples_fetched);
  EXPECT_EQ(twice.index_lookups, 2 * once.index_lookups);
  EXPECT_EQ(twice.fetched_by_relation.at("friend"),
            2 * once.fetched_by_relation.at("friend"));

  // A budget large enough for one evaluation does not trip on the second:
  // the cap is per Evaluate call, not per stats object.
  bounded.set_fetch_budget(once.base_tuples_fetched);
  EXPECT_TRUE(bounded.Evaluate(q1, analysis, params).ok());
  EXPECT_TRUE(bounded.Evaluate(q1, analysis, params).ok());
}

TEST(BoundedEvalTest, SafeNegationExecution) {
  Schema s;
  s.Relation("r", {"a", "b"});
  s.Relation("blocked", {"a", "b"});
  Database db(s);
  db.Insert("r", Tuple{Value::Int(1), Value::Int(10)});
  db.Insert("r", Tuple{Value::Int(1), Value::Int(11)});
  db.Insert("blocked", Tuple{Value::Int(1), Value::Int(10)});
  AccessSchema access;
  access.Add("r", {"a"}, 5);
  access.Add("blocked", {"a", "b"}, 1);
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  FoQuery q = FQ("Q(x, y) := r(x, y) and not blocked(x, y)", s);
  ControllabilityAnalysis analysis = Analyze(q, s, access);
  BoundedEvaluator bounded(&db);
  Result<AnswerSet> r = bounded.Evaluate(q, analysis, {{V("x"), Value::Int(1)}});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(*r->begin(), Tuple{Value::Int(11)});
}

TEST(BoundedEvalTest, UniversalRuleExecution) {
  Schema s;
  s.Relation("R", {"A", "B"});
  s.Relation("S", {"A", "B", "C"});
  s.Relation("T", {"A", "B", "C"});
  Database db(s);
  // R(1, 10): all S(1, 10, ·) ⊆ T — holds. R(1, 11): violated.
  db.Insert("R", Tuple{Value::Int(1), Value::Int(10)});
  db.Insert("R", Tuple{Value::Int(1), Value::Int(11)});
  db.Insert("S", Tuple{Value::Int(1), Value::Int(10), Value::Int(7)});
  db.Insert("T", Tuple{Value::Int(1), Value::Int(10), Value::Int(7)});
  db.Insert("S", Tuple{Value::Int(1), Value::Int(11), Value::Int(8)});
  AccessSchema access;
  access.Add("R", {"A"}, 10);
  access.Add("S", {"A", "B"}, 10);
  access.Add("T", {"A", "B", "C"}, 1);
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  FoQuery q = FQ(
      "Q(x, y) := R(x, y) and (forall z. S(x, y, z) implies T(x, y, z))", s);
  ControllabilityAnalysis analysis = Analyze(q, s, access);
  BoundedEvaluator bounded(&db);
  Result<AnswerSet> r = bounded.Evaluate(q, analysis, {{V("x"), Value::Int(1)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(*r->begin(), Tuple{Value::Int(10)});
  // Cross-check against the reference evaluator.
  FoEvaluator reference(&db);
  EXPECT_EQ(*r, reference.Evaluate(q, {{V("x"), Value::Int(1)}}));
}

TEST(BoundedEvalTest, DisjunctionExecution) {
  Schema s;
  s.Relation("r", {"a", "b"});
  s.Relation("t", {"a", "b"});
  Database db(s);
  db.Insert("r", Tuple{Value::Int(1), Value::Int(10)});
  db.Insert("t", Tuple{Value::Int(1), Value::Int(20)});
  AccessSchema access;
  access.Add("r", {"a"}, 5);
  access.Add("t", {"a"}, 5);
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  FoQuery q = FQ("Q(x, y) := r(x, y) or t(x, y)", s);
  ControllabilityAnalysis analysis = Analyze(q, s, access);
  BoundedEvaluator bounded(&db);
  Result<AnswerSet> r = bounded.Evaluate(q, analysis, {{V("x"), Value::Int(1)}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

/// Property: wherever the analysis derives controllability, the bounded
/// executor agrees with the reference evaluator and respects the bound.
class BoundedVsNaiveProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundedVsNaiveProperty, AgreeOnConformingData) {
  Rng rng(GetParam());
  Schema s;
  s.Relation("r", {"a", "b"});
  s.Relation("t", {"a", "b"});
  // Build a conforming database: ≤3 tuples per key on both index attrs.
  Database db(s);
  for (int rel = 0; rel < 2; ++rel) {
    const char* name = rel == 0 ? "r" : "t";
    for (int64_t key = 0; key < 4; ++key) {
      uint64_t group = rng.Uniform(4);  // ≤ 3
      for (uint64_t g = 0; g < group; ++g) {
        db.Insert(name, Tuple{Value::Int(key),
                              Value::Int(static_cast<int64_t>(rng.Uniform(6)))});
      }
    }
  }
  AccessSchema access;
  access.Add("r", {"a"}, 3);
  access.Add("t", {"a"}, 3);
  access.Add("t", {"a", "b"}, 1);
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());

  const char* queries[] = {
      "Q(x, y) := r(x, y)",
      "Q(x, z) := exists y. r(x, y) and t(y, z)",
      "Q(x, y) := r(x, y) and not t(x, y)",
      "Q(x) := exists y. r(x, y) and t(x, y)",
      "Q(x, y) := r(x, y) and (y = 2 or y = 3)",
      "Q(x) := forall y. r(x, y) implies t(x, y)",
  };
  for (const char* text : queries) {
    FoQuery q = FQ(text, s);
    ControllabilityAnalysis analysis = Analyze(q, s, access);
    Variable x = V("x");
    if (!analysis.IsControlledBy({x})) continue;
    BoundedEvaluator bounded(&db);
    FoEvaluator reference(&db);
    for (int64_t p = 0; p < 4; ++p) {
      Binding params{{x, Value::Int(p)}};
      BoundedEvalStats stats;
      Result<AnswerSet> fast = bounded.Evaluate(q, analysis, params, &stats);
      ASSERT_TRUE(fast.ok()) << text;
      EXPECT_EQ(*fast, reference.Evaluate(q, params)) << text << " p=" << p;
      Result<double> bound = analysis.StaticFetchBound({x});
      ASSERT_TRUE(bound.ok());
      EXPECT_LE(static_cast<double>(stats.base_tuples_fetched), *bound) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedVsNaiveProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// The VM's in-order fast paths and their fallbacks (exec/bytecode.h:
// PlainNode::dedup_adjacent; exec/vm.cc: EMIT's end-hinted insert and the
// probe prefetch in "and"), each against FoEvaluator. Variable ids
// follow interning order, so each test interns its variables up front to
// fix the layouts it needs.

/// R, S, T: binary relations, each with an access statement on its first
/// attribute.
struct Chain {
  Schema schema;
  Database db{Schema{}};
  AccessSchema access;

  Chain() {
    for (const char* name : {"R", "S", "T"}) schema.Relation(name, {"a", "b"});
    db = Database(schema);
    for (const char* name : {"R", "S", "T"}) access.Add(name, {"a"}, 1000);
  }
  void Add(const char* rel, int64_t a, int64_t b) {
    db.Insert(rel, Tuple{Value::Int(a), Value::Int(b)});
  }
  void BuildIndexes() { SI_CHECK(access.BuildIndexes(&db, schema).ok()); }
};

std::shared_ptr<const exec::CompiledProgram> Compile(
    const FoQuery& q, const Schema& s, const AccessSchema& a,
    const VarSet& params) {
  auto analysis = std::make_shared<const ControllabilityAnalysis>(
      Analyze(q, s, a));
  Result<std::shared_ptr<const exec::CompiledProgram>> program =
      exec::CompilePlain(q, analysis, params);
  SI_CHECK_MSG(program.ok(), program.status().message().c_str());
  return *std::move(program);
}

const exec::PlainNode* FindNode(const exec::CompiledProgram& p,
                                ControlRule rule) {
  for (const exec::PlainNode& node : p.nodes) {
    if (node.rule == rule) return &node;
  }
  return nullptr;
}

TEST(BoundedFastPathTest, AnswersMatchWhetherOrNotTheHeadIsTheRootLayout) {
  V("ho_a");
  V("ho_b");  // interned after ho_a: the root layout is (ho_a, ho_b)
  Chain c;
  c.Add("R", 1, 10);
  c.Add("R", 1, 11);
  c.Add("S", 10, 200);
  c.Add("S", 10, 100);
  c.Add("S", 11, 150);
  c.BuildIndexes();
  const Binding params{{V("x"), Value::Int(1)}};
  for (const char* text :
       {"Q(x, ho_a, ho_b) := R(x, ho_a) and S(ho_a, ho_b)",
        "Q(x, ho_b, ho_a) := R(x, ho_a) and S(ho_a, ho_b)"}) {
    FoQuery q = FQ(text, c.schema);
    auto program = Compile(q, c.schema, c.access, {V("x")});
    EXPECT_EQ(program->nodes[0].layout.size(), 2u) << text;
    Result<AnswerSet> fast = BoundedEvaluator(&c.db).Evaluate(*program, params);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(*fast, FoEvaluator(&c.db).Evaluate(q, params)) << text;
    EXPECT_EQ(fast->size(), 3u) << text;
  }
}

TEST(BoundedFastPathTest, ExistsSortsUnlessItsLayoutPrefixesTheBody) {
  // ex_q before ex_f: the body's layout (ex_q, ex_f) does not start with
  // the exists' (ex_f), so its rows are not sorted on it and must be sorted.
  // ey_f before ey_q: (ey_f) prefixes (ey_f, ey_q), so adjacent dedup.
  V("ex_q");
  V("ex_f");
  V("ey_f");
  V("ey_q");
  Chain c;
  c.Add("R", 1, 1);
  c.Add("R", 1, 2);
  c.Add("R", 1, 3);
  c.Add("S", 1, 30);  // body rows on (q, f): (1,30) (2,10) (3,30)
  c.Add("S", 2, 10);
  c.Add("S", 3, 30);
  c.Add("T", 10, 7);
  c.Add("T", 30, 8);
  c.BuildIndexes();
  const Binding params{{V("x"), Value::Int(1)}};
  for (const char* text :
       {"Q(x, ex_f, v) := (exists ex_q. R(x, ex_q) and S(ex_q, ex_f)) and "
        "T(ex_f, v)",
        "Q(x, ey_f, v) := (exists ey_q. R(x, ey_q) and S(ey_q, ey_f)) and "
        "T(ey_f, v)"}) {
    FoQuery q = FQ(text, c.schema);
    auto program = Compile(q, c.schema, c.access, {V("x")});
    const exec::PlainNode* exists = FindNode(*program, ControlRule::kExists);
    ASSERT_NE(exists, nullptr) << text;
    EXPECT_EQ(exists->dedup_adjacent, std::string(text).find("ey_") !=
                                          std::string::npos)
        << text;
    BoundedEvalStats stats;
    stats.capture_ops = true;
    Result<AnswerSet> fast =
        BoundedEvaluator(&c.db).Evaluate(*program, params, &stats);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(*fast, FoEvaluator(&c.db).Evaluate(q, params)) << text;
    // Two distinct f values leave the exists, so T is probed twice: R once,
    // S three times, T twice.
    EXPECT_EQ(stats.index_lookups, 6u) << text;
    EXPECT_EQ(stats.ops[exists->op_idx].rows_out, 2u) << text;
  }
}

TEST(BoundedFastPathTest, StringAnswersInternedOutOfOrderEmitSorted) {
  for (const char* name : {"zeta$fp", "alpha$fp", "mid$fp"}) Value::Str(name);
  Schema s;
  s.Relation("knows", {"a", "b"});
  s.Relation("named", {"id", "name"});
  Database db(s);
  for (int64_t id : {2, 3, 4, 5}) {
    db.Insert("knows", Tuple{Value::Int(1), Value::Int(id)});
  }
  db.Insert("named", Tuple{Value::Int(2), Value::Str("zeta$fp")});
  db.Insert("named", Tuple{Value::Int(3), Value::Str("alpha$fp")});
  db.Insert("named", Tuple{Value::Int(4), Value::Str("mid$fp")});
  db.Insert("named", Tuple{Value::Int(5), Value::Str("zeta$fp")});
  AccessSchema access;
  access.Add("knows", {"a"}, 10);
  access.Add("named", {"id"}, 1);
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  FoQuery q = FQ("Q(x, fp_name) := exists fp_id. knows(x, fp_id) and "
                 "named(fp_id, fp_name)",
                 s);
  auto program = Compile(q, s, access, {V("x")});
  ASSERT_NE(FindNode(*program, ControlRule::kExists), nullptr);
  EXPECT_TRUE(FindNode(*program, ControlRule::kExists)->dedup_adjacent);
  const Binding params{{V("x"), Value::Int(1)}};
  Result<AnswerSet> fast = BoundedEvaluator(&db).Evaluate(*program, params);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(*fast, FoEvaluator(&db).Evaluate(q, params));
  std::vector<std::string> names;
  for (const Tuple& t : *fast) names.push_back(t[0].AsString());
  EXPECT_EQ(names,
            (std::vector<std::string>{"alpha$fp", "mid$fp", "zeta$fp"}));
}

TEST(BoundedFastPathTest, RowCapKeepsTheFirstAnswersInRowOrder) {
  V("rc_a");
  V("rc_b");  // interned after rc_a: the root layout is (rc_a, rc_b)
  Chain c;
  for (int64_t a : {10, 11, 12}) c.Add("R", 1, a);
  c.Add("S", 10, 100);  // root rows on (a, b): (10,50) (10,100) (11,70)
  c.Add("S", 10, 50);   //                      (12,5) (12,60)
  c.Add("S", 11, 70);
  c.Add("S", 12, 60);
  c.Add("S", 12, 5);
  c.BuildIndexes();
  // The same rows projected in the root's order and reversed: reversed, the
  // answers arrive out of set order, and the tripping answer (60, 12) lands
  // between survivors.
  FoQuery same = FQ("Q(x, rc_a, rc_b) := R(x, rc_a) and S(rc_a, rc_b)",
                    c.schema);
  FoQuery reversed = FQ("Q(x, rc_b, rc_a) := R(x, rc_a) and S(rc_a, rc_b)",
                        c.schema);
  BoundedEvaluator evaluator(&c.db);
  exec::GovernorLimits limits;
  limits.output_row_cap = 4;
  evaluator.set_limits(limits);
  const Binding params{{V("x"), Value::Int(1)}};
  Result<exec::Degraded<AnswerSet>> in_order = evaluator.EvaluateDegraded(
      *Compile(same, c.schema, c.access, {V("x")}), params);
  Result<exec::Degraded<AnswerSet>> out_of_order = evaluator.EvaluateDegraded(
      *Compile(reversed, c.schema, c.access, {V("x")}), params);
  ASSERT_TRUE(in_order.ok() && out_of_order.ok());
  const auto t = [](int64_t a, int64_t b) {
    return Tuple{Value::Int(a), Value::Int(b)};
  };
  EXPECT_EQ(in_order->value,
            (AnswerSet{t(10, 50), t(10, 100), t(11, 70), t(12, 5)}));
  EXPECT_EQ(out_of_order->value,
            (AnswerSet{t(50, 10), t(100, 10), t(70, 11), t(5, 12)}));
  for (const auto* r : {&*in_order, &*out_of_order}) {
    EXPECT_FALSE(r->complete);
    EXPECT_EQ(r->base_tuples_fetched, 8u);
  }
  EXPECT_EQ(in_order->trip.ToString(), out_of_order->trip.ToString());
  // Uncapped, both match the reference.
  BoundedEvaluator uncapped(&c.db);
  for (const FoQuery* q : {&same, &reversed}) {
    Result<AnswerSet> all = uncapped.Evaluate(
        *Compile(*q, c.schema, c.access, {V("x")}), params);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    EXPECT_EQ(*all, FoEvaluator(&c.db).Evaluate(*q, params));
    EXPECT_EQ(all->size(), 5u);
  }
}

/// "Q(x, pb) := exists pa. R(x, pa) and S(pa, pb)": one R probe, then one
/// S probe per R row, prefetched as a batch.
FoQuery TwoHop(const Chain& c) {
  return FQ("Q(x, pf_b) := exists pf_a. R(x, pf_a) and S(pf_a, pf_b)",
            c.schema);
}

TEST(BoundedFastPathTest, PrefetchSkipsAnIndexThatDoesNotExistYet) {
  Chain c;
  for (int64_t a : {10, 11, 12}) c.Add("R", 1, a);
  c.Add("S", 10, 100);
  c.Add("S", 11, 110);
  c.Add("S", 11, 111);
  FoQuery q = TwoHop(c);
  auto program = Compile(q, c.schema, c.access, {V("x")});
  ASSERT_EQ(c.db.relation("S").FindIndex({0}), nullptr);
  const Binding params{{V("x"), Value::Int(1)}};
  BoundedEvalStats stats;
  Result<AnswerSet> fast =
      BoundedEvaluator(&c.db).Evaluate(*program, params, &stats);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_NE(c.db.relation("S").FindIndex({0}), nullptr);  // built on probe
  EXPECT_EQ(*fast, FoEvaluator(&c.db).Evaluate(q, params));
  EXPECT_EQ(stats.index_lookups, 4u);
  EXPECT_EQ(stats.base_tuples_fetched, 6u);
}

TEST(BoundedFastPathTest, PrefetchOverAnEmptyRelation) {
  Chain c;
  for (int64_t a : {10, 11, 12}) c.Add("R", 1, a);
  c.BuildIndexes();  // S's index exists and is empty
  FoQuery q = TwoHop(c);
  auto program = Compile(q, c.schema, c.access, {V("x")});
  const Binding params{{V("x"), Value::Int(1)}};
  BoundedEvalStats stats;
  Result<AnswerSet> fast =
      BoundedEvaluator(&c.db).Evaluate(*program, params, &stats);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_TRUE(fast->empty());
  EXPECT_EQ(*fast, FoEvaluator(&c.db).Evaluate(q, params));
  EXPECT_EQ(stats.index_lookups, 4u);
  EXPECT_EQ(stats.base_tuples_fetched, 3u);
  EXPECT_EQ(stats.fetched_by_relation.at("S"), 0u);
}

TEST(BoundedFastPathTest, PrefetchLeavesTheProbeFailpointToEveryProbe) {
  Chain c;
  for (int64_t a : {10, 11, 12}) c.Add("R", 1, a);
  c.Add("S", 10, 100);
  c.Add("S", 11, 110);
  c.Add("S", 12, 120);
  c.BuildIndexes();
  FoQuery q = TwoHop(c);
  auto program = Compile(q, c.schema, c.access, {V("x")});
  util::Failpoints& fp = util::Failpoints::Global();
  ASSERT_TRUE(fp.Configure("index_probe=error(every:3)").ok());
  BoundedEvalStats stats;
  Result<AnswerSet> fast = BoundedEvaluator(&c.db).Evaluate(
      *program, {{V("x"), Value::Int(1)}}, &stats);
  const uint64_t hits = fp.hits();
  fp.Clear();
  ASSERT_FALSE(fast.ok());
  EXPECT_NE(fast.status().message().find("index_probe"), std::string::npos)
      << fast.status().ToString();
  // The prefetch of the three S probes hit nothing: the third probe (the
  // second S probe) fired, after one R probe of 3 rows and one S probe.
  EXPECT_EQ(hits, 3u);
  EXPECT_EQ(stats.index_lookups, 2u);
  EXPECT_EQ(stats.base_tuples_fetched, 4u);
}

TEST(BoundedFastPathTest, PrefetchBatchesAgreeWithTheReference) {
  Chain c;
  for (int64_t a = 0; a < 300; ++a) {
    c.Add("R", 1, a);
    if (a % 2 == 0) c.Add("S", a, 1000 + a);
    if (a % 3 == 0) c.Add("S", a, 2000 + a);
  }
  c.BuildIndexes();
  FoQuery q = TwoHop(c);
  auto program = Compile(q, c.schema, c.access, {V("x")});
  const Binding params{{V("x"), Value::Int(1)}};
  BoundedEvalStats stats;
  Result<AnswerSet> fast =
      BoundedEvaluator(&c.db).Evaluate(*program, params, &stats);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(*fast, FoEvaluator(&c.db).Evaluate(q, params));
  EXPECT_EQ(stats.index_lookups, 301u);
  EXPECT_EQ(stats.base_tuples_fetched, 300u + 150u + 100u);
}

}  // namespace
}  // namespace scalein
