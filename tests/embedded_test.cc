#include "core/embedded_controllability.h"

#include <gtest/gtest.h>

#include "core/bounded_eval.h"
#include "eval/cq_evaluator.h"
#include "query/parser.h"
#include "workload/social_gen.h"

namespace scalein {
namespace {

Variable V(const char* name) { return Variable::Named(name); }

Cq Q3(const Schema& s) {
  Result<Cq> q = ParseCq(
      "Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
      "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")",
      &s);
  SI_CHECK_MSG(q.ok(), q.status().message().c_str());
  return *std::move(q);
}

struct DatedSocial {
  SocialConfig config;
  Schema schema = SocialSchema(true);
  Database db{Schema{}};
  AccessSchema access;

  DatedSocial() {
    config.num_persons = 80;
    config.max_friends_per_person = 8;
    config.num_restaurants = 12;
    config.avg_visits_per_person = 14;
    config.num_cities = 2;  // half the world lives in NYC
    config.num_years = 1;
    config.dated_visits = true;
    config.seed = 17;
    db = GenerateSocial(config);
    access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());
  }
};

TEST(EmbeddedTest, Example46Q3BecomesScaleIndependent) {
  DatedSocial social;
  Cq q3 = Q3(social.schema);
  Result<EmbeddedCqAnalysis> analysis = EmbeddedCqAnalysis::Analyze(
      q3, social.schema, social.access, {V("p"), V("yy")});
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(analysis->IsScaleIndependent());
  EXPECT_GT(analysis->StaticFetchBound(), 0);
  std::string explanation = analysis->Explain();
  EXPECT_NE(explanation.find("chase"), std::string::npos);
}

TEST(EmbeddedTest, Q3NotScaleIndependentWithoutEmbeddedStatements) {
  DatedSocial social;
  Cq q3 = Q3(social.schema);
  // Same schema minus the two embedded statements of Example 4.6.
  AccessSchema plain_only;
  plain_only.Add("friend", {"id1"}, social.config.max_friends_per_person);
  plain_only.AddKey("person", {"id"});
  plain_only.AddKey("restr", {"rid"});
  plain_only.Add("restr", {"city"}, social.config.num_restaurants);
  Result<EmbeddedCqAnalysis> analysis = EmbeddedCqAnalysis::Analyze(
      q3, social.schema, plain_only, {V("p"), V("yy")});
  ASSERT_TRUE(analysis.ok());
  EXPECT_FALSE(analysis->IsScaleIndependent());
}

TEST(EmbeddedTest, Q3NotControlledByPAlone) {
  DatedSocial social;
  Cq q3 = Q3(social.schema);
  Result<EmbeddedCqAnalysis> analysis =
      EmbeddedCqAnalysis::Analyze(q3, social.schema, social.access, {V("p")});
  ASSERT_TRUE(analysis.ok());
  EXPECT_FALSE(analysis->IsScaleIndependent());
}

TEST(EmbeddedTest, ExecutionMatchesCqEvaluator) {
  DatedSocial social;
  Cq q3 = Q3(social.schema);
  Result<EmbeddedCqAnalysis> analysis = EmbeddedCqAnalysis::Analyze(
      q3, social.schema, social.access, {V("p"), V("yy")});
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->IsScaleIndependent());

  BoundedEvaluator bounded(&social.db);
  CqEvaluator reference(&social.db);
  int nonempty = 0;
  for (int64_t p = 0; p < 20; ++p) {
    Binding params{{V("p"), Value::Int(p)},
                   {V("yy"), Value::Int(static_cast<int64_t>(
                                 social.config.first_year))}};
    BoundedEvalStats stats;
    Result<AnswerSet> fast = bounded.EvaluateEmbedded(*analysis, params, &stats);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    AnswerSet slow = reference.Evaluate(q3, params);
    EXPECT_EQ(*fast, slow) << "p=" << p;
    if (!slow.empty()) ++nonempty;
    EXPECT_LE(static_cast<double>(stats.base_tuples_fetched),
              analysis->StaticFetchBound());
  }
  EXPECT_GT(nonempty, 0);  // the scenario actually exercises answers
}

TEST(EmbeddedTest, FetchesDoNotGrowWithDatabase) {
  uint64_t fetches[2] = {0, 0};
  int slot = 0;
  for (uint64_t persons : {100u, 1000u}) {
    SocialConfig config;
    config.num_persons = persons;
    config.max_friends_per_person = 6;
    config.num_restaurants = 25;
    config.avg_visits_per_person = 6;
    config.dated_visits = true;
    config.seed = 5;
    Schema schema = SocialSchema(true);
    Database db = GenerateSocial(config);
    AccessSchema access = SocialAccessSchema(config);
    ASSERT_TRUE(access.BuildIndexes(&db, schema).ok());
    Cq q3 = Q3(schema);
    Result<EmbeddedCqAnalysis> analysis =
        EmbeddedCqAnalysis::Analyze(q3, schema, access, {V("p"), V("yy")});
    ASSERT_TRUE(analysis.ok());
    ASSERT_TRUE(analysis->IsScaleIndependent());
    BoundedEvaluator bounded(&db);
    BoundedEvalStats stats;
    Binding params{{V("p"), Value::Int(3)},
                   {V("yy"), Value::Int(static_cast<int64_t>(config.first_year))}};
    ASSERT_TRUE(bounded.EvaluateEmbedded(*analysis, params, &stats).ok());
    fetches[slot++] = stats.base_tuples_fetched;
  }
  // The static bound is the same for both sizes; both runs stay below it,
  // and the big run is not ×10 the small one.
  EXPECT_LE(fetches[1], fetches[0] * 3 + 50);
}

TEST(EmbeddedTest, ChaseUsesVerificationWhenProjectionsPartial) {
  // Statements exposing disjoint halves of a relation force candidate
  // verification through a plain statement.
  Schema s;
  s.Relation("r", {"k", "a", "b"});
  Database db(s);
  db.Insert("r", Tuple{Value::Int(1), Value::Int(10), Value::Int(100)});
  db.Insert("r", Tuple{Value::Int(1), Value::Int(20), Value::Int(200)});
  AccessSchema access;
  access.AddEmbedded("r", {"k"}, {"a"}, 5);
  access.AddEmbedded("r", {"k"}, {"b"}, 5);
  access.Add("r", {"k"}, 10);  // plain verifier
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  Result<Cq> q = ParseCq("Q(a, b) :- r(k, a, b)", &s);
  ASSERT_TRUE(q.ok());
  Result<EmbeddedCqAnalysis> analysis =
      EmbeddedCqAnalysis::Analyze(*q, s, access, {V("k")});
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->IsScaleIndependent());
  BoundedEvaluator bounded(&db);
  Result<AnswerSet> answers = bounded.EvaluateEmbedded(
      *analysis, {{V("k"), Value::Int(1)}}, nullptr);
  ASSERT_TRUE(answers.ok());
  // The cross product (10,200)/(20,100) must have been filtered out.
  EXPECT_EQ(answers->size(), 2u);
  EXPECT_TRUE(answers->count(Tuple{Value::Int(10), Value::Int(100)}));
  EXPECT_TRUE(answers->count(Tuple{Value::Int(20), Value::Int(200)}));
}

TEST(EmbeddedTest, NoVerifierMeansNoPlan) {
  Schema s;
  s.Relation("r", {"k", "a", "b"});
  AccessSchema access;
  access.AddEmbedded("r", {"k"}, {"a"}, 5);
  access.AddEmbedded("r", {"k"}, {"b"}, 5);
  // No plain statement: candidates cannot be verified.
  Result<Cq> q = ParseCq("Q(a, b) :- r(k, a, b)", &s);
  ASSERT_TRUE(q.ok());
  Result<EmbeddedCqAnalysis> analysis =
      EmbeddedCqAnalysis::Analyze(*q, s, access, {V("k")});
  ASSERT_TRUE(analysis.ok());
  EXPECT_FALSE(analysis->IsScaleIndependent());
}

TEST(EmbeddedTest, MinimalClosuresMatchExample46) {
  DatedSocial social;
  // Example 4.6's derivation at the atom level: {id, yy} is the unique
  // minimal set (within size 2) from which the chase covers visit — the
  // 366-days statement enumerates (mm, dd) from yy, then the FD closes rid;
  // neither attribute alone suffices.
  Result<std::vector<EmbeddedClosure>> closures =
      MinimalEmbeddedClosures("visit", social.schema, social.access, 2);
  ASSERT_TRUE(closures.ok());
  ASSERT_EQ(closures->size(), 1u);
  EXPECT_EQ((*closures)[0].key_attrs, (std::vector<std::string>{"id", "yy"}));
  EXPECT_FALSE((*closures)[0].needs_verification);  // FD exposes all attrs
  EXPECT_LE((*closures)[0].candidate_bound, 366.0);

  // Without the embedded statements there are no closures at all (visit has
  // no plain statement either).
  AccessSchema plain_only;
  plain_only.Add("friend", {"id1"}, 8);
  Result<std::vector<EmbeddedClosure>> none =
      MinimalEmbeddedClosures("visit", social.schema, plain_only, 2);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(EmbeddedTest, MissingParameterRejectedAtEvaluation) {
  DatedSocial social;
  Cq q3 = Q3(social.schema);
  Result<EmbeddedCqAnalysis> analysis = EmbeddedCqAnalysis::Analyze(
      q3, social.schema, social.access, {V("p"), V("yy")});
  ASSERT_TRUE(analysis.ok());
  BoundedEvaluator bounded(&social.db);
  Result<AnswerSet> r =
      bounded.EvaluateEmbedded(*analysis, {{V("p"), Value::Int(1)}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(EmbeddedTest, ChaseOverAtomWiderThanOneMachineWord) {
  // 65 attributes: the chase's candidate tuples are wider than a 64-bit
  // word, and two overlapping statements make later steps check columns an
  // earlier step bound.
  std::vector<std::string> attrs;
  for (int i = 0; i < 65; ++i) attrs.push_back("a" + std::to_string(i));
  Schema s;
  s.Relation("w", attrs);
  Database db(s);
  for (int64_t k = 0; k < 3; ++k) {
    for (int64_t j = 0; j < 3; ++j) {
      Tuple t;
      for (int64_t i = 0; i < 65; ++i) {
        t.push_back(Value::Int(k * 1000 + (i < 33 ? j % 2 : j) * 100 + i));
      }
      t[0] = Value::Int(k);
      db.Insert("w", std::move(t));
    }
  }
  AccessSchema access;
  access.AddEmbedded("w", {"a0"},
                     std::vector<std::string>(attrs.begin() + 1,
                                              attrs.begin() + 41),
                     4);
  access.AddEmbedded("w", {"a0"},
                     std::vector<std::string>(attrs.begin() + 30, attrs.end()),
                     4);
  access.Add("w", {"a0", "a1"}, 3);  // verifier
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  std::string text = "Q(v1, v35, v64) :- w(k";
  for (int i = 1; i < 65; ++i) text += ", v" + std::to_string(i);
  Result<Cq> q = ParseCq(text + ")", &s);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Result<EmbeddedCqAnalysis> analysis =
      EmbeddedCqAnalysis::Analyze(*q, s, access, {V("k")});
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->IsScaleIndependent());
  BoundedEvaluator bounded(&db);
  CqEvaluator reference(&db);
  for (int64_t k = 0; k < 4; ++k) {
    const Binding params{{V("k"), Value::Int(k)}};
    BoundedEvalStats stats;
    Result<AnswerSet> fast =
        bounded.EvaluateEmbedded(*analysis, params, &stats);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(*fast, reference.Evaluate(*q, params)) << "k=" << k;
    EXPECT_EQ(fast->size(), k < 3 ? 3u : 0u) << "k=" << k;
    EXPECT_LE(static_cast<double>(stats.base_tuples_fetched),
              analysis->StaticFetchBound());
  }
}

}  // namespace
}  // namespace scalein
