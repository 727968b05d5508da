// Whole-engine soundness fuzz for §4: on random databases with empirically
// derived access schemas (declared N = observed max group size, so the
// database conforms by construction), every controllability derivation the
// engine produces must execute correctly — bounded answers equal the
// reference active-domain semantics and the fetch count stays within the
// static bound. This is the Theorem 4.2 statement as a property test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "eval/fo_evaluator.h"
#include "exec/compiler.h"
#include "workload/formula_gen.h"

namespace scalein {
namespace {

/// Derives an access schema whose statements are true of `db` by
/// construction: for each relation, the full key set and a few random proper
/// subsets, each with the observed maximum bucket size as its N.
AccessSchema EmpiricalAccessSchema(Database* db, const Schema& schema,
                                   Rng* rng) {
  AccessSchema access;
  for (const RelationSchema& rs : schema.relations()) {
    Relation& rel = db->relation(rs.name());
    std::vector<std::vector<size_t>> subsets;
    // All single attributes plus the full attribute set.
    for (size_t p = 0; p < rs.arity(); ++p) subsets.push_back({p});
    std::vector<size_t> all(rs.arity());
    for (size_t p = 0; p < rs.arity(); ++p) all[p] = p;
    subsets.push_back(all);
    for (const std::vector<size_t>& positions : subsets) {
      if (rng->Bernoulli(0.25)) continue;  // leave some relations less covered
      const HashIndex& idx = rel.EnsureIndex(positions);
      uint64_t n = std::max<uint64_t>(1, idx.MaxBucketSize());
      std::vector<std::string> attrs;
      for (size_t p : positions) attrs.push_back(rs.attributes()[p]);
      access.Add(rs.name(), attrs, n);
    }
  }
  return access;
}

/// One round of the generator: a random database, an access schema true of
/// it, a random FO query and the query's analysis.
struct FuzzRound {
  Database db{Schema{}};
  FoQuery q;
  std::shared_ptr<const ControllabilityAnalysis> analysis;
  std::vector<Value> adom;  ///< sorted
};

/// Calls `fn(round, &rng)` for each of `seed`'s twelve rounds whose query
/// analyzes over a non-empty database; `fn` draws parameters from `rng`.
template <typename Fn>
void ForEachRound(uint64_t seed, const Fn& fn) {
  Rng rng(seed);
  FormulaGenConfig config;
  config.num_relations = 3;
  config.max_arity = 3;
  config.num_variables = 3;
  config.domain_size = 3;
  for (int i = 0; i < 12; ++i) {
    FuzzRound round;
    Schema schema = RandomSchema(config, &rng);
    round.db = RandomDatabase(schema, config, 10, &rng);
    AccessSchema access = EmpiricalAccessSchema(&round.db, schema, &rng);
    // Sanity: the derived schema really conforms.
    Result<ConformanceReport> conf = CheckConformance(round.db, schema, access);
    EXPECT_TRUE(conf.ok() && conf->conforms);

    round.q = RandomFoQuery(schema, config, 1 + rng.Uniform(5), &rng);
    Result<ControllabilityAnalysis> analysis =
        ControllabilityAnalysis::Analyze(round.q.body, schema, access);
    if (!analysis.ok()) continue;  // structural mismatch in a random formula
    round.adom = round.db.ActiveDomain();
    if (round.adom.empty()) continue;
    round.analysis =
        std::make_shared<const ControllabilityAnalysis>(*std::move(analysis));
    fn(round, &rng);
  }
}

Binding RandomParams(const VarSet& controls, const std::vector<Value>& adom,
                     Rng* rng) {
  Binding params;
  for (const Variable& v : controls) {
    params.emplace(v, adom[rng->Uniform(adom.size())]);
  }
  return params;
}

class ControllabilityFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ControllabilityFuzz, DerivationsExecuteCorrectly) {
  int derivations_exercised = 0;
  ForEachRound(GetParam(), [&](FuzzRound& round, Rng* rng) {
    const FoQuery& q = round.q;
    const ControllabilityAnalysis& analysis = *round.analysis;
    FoEvaluator reference(&round.db);
    for (const VarSet& controls : analysis.MinimalControlSets()) {
      ++derivations_exercised;
      // Try a few random parameter tuples for this controlling set.
      for (int trial = 0; trial < 3; ++trial) {
        Binding params = RandomParams(controls, round.adom, rng);
        BoundedEvaluator bounded(&round.db);
        BoundedEvalStats stats;
        Result<AnswerSet> fast = bounded.Evaluate(q, analysis, params, &stats);
        ASSERT_TRUE(fast.ok())
            << q.ToString() << "\ncontrols " << VarSetToString(controls)
            << "\n" << fast.status().ToString();
        AnswerSet slow = reference.Evaluate(q, params);
        ASSERT_EQ(*fast, slow)
            << q.ToString() << "\ncontrols " << VarSetToString(controls)
            << "\nderivation:\n" << analysis.Explain(controls)
            << round.db.ToString();
        Result<double> bound = analysis.StaticFetchBound(controls);
        ASSERT_TRUE(bound.ok());
        EXPECT_LE(static_cast<double>(stats.base_tuples_fetched), *bound)
            << q.ToString();
      }
    }
  });
  // The generator must actually exercise the engine, not skip everything.
  EXPECT_GT(derivations_exercised, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllabilityFuzz,
                         ::testing::Values(2, 9, 17, 31, 57, 73, 111, 222, 333,
                                           444));

// The compiler accepts every derivation the analysis emits: over seeds
// 1–2000 of the generator above, each MinimalControlSets() derivation lowers
// to bytecode — or, forall and nested exists/and included — and the
// compiled program's answers equal the reference evaluator's.
TEST(ControllabilityFuzzCompile, EveryDerivationCompiles) {
  uint64_t derivations = 0;
  std::map<std::string, uint64_t> rule_ops;
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    ForEachRound(seed, [&](FuzzRound& round, Rng* rng) {
      const FoQuery& q = round.q;
      FoEvaluator reference(&round.db);
      for (const VarSet& controls : round.analysis->MinimalControlSets()) {
        ++derivations;
        Result<std::shared_ptr<const exec::CompiledProgram>> program =
            exec::CompilePlain(q, round.analysis, controls);
        ASSERT_TRUE(program.ok())
            << q.ToString() << "\ncontrols " << VarSetToString(controls)
            << "\n" << program.status().ToString();
        for (const exec::OpProto& op : (*program)->ops) {
          ++rule_ops[op.label.substr(0, op.label.find('('))];
        }
        Binding params = RandomParams(controls, round.adom, rng);
        Result<AnswerSet> answers =
            BoundedEvaluator(&round.db).Evaluate(**program, params);
        ASSERT_TRUE(answers.ok()) << answers.status().ToString();
        // FoEvaluator ranges answers over adom(D); a condition may pin a
        // head variable to a query constant outside it. Such an answer must
        // still satisfy the body.
        AnswerSet in_adom;
        for (const Tuple& t : *answers) {
          if (std::all_of(t.begin(), t.end(), [&](const Value& v) {
                return std::binary_search(round.adom.begin(),
                                          round.adom.end(), v);
              })) {
            in_adom.insert(t);
            continue;
          }
          Binding env = params;
          size_t column = 0;
          for (const Variable& v : q.head) {
            if (!params.count(v)) env[v] = t[column++];
          }
          ASSERT_TRUE(reference.Holds(q.body, env)) << q.ToString();
        }
        ASSERT_EQ(in_adom, reference.Evaluate(q, params))
            << q.ToString() << "\ncontrols " << VarSetToString(controls)
            << "\nbytecode:\n" << (*program)->Disassemble();
      }
    });
  }
  std::printf("compiled %llu derivations:",
              static_cast<unsigned long long>(derivations));
  for (const auto& [rule, n] : rule_ops) {
    std::printf(" %s=%llu", rule.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n");
  for (const char* rule :
       {"atom", "condition", "and", "or", "exists", "forall"}) {
    EXPECT_GT(rule_ops[rule], 0u) << rule;
  }
}

}  // namespace
}  // namespace scalein
