// Golden certificate corpus for the bounded executor (exec/compiler.h,
// exec/vm.h). tests/golden/bounded_certs.txt holds one line per case: the
// answer digest, tuples fetched, index lookups, per-relation fetches, the
// trip record and the digest of the sealed CertificatePayload. The corpus was
// recorded from the interpreted derivation walk the register VM replaced;
// every line must reproduce byte for byte at 1 and 4 worker threads.
//
// Variable ids follow interning order, and binding-set order (and so the
// point where a limit trips) follows the ids. The corpus therefore runs in
// one fixed order in a fresh process, and nothing in this binary interns a
// variable before it: the golden test is defined first, and the plan-set
// and shell tests after it only run once it has. On a mismatch the produced
// corpus is written to bounded_certs.actual.txt in the working directory.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "core/analysis_cache.h"
#include "core/bounded_eval.h"
#include "exec/compiler.h"
#include "io/shell.h"
#include "eval/answer_set.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "par/worker_pool.h"
#include "query/parser.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workload/formula_gen.h"
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

std::string Hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string AnswerText(const AnswerSet& answers) {
  std::string text;
  for (const Tuple& t : answers) {
    for (const Value& v : t) {
      text += v.ToString();
      text += '\x1f';
    }
    text += '\n';
  }
  return std::to_string(answers.size()) + ":" + Hex(obs::Fnv1a64(text));
}

/// Seals a certificate from one evaluation's stats exactly like the shell
/// does and returns the digest of its payload.
std::string CertDigest(const BoundedEvalStats& stats, bool tripped,
                       const exec::TripInfo& trip) {
  obs::AccessCertificate cert;
  cert.query_fingerprint = "fp-golden";
  cert.query_id = "s0-q0";
  cert.query_text = "Q";
  cert.static_bound = stats.static_bound;
  cert.actual_fetches = stats.base_tuples_fetched;
  cert.index_lookups = stats.index_lookups;
  for (const exec::OpCounters& op : stats.ops) {
    obs::CertOp co;
    co.label = op.label;
    co.rows_out = op.rows_out;
    co.tuples_fetched = op.tuples_fetched;
    co.index_lookups = op.index_lookups;
    co.static_bound = op.static_bound;
    cert.ops.push_back(std::move(co));
  }
  cert.tripped = tripped;
  if (tripped) cert.trip_reason = trip.ToString();
  obs::SealCertificate(&cert);
  SI_CHECK(obs::VerifyCertificate(cert));
  return Hex(obs::Fnv1a64(obs::CertificatePayload(cert)));
}

std::string StatsText(const BoundedEvalStats& s) {
  std::string out = "f=" + std::to_string(s.base_tuples_fetched) +
                    " l=" + std::to_string(s.index_lookups) + " rel=";
  for (const auto& [name, n] : s.fetched_by_relation) {
    out += name + ":" + std::to_string(n) + ",";
  }
  std::ostringstream bound;
  bound << s.static_bound;
  return out + " b=" + bound.str();
}

std::string ErrorText(const Status& s) {
  return std::string("err=") + StatusCodeName(s.code()) + ":" + s.message();
}

/// Runs the cases in order and collects one line per evaluation, plus the
/// derivation rules (op labels) the fuzz cases exercised.
class Corpus {
 public:
  std::vector<std::string> lines;
  std::set<std::string> rules;

  void Degraded(const std::string& name, const FoQuery& q,
                const ControllabilityAnalysis& analysis, Database* db,
                const Binding& params, const exec::GovernorLimits& limits = {},
                bool enforce = false) {
    BoundedEvaluator evaluator(db);
    evaluator.set_limits(limits);
    evaluator.set_enforce_bounds(enforce);
    BoundedEvalStats stats;
    stats.capture_ops = true;
    Result<exec::Degraded<AnswerSet>> r =
        evaluator.EvaluateDegraded(q, analysis, params, &stats);
    for (const exec::OpCounters& op : stats.ops) {
      rules.insert(op.label.substr(0, op.label.find('(')));
    }
    AddDegraded(name + " deg", r, stats);
  }

  void Plain(const std::string& name, const FoQuery& q,
             const ControllabilityAnalysis& analysis, Database* db,
             const Binding& params, const exec::GovernorLimits& limits = {}) {
    BoundedEvaluator evaluator(db);
    evaluator.set_limits(limits);
    BoundedEvalStats stats;
    Result<AnswerSet> r = evaluator.Evaluate(q, analysis, params, &stats);
    lines.push_back(name + " eval " +
                    (r.ok() ? "ans=" + AnswerText(*r) : ErrorText(r.status())) +
                    " " + StatsText(stats));
  }

  void Batch(const std::string& name, const FoQuery& q,
             const ControllabilityAnalysis& analysis, Database* db,
             const std::vector<Binding>& batch) {
    BoundedEvaluator evaluator(db);
    BoundedEvalStats stats;
    stats.capture_ops = true;
    std::vector<Result<AnswerSet>> out =
        evaluator.EvaluateBatch(q, analysis, batch, &stats);
    AddBatch(name, out, stats);
  }

  void Embedded(const std::string& name, const EmbeddedCqAnalysis& analysis,
                Database* db, const Binding& params) {
    BoundedEvaluator evaluator(db);
    BoundedEvalStats stats;
    stats.capture_ops = true;
    Result<AnswerSet> r = evaluator.EvaluateEmbedded(analysis, params, &stats);
    lines.push_back(name + " emb " +
                    (r.ok() ? "ans=" + AnswerText(*r) : ErrorText(r.status())) +
                    " " + StatsText(stats) + " cert=" +
                    CertDigest(stats, false, exec::TripInfo{}));
  }

  void EmbeddedDegraded(const std::string& name,
                        const EmbeddedCqAnalysis& analysis, Database* db,
                        const Binding& params,
                        const exec::GovernorLimits& limits, bool approx) {
    BoundedEvaluator evaluator(db);
    evaluator.set_limits(limits);
    BoundedEvalStats stats;
    stats.capture_ops = true;
    Result<exec::Degraded<AnswerSet>> r =
        evaluator.EvaluateEmbeddedDegraded(analysis, params, &stats, approx);
    AddDegraded(name + " embdeg", r, stats);
  }

  void EmbeddedBatch(const std::string& name,
                     const EmbeddedCqAnalysis& analysis, Database* db,
                     const std::vector<Binding>& batch) {
    BoundedEvaluator evaluator(db);
    BoundedEvalStats stats;
    stats.capture_ops = true;
    std::vector<Result<AnswerSet>> out =
        evaluator.EvaluateEmbeddedBatch(analysis, batch, &stats);
    AddBatch(name, out, stats);
  }

 private:
  void AddDegraded(const std::string& name,
                   const Result<exec::Degraded<AnswerSet>>& r,
                   const BoundedEvalStats& stats) {
    if (!r.ok()) {
      lines.push_back(name + " " + ErrorText(r.status()) + " " +
                      StatsText(stats));
      return;
    }
    lines.push_back(name + " ans=" + AnswerText(r->value) +
                    " c=" + (r->complete ? "1" : "0") + " " + StatsText(stats) +
                    " trip_ops=" + std::to_string(r->ops.size()) +
                    (r->fallback.empty() ? "" : " fallback=" + r->fallback) +
                    " trip=" +
                    (r->complete ? "-" : "\"" + r->trip.ToString() + "\"") +
                    " cert=" + CertDigest(stats, !r->complete, r->trip));
  }

  void AddBatch(const std::string& name,
                const std::vector<Result<AnswerSet>>& out,
                const BoundedEvalStats& stats) {
    std::string line = name + " batch";
    for (const Result<AnswerSet>& r : out) {
      line += " " + (r.ok() ? AnswerText(*r) : ErrorText(r.status()));
    }
    lines.push_back(line + " " + StatsText(stats) + " ops=" +
                    std::to_string(stats.ops.size()) + " cert=" +
                    CertDigest(stats, false, exec::TripInfo{}));
  }
};

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

void Q1Cases(Corpus* c) {
  Social social(120);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  ControllabilityAnalysis analysis = Analyze(q1, social.schema, social.access);
  for (int64_t p = 0; p < 12; ++p) {
    const Binding params{{V("p"), Value::Int(p)}};
    c->Degraded("q1 p=" + std::to_string(p), q1, analysis, &social.db, params);
    c->Plain("q1 p=" + std::to_string(p), q1, analysis, &social.db, params);
  }
  // Budgets from "trips immediately" to "just enough": every stopping point.
  for (uint64_t budget = 1; budget <= 12; ++budget) {
    exec::GovernorLimits limits;
    limits.fetch_budget = budget;
    const Binding params{{V("p"), Value::Int(5)}};
    const std::string name = "q1 budget=" + std::to_string(budget);
    c->Degraded(name, q1, analysis, &social.db, params, limits);
    c->Plain(name, q1, analysis, &social.db, params, limits);
  }
  for (uint64_t cap : {uint64_t{1}, uint64_t{2}, uint64_t{100}}) {
    exec::GovernorLimits limits;
    limits.output_row_cap = cap;
    c->Degraded("q1 rows=" + std::to_string(cap), q1, analysis, &social.db,
                {{V("p"), Value::Int(3)}}, limits);
  }
  c->Degraded("q1 uncontrolled", q1, analysis, &social.db,
              {{V("name"), Value::Str("n3")}});

  std::vector<Binding> batch;
  for (int64_t p = 0; p < 20; ++p) batch.push_back({{V("p"), Value::Int(p)}});
  batch.push_back({{V("name"), Value::Str("n3")}});  // one uncontrolled slot
  c->Batch("q1", q1, analysis, &social.db, batch);
}

// A deadline already past, or a token already cancelled, when evaluation
// starts: the governor observes it at its first amortized time check, so the
// trip position is deterministic. Person 0 has 400 friends.
void PreExpiredCases(Corpus* c) {
  Schema s;
  s.Relation("friend", {"a", "b"});
  s.Relation("person", {"id", "name", "city"});
  Database db(s);
  for (int64_t k = 0; k < 400; ++k) {
    db.Insert("friend", Tuple{Value::Int(0), Value::Int(k)});
    db.Insert("person",
              Tuple{Value::Int(k), Value::Str("n" + std::to_string(k)),
                    Value::Str(k % 2 == 0 ? "NYC" : "LA")});
  }
  AccessSchema access;
  access.Add("friend", {"a"}, 512);
  access.AddKey("person", {"id"});
  SI_CHECK(access.BuildIndexes(&db, s).ok());
  FoQuery q =
      FQ("Q(p, b, name) := friend(p, b) and person(b, name, \"NYC\")", s);
  ControllabilityAnalysis analysis = Analyze(q, s, access);
  const Binding params{{V("p"), Value::Int(0)}};
  exec::GovernorLimits deadline;
  deadline.deadline_ns = 1;  // absolute, long past
  exec::GovernorLimits cancelled;
  cancelled.has_cancel = true;
  cancelled.cancel.Cancel();
  c->Degraded("preexpired deadline", q, analysis, &db, params, deadline);
  c->Plain("preexpired deadline", q, analysis, &db, params, deadline);
  c->Degraded("preexpired cancel", q, analysis, &db, params, cancelled);
  c->Plain("preexpired cancel", q, analysis, &db, params, cancelled);
}

void EnforceCases(Corpus* c) {
  Schema s;
  s.Relation("e", {"a", "b"});
  Database db(s);
  for (int64_t i = 0; i < 5; ++i) {
    db.Insert("e", Tuple{Value::Int(1), Value::Int(i)});
  }
  AccessSchema access;
  access.Add("e", {"a"}, 2);  // declared N = 2, actual 5
  FoQuery q = FQ("Q(x, y) := e(x, y)", s);
  ControllabilityAnalysis analysis = Analyze(q, s, access);
  c->Degraded("enforce", q, analysis, &db, {{V("x"), Value::Int(1)}}, {},
              /*enforce=*/true);
  c->Degraded("lenient", q, analysis, &db, {{V("x"), Value::Int(1)}});
}

void PropertyShapeCases(Corpus* c) {
  const char* queries[] = {
      "Q(x, y) := r(x, y)",
      "Q(x, z) := exists y. r(x, y) and t(y, z)",
      "Q(x, y) := r(x, y) and not t(x, y)",
      "Q(x) := exists y. r(x, y) and t(x, y)",
      "Q(x, y) := r(x, y) and (y = 2 or y = 3)",
      "Q(x) := forall y. r(x, y) implies t(x, y)",
      "Q(x, y) := r(x, y) or t(x, y)",
      "Q(x) := exists y. r(x, y) and not (exists z. t(y, z) and r(z, x))",
      "Q(x, y) := r(x, y) and (forall z. t(y, z) implies r(x, z))",
  };
  for (uint64_t seed : {101u, 202u, 303u, 404u}) {
    Rng rng(seed);
    Schema s;
    s.Relation("r", {"a", "b"});
    s.Relation("t", {"a", "b"});
    Database db(s);
    for (int rel = 0; rel < 2; ++rel) {
      const char* name = rel == 0 ? "r" : "t";
      for (int64_t key = 0; key < 24; ++key) {
        uint64_t group = rng.Uniform(4);
        for (uint64_t g = 0; g < group; ++g) {
          db.Insert(name,
                    Tuple{Value::Int(key),
                          Value::Int(static_cast<int64_t>(rng.Uniform(6)))});
        }
      }
    }
    AccessSchema access;
    access.Add("r", {"a"}, 3);
    access.Add("t", {"a"}, 3);
    access.Add("t", {"a", "b"}, 1);
    access.Add("r", {"a", "b"}, 1);
    SI_CHECK(access.BuildIndexes(&db, s).ok());
    for (size_t qi = 0; qi < std::size(queries); ++qi) {
      FoQuery q = FQ(queries[qi], s);
      ControllabilityAnalysis analysis = Analyze(q, s, access);
      if (!analysis.IsControlledBy({V("x")})) continue;
      const std::string base =
          "shape s=" + std::to_string(seed) + " q=" + std::to_string(qi);
      for (int64_t p = 0; p < 6; ++p) {
        const Binding params{{V("x"), Value::Int(p)}};
        const std::string name = base + " p=" + std::to_string(p);
        c->Degraded(name, q, analysis, &db, params);
        exec::GovernorLimits limits;
        limits.fetch_budget = 2 + static_cast<uint64_t>(p);
        c->Degraded(name + " budget", q, analysis, &db, params, limits);
      }
    }
  }
}

void WideFrontierCases(Corpus* c) {
  Schema s;
  s.Relation("r", {"a", "b"});
  s.Relation("t", {"a", "b"});
  Database db(s);
  for (int64_t i = 0; i < 40; ++i) {
    db.Insert("r", Tuple{Value::Int(1), Value::Int(i)});
    db.Insert("t", Tuple{Value::Int(i), Value::Int(i % 7)});
  }
  AccessSchema access;
  access.Add("r", {"a"}, 64);
  access.Add("t", {"a"}, 64);
  SI_CHECK(access.BuildIndexes(&db, s).ok());
  FoQuery q = FQ("Q(x, z) := exists y. r(x, y) and t(y, z)", s);
  ControllabilityAnalysis analysis = Analyze(q, s, access);
  const Binding params{{V("x"), Value::Int(1)}};
  c->Degraded("wide", q, analysis, &db, params);
  for (uint64_t budget : {uint64_t{5}, uint64_t{20}, uint64_t{45}}) {
    exec::GovernorLimits limits;
    limits.fetch_budget = budget;
    c->Degraded("wide budget=" + std::to_string(budget), q, analysis, &db,
                params, limits);
  }
}

/// The forall / or / safe-negation examples of bounded_eval_test.
void RuleCases(Corpus* c) {
  {
    Schema s;
    s.Relation("R", {"A", "B"});
    s.Relation("S", {"A", "B", "C"});
    s.Relation("T", {"A", "B", "C"});
    Database db(s);
    db.Insert("R", Tuple{Value::Int(1), Value::Int(10)});
    db.Insert("R", Tuple{Value::Int(1), Value::Int(11)});
    db.Insert("S", Tuple{Value::Int(1), Value::Int(10), Value::Int(7)});
    db.Insert("T", Tuple{Value::Int(1), Value::Int(10), Value::Int(7)});
    db.Insert("S", Tuple{Value::Int(1), Value::Int(11), Value::Int(8)});
    AccessSchema access;
    access.Add("R", {"A"}, 10);
    access.Add("S", {"A", "B"}, 10);
    access.Add("T", {"A", "B", "C"}, 1);
    SI_CHECK(access.BuildIndexes(&db, s).ok());
    FoQuery q = FQ(
        "Q(x, y) := R(x, y) and (forall z. S(x, y, z) implies T(x, y, z))", s);
    ControllabilityAnalysis analysis = Analyze(q, s, access);
    c->Degraded("forall", q, analysis, &db, {{V("x"), Value::Int(1)}});
    for (uint64_t budget = 1; budget <= 5; ++budget) {
      exec::GovernorLimits limits;
      limits.fetch_budget = budget;
      c->Degraded("forall budget=" + std::to_string(budget), q, analysis, &db,
                  {{V("x"), Value::Int(1)}}, limits);
    }
  }
  {
    Schema s;
    s.Relation("r", {"a", "b"});
    s.Relation("t", {"a", "b"});
    s.Relation("blocked", {"a", "b"});
    Database db(s);
    db.Insert("r", Tuple{Value::Int(1), Value::Int(10)});
    db.Insert("r", Tuple{Value::Int(1), Value::Int(11)});
    db.Insert("t", Tuple{Value::Int(1), Value::Int(20)});
    db.Insert("t", Tuple{Value::Int(1), Value::Int(10)});
    db.Insert("blocked", Tuple{Value::Int(1), Value::Int(10)});
    AccessSchema access;
    access.Add("r", {"a"}, 5);
    access.Add("t", {"a"}, 5);
    access.Add("blocked", {"a", "b"}, 1);
    SI_CHECK(access.BuildIndexes(&db, s).ok());
    FoQuery ors = FQ("Q(x, y) := r(x, y) or t(x, y)", s);
    ControllabilityAnalysis ora = Analyze(ors, s, access);
    FoQuery neg = FQ("Q(x, y) := r(x, y) and not blocked(x, y)", s);
    ControllabilityAnalysis nega = Analyze(neg, s, access);
    for (uint64_t budget = 0; budget <= 4; ++budget) {
      exec::GovernorLimits limits;
      limits.fetch_budget = budget;
      const std::string b = " budget=" + std::to_string(budget);
      c->Degraded("or" + b, ors, ora, &db, {{V("x"), Value::Int(1)}}, limits);
      c->Degraded("neg" + b, neg, nega, &db, {{V("x"), Value::Int(1)}},
                  limits);
    }
  }
}

/// Derives an access schema whose statements are true of `db` by
/// construction (controllability_fuzz_test's generator).
AccessSchema EmpiricalAccessSchema(Database* db, const Schema& schema,
                                   Rng* rng) {
  AccessSchema access;
  for (const RelationSchema& rs : schema.relations()) {
    Relation& rel = db->relation(rs.name());
    std::vector<std::vector<size_t>> subsets;
    for (size_t p = 0; p < rs.arity(); ++p) subsets.push_back({p});
    std::vector<size_t> all(rs.arity());
    for (size_t p = 0; p < rs.arity(); ++p) all[p] = p;
    subsets.push_back(all);
    for (const std::vector<size_t>& positions : subsets) {
      if (rng->Bernoulli(0.25)) continue;
      const HashIndex& idx = rel.EnsureIndex(positions);
      uint64_t n = std::max<uint64_t>(1, idx.MaxBucketSize());
      std::vector<std::string> attrs;
      for (size_t p : positions) attrs.push_back(rs.attributes()[p]);
      access.Add(rs.name(), attrs, n);
    }
  }
  return access;
}

/// Every minimal-control-set derivation of the controllability fuzz
/// generator for a run of seeds: or, forall, nested exists and nested and
/// included, clean and under limits that trip inside them.
void FuzzCases(Corpus* c) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    FormulaGenConfig config;
    config.num_relations = 3;
    config.max_arity = 3;
    config.num_variables = 3;
    config.domain_size = 3;
    for (int round = 0; round < 12; ++round) {
      Schema schema = RandomSchema(config, &rng);
      Database db = RandomDatabase(schema, config, 10, &rng);
      AccessSchema access = EmpiricalAccessSchema(&db, schema, &rng);
      FoQuery q = RandomFoQuery(schema, config, 1 + rng.Uniform(5), &rng);
      Result<ControllabilityAnalysis> analysis =
          ControllabilityAnalysis::Analyze(q.body, schema, access);
      if (!analysis.ok()) continue;
      std::vector<Value> adom = db.ActiveDomain();
      if (adom.empty()) continue;
      int d = 0;
      for (const VarSet& controls : analysis->MinimalControlSets()) {
        Binding params;
        for (const Variable& v : controls) {
          params.emplace(v, adom[rng.Uniform(adom.size())]);
        }
        const std::string name = "fuzz s=" + std::to_string(seed) +
                                 " r=" + std::to_string(round) +
                                 " d=" + std::to_string(d++);
        c->Degraded(name, q, *analysis, &db, params);
        exec::GovernorLimits budget;
        budget.fetch_budget = 2;
        c->Degraded(name + " budget", q, *analysis, &db, params, budget);
        exec::GovernorLimits plain_budget;
        plain_budget.fetch_budget = 4;
        c->Plain(name, q, *analysis, &db, params, plain_budget);
      }
    }
  }
}

Cq Q3(const Schema& s) {
  Result<Cq> q = ParseCq(
      "Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
      "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")",
      &s);
  SI_CHECK_MSG(q.ok(), q.status().message().c_str());
  return *std::move(q);
}

void EmbeddedCases(Corpus* c) {
  SocialConfig config;
  config.num_persons = 80;
  config.max_friends_per_person = 8;
  config.num_restaurants = 12;
  config.avg_visits_per_person = 14;
  config.num_cities = 2;
  config.num_years = 1;
  config.dated_visits = true;
  config.seed = 17;
  Schema schema = SocialSchema(true);
  Database db = GenerateSocial(config);
  AccessSchema access = SocialAccessSchema(config);
  SI_CHECK(access.BuildIndexes(&db, schema).ok());
  Result<EmbeddedCqAnalysis> analysis = EmbeddedCqAnalysis::Analyze(
      Q3(schema), schema, access, {V("p"), V("yy")});
  SI_CHECK(analysis.ok() && analysis->IsScaleIndependent());
  auto params = [&](int64_t p) {
    return Binding{
        {V("p"), Value::Int(p)},
        {V("yy"), Value::Int(static_cast<int64_t>(config.first_year))}};
  };
  std::vector<Binding> batch;
  for (int64_t p = 0; p < 20; ++p) {
    c->Embedded("q3 p=" + std::to_string(p), *analysis, &db, params(p));
    batch.push_back(params(p));
  }
  c->EmbeddedBatch("q3", *analysis, &db, batch);
  for (uint64_t budget : {uint64_t{1}, uint64_t{3}, uint64_t{10}}) {
    exec::GovernorLimits limits;
    limits.fetch_budget = budget;
    const std::string name = "q3 budget=" + std::to_string(budget);
    c->EmbeddedDegraded(name, *analysis, &db, params(3), limits, false);
    c->EmbeddedDegraded(name + " approx", *analysis, &db, params(3), limits,
                        true);
  }
  for (uint64_t cap : {uint64_t{1}, uint64_t{2}}) {
    exec::GovernorLimits limits;
    limits.output_row_cap = cap;
    c->EmbeddedDegraded("q3 rows=" + std::to_string(cap), *analysis, &db,
                        params(3), limits, false);
  }
  c->Embedded("q3 missing-param", *analysis, &db, {{V("p"), Value::Int(1)}});

  util::Failpoints& fp = util::Failpoints::Global();
  SI_CHECK(fp.Configure("chase_step=error(every:2)").ok());
  c->Embedded("q3 failpoint first", *analysis, &db, params(3));
  c->Embedded("q3 failpoint second", *analysis, &db, params(3));
  SI_CHECK(fp.Configure("chase_step=error(every:2)").ok());
  c->EmbeddedDegraded("q3 failpoint", *analysis, &db, params(3), {}, false);
  fp.Clear();

  // Candidate verification through a plain statement.
  Schema s;
  s.Relation("r", {"k", "a", "b"});
  Database vdb(s);
  vdb.Insert("r", Tuple{Value::Int(1), Value::Int(10), Value::Int(100)});
  vdb.Insert("r", Tuple{Value::Int(1), Value::Int(20), Value::Int(200)});
  AccessSchema vaccess;
  vaccess.AddEmbedded("r", {"k"}, {"a"}, 5);
  vaccess.AddEmbedded("r", {"k"}, {"b"}, 5);
  vaccess.Add("r", {"k"}, 10);
  SI_CHECK(vaccess.BuildIndexes(&vdb, s).ok());
  Result<Cq> vq = ParseCq("Q(a, b) :- r(k, a, b)", &s);
  SI_CHECK(vq.ok());
  Result<EmbeddedCqAnalysis> va =
      EmbeddedCqAnalysis::Analyze(*vq, s, vaccess, {V("k")});
  SI_CHECK(va.ok() && va->IsScaleIndependent());
  c->Embedded("verify", *va, &vdb, {{V("k"), Value::Int(1)}});
}

/// A 65-attribute relation: the chased candidate tuple is wider than one
/// machine word.
void WideAtomCases(Corpus* c) {
  std::vector<std::string> attrs;
  for (int i = 0; i < 65; ++i) attrs.push_back("a" + std::to_string(i));
  Schema s;
  s.Relation("w", attrs);
  Database db(s);
  for (int64_t k = 0; k < 3; ++k) {
    for (int64_t j = 0; j < 2; ++j) {
      Tuple t;
      for (int64_t i = 0; i < 65; ++i) t.push_back(Value::Int(k * 100 + i + j));
      t[0] = Value::Int(k);
      db.Insert("w", std::move(t));
    }
  }
  AccessSchema access;
  access.Add("w", {"a0"}, 4);
  SI_CHECK(access.BuildIndexes(&db, s).ok());
  std::string body = "w(k";
  for (int i = 1; i < 65; ++i) body += ", v" + std::to_string(i);
  Result<Cq> q = ParseCq("Q(v1, v64) :- " + body + ")", &s);
  SI_CHECK_MSG(q.ok(), q.status().message().c_str());
  Result<EmbeddedCqAnalysis> analysis =
      EmbeddedCqAnalysis::Analyze(*q, s, access, {V("k")});
  SI_CHECK(analysis.ok() && analysis->IsScaleIndependent());
  for (int64_t k = 0; k < 4; ++k) {
    c->Embedded("wide-atom k=" + std::to_string(k), *analysis, &db,
                {{V("k"), Value::Int(k)}});
  }
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(CompiledVmTest, GoldenCertificatesAtOneAndFourThreads) {
  const std::vector<std::string> golden =
      ReadLines(std::string(SCALEIN_GOLDEN_DIR) + "/bounded_certs.txt");
  for (size_t threads : {size_t{1}, size_t{4}}) {
    par::WorkerPool::Global().Resize(threads);
    Corpus corpus;
    Q1Cases(&corpus);
    PreExpiredCases(&corpus);
    EnforceCases(&corpus);
    PropertyShapeCases(&corpus);
    WideFrontierCases(&corpus);
    RuleCases(&corpus);
    FuzzCases(&corpus);
    EmbeddedCases(&corpus);
    WideAtomCases(&corpus);
    for (const char* rule :
         {"atom", "condition", "and", "or", "exists", "forall"}) {
      EXPECT_TRUE(corpus.rules.count(rule)) << "corpus never ran " << rule;
    }
    if (corpus.lines != golden) {
      std::ofstream out("bounded_certs.actual.txt");
      for (const std::string& line : corpus.lines) out << line << "\n";
      size_t i = 0;
      while (i < golden.size() && i < corpus.lines.size() &&
             golden[i] == corpus.lines[i]) {
        ++i;
      }
      ADD_FAILURE() << "threads=" << threads << ": corpus differs at line "
                    << i + 1 << " (golden " << golden.size()
                    << " lines, produced " << corpus.lines.size() << ")\n"
                    << "golden:   "
                    << (i < golden.size() ? golden[i] : "<end>") << "\n"
                    << "produced: "
                    << (i < corpus.lines.size() ? corpus.lines[i] : "<end>");
    }
  }
  par::WorkerPool::Global().Resize(1);
}

// ---------------------------------------------------------------------------
// Plan-set lifecycle: compile on first sighting, DDL invalidation, shell.

TEST(CompiledVmTest, PlanSetCompilesOnFirstSightingAndCachesPrograms) {
  Social social(40);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  auto analysis = std::make_shared<const ControllabilityAnalysis>(
      Analyze(q1, social.schema, social.access));
  exec::CompiledPlanSet set;
  std::string why = "stale";
  std::shared_ptr<const exec::CompiledProgram> first = set.GetOrCompilePlain(
      exec::CompiledPlanSet::Mode::kAuto, q1, analysis, {V("p")}, &why);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(why.empty());
  EXPECT_EQ(set.compiles(), 1u);
  EXPECT_EQ(set.GetOrCompilePlain(exec::CompiledPlanSet::Mode::kAuto, q1,
                                  analysis, {V("p")}, &why),
            first);
  EXPECT_EQ(set.compiles(), 1u);

  // A parameter set the analysis does not control has no program; the
  // reason is the evaluator's "not controlled" error.
  EXPECT_EQ(set.GetOrCompilePlain(exec::CompiledPlanSet::Mode::kAuto, q1,
                                  analysis, {V("name")}, &why),
            nullptr);
  EXPECT_NE(why.find("not controlled"), std::string::npos) << why;
  EXPECT_EQ(set.compiles(), 1u);
}

TEST(CompiledVmTest, AnalysisCacheDropsCompiledPlansOnInvalidation) {
  Social social(40);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  AnalysisCache cache;
  std::shared_ptr<exec::CompiledPlanSet> set1;
  Result<std::shared_ptr<const ControllabilityAnalysis>> a1 =
      cache.GetOrAnalyze(q1.body, "q1", social.schema, social.access, {},
                         &set1);
  ASSERT_TRUE(a1.ok());
  ASSERT_NE(set1, nullptr);
  std::shared_ptr<const exec::CompiledProgram> p1 = set1->GetOrCompilePlain(
      exec::CompiledPlanSet::Mode::kAuto, q1, *a1, {V("p")}, nullptr);
  ASSERT_NE(p1, nullptr);

  // A cache hit hands back the same plan set (no recompilation).
  std::shared_ptr<exec::CompiledPlanSet> set_hit;
  ASSERT_TRUE(cache.GetOrAnalyze(q1.body, "q1", social.schema, social.access,
                                 {}, &set_hit)
                  .ok());
  EXPECT_EQ(set_hit.get(), set1.get());

  // DDL: the entry is dropped, and with it the attached bytecode. The next
  // analyze returns a fresh, empty plan set — the VM can never execute a
  // program lowered from the dropped derivation.
  cache.Invalidate();
  std::shared_ptr<exec::CompiledPlanSet> set2;
  Result<std::shared_ptr<const ControllabilityAnalysis>> a2 =
      cache.GetOrAnalyze(q1.body, "q1", social.schema, social.access, {},
                         &set2);
  ASSERT_TRUE(a2.ok());
  ASSERT_NE(set2, nullptr);
  EXPECT_NE(set2.get(), set1.get());
  EXPECT_EQ(set2->compiles(), 0u);
  std::shared_ptr<const exec::CompiledProgram> p2 = set2->GetOrCompilePlain(
      exec::CompiledPlanSet::Mode::kAuto, q1, *a2, {V("p")}, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(p2.get(), p1.get());  // recompiled against the fresh derivation
}

std::string Exec(Shell* shell, const std::string& line) {
  Result<std::string> out = shell->Execute(line);
  SI_CHECK_MSG(out.ok(), (line + ": " + out.status().message()).c_str());
  return *std::move(out);
}

TEST(CompiledVmTest, ShellRecompilesAfterMidSessionDdl) {
  // `access` DDL between two evals must invalidate the bytecode with the
  // derivation: the second eval recompiles against the new bounds and still
  // answers correctly — never executes the stale program.
  Shell shell;
  Exec(&shell, "schema relation e(a, b)");
  Exec(&shell, "access access e(a) N=10");
  Exec(&shell, "row e 1,10");
  Exec(&shell, "row e 1,11");
  EXPECT_NE(Exec(&shell, "eval x=1 Q(x, y) := e(x, y)").find("(2 answers"),
            std::string::npos);
  Exec(&shell, "access access e(a) N=5");
  EXPECT_NE(Exec(&shell, "eval x=1 Q(x, y) := e(x, y)").find("(2 answers"),
            std::string::npos);
  EXPECT_EQ(shell.metrics().FindCounter("exec.compiled_hits")->value(), 2u);

  // The EXPLAIN disassembly carries the *new* static bound.
  const std::string explained = Exec(&shell, "explain x=1 Q(x, y) := e(x, y)");
  EXPECT_NE(explained.find("compiled:"), std::string::npos) << explained;
  EXPECT_NE(explained.find("static_bound=5"), std::string::npos) << explained;
}

TEST(CompiledVmTest, ExplainPrintsDisassemblyOfEveryRule) {
  Shell shell;
  Exec(&shell, "schema relation r(a, b)");
  Exec(&shell, "schema relation t(a, b)");
  Exec(&shell, "access access r(a) N=5");
  Exec(&shell, "access access t(a) N=5");
  Exec(&shell, "row r 1,10");
  Exec(&shell, "row t 1,20");
  const std::string ors =
      Exec(&shell, "explain x=1 Q(x, y) := r(x, y) or t(x, y)");
  EXPECT_NE(ors.find("compiled:\nplain bytecode:"), std::string::npos) << ors;
  EXPECT_NE(ors.find("OR op=0:or"), std::string::npos) << ors;
  EXPECT_NE(ors.find("PROBE r op=1:atom(r)"), std::string::npos) << ors;
  EXPECT_NE(ors.find("PROBE t op=2:atom(t)"), std::string::npos) << ors;
  EXPECT_NE(ors.find("(2 answers)"), std::string::npos) << ors;

  const std::string all = Exec(
      &shell, "explain x=1 Q(x) := forall y. r(x, y) implies t(x, y)");
  EXPECT_NE(all.find("FORALL op=0:forall"), std::string::npos) << all;
  EXPECT_NE(all.find("(0 answers)"), std::string::npos) << all;
}

}  // namespace
}  // namespace scalein
