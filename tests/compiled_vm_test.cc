// Differential harness for the register-bytecode VM (exec/vm.h): the
// compiled path must be byte-identical to the interpreter — answers, fetch
// totals, per-relation and per-op accounting, trip records, and sealed
// access certificates — at any thread count, with and without governor
// trips. Every comparison here runs at threads {1, 4}.

#include "exec/vm.h"

#include <gtest/gtest.h>

#include "core/analysis_cache.h"
#include "core/bounded_eval.h"
#include "exec/compiler.h"
#include "io/shell.h"
#include "obs/journal.h"
#include "par/worker_pool.h"
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

std::shared_ptr<const ControllabilityAnalysis> Analyze(const FoQuery& q,
                                                       const Schema& s,
                                                       const AccessSchema& a) {
  Result<ControllabilityAnalysis> r =
      ControllabilityAnalysis::Analyze(q.body, s, a);
  SI_CHECK_MSG(r.ok(), r.status().message().c_str());
  return std::make_shared<const ControllabilityAnalysis>(*std::move(r));
}

VarSet VarsOf(const Binding& params) {
  VarSet vars;
  for (const auto& [v, val] : params) {
    (void)val;
    vars.insert(v);
  }
  return vars;
}

/// Restores a single-lane pool when a test returns (other tests in this
/// binary assume the default).
struct PoolGuard {
  ~PoolGuard() { par::WorkerPool::Global().Resize(1); }
};

/// Seals a certificate from one evaluation's stats exactly like the shell
/// does; byte-comparing the payloads of the interpreted and compiled runs is
/// the certificate-equality check CI's bench gate also enforces.
std::string SealedPayload(const BoundedEvalStats& stats, bool tripped,
                          const exec::TripInfo& trip) {
  obs::AccessCertificate cert;
  cert.query_fingerprint = "fp-differential";
  cert.query_id = "s0-q0";
  cert.query_text = "Q";
  cert.static_bound = stats.static_bound;
  cert.actual_fetches = stats.base_tuples_fetched;
  cert.index_lookups = stats.index_lookups;
  cert.ops.reserve(stats.ops.size());
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
  EXPECT_TRUE(obs::VerifyCertificate(cert));
  return obs::CertificatePayload(cert);
}

void ExpectSameStats(const BoundedEvalStats& a, const BoundedEvalStats& b,
                     const char* label) {
  EXPECT_EQ(a.base_tuples_fetched, b.base_tuples_fetched) << label;
  EXPECT_EQ(a.index_lookups, b.index_lookups) << label;
  EXPECT_EQ(a.fetched_by_relation, b.fetched_by_relation) << label;
  EXPECT_EQ(a.static_bound, b.static_bound) << label;
  ASSERT_EQ(a.ops.size(), b.ops.size()) << label;
  for (size_t i = 0; i < a.ops.size(); ++i) {
    const exec::OpCounters& x = a.ops[i];
    const exec::OpCounters& y = b.ops[i];
    EXPECT_EQ(x.label, y.label) << label << " op " << i;
    EXPECT_EQ(x.id, y.id) << label << " op " << i;
    EXPECT_EQ(x.parent, y.parent) << label << " op " << i;
    EXPECT_EQ(x.rows_out, y.rows_out) << label << " op " << x.label;
    EXPECT_EQ(x.tuples_fetched, y.tuples_fetched) << label << " op " << x.label;
    EXPECT_EQ(x.index_lookups, y.index_lookups) << label << " op " << x.label;
    EXPECT_EQ(x.static_bound, y.static_bound) << label << " op " << x.label;
  }
}

void ExpectSameTrip(const exec::TripInfo& a, const exec::TripInfo& b,
                    const char* label) {
  EXPECT_EQ(a.kind, b.kind) << label;
  EXPECT_EQ(a.detail, b.detail) << label;
  EXPECT_EQ(a.op_id, b.op_id) << label;
  EXPECT_EQ(a.op_label, b.op_label) << label;
  EXPECT_EQ(a.fetched_at_trip, b.fetched_at_trip) << label;
}

/// The core differential: runs `q` interpreted and compiled under identical
/// configuration at threads {1, 4} and asserts byte-identity of every
/// observable (including the degraded/tripped path and sealed certificates).
void ExpectPlainDifferentialEqual(const FoQuery& q,
                                  std::shared_ptr<const ControllabilityAnalysis>
                                      analysis,
                                  Database* db, const Binding& params,
                                  const exec::GovernorLimits& limits,
                                  bool enforce) {
  Result<std::shared_ptr<const exec::CompiledProgram>> compiled =
      exec::CompilePlain(q, analysis, VarsOf(params));
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  PoolGuard guard;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    par::WorkerPool::Global().Resize(threads);
    const std::string label =
        "threads=" + std::to_string(threads);

    BoundedEvaluator interp(db);
    interp.set_limits(limits);
    interp.set_enforce_bounds(enforce);
    BoundedEvalStats istats;
    istats.capture_ops = true;
    Result<exec::Degraded<AnswerSet>> iref =
        interp.EvaluateDegraded(q, *analysis, params, &istats);

    exec::CompiledEvaluator vm(db);
    vm.set_limits(limits);
    vm.set_enforce_bounds(enforce);
    BoundedEvalStats vstats;
    vstats.capture_ops = true;
    Result<exec::Degraded<AnswerSet>> vref =
        vm.EvaluateDegraded(**compiled, params, &vstats);

    ASSERT_EQ(iref.ok(), vref.ok())
        << label << " interp: " << iref.status().ToString()
        << " vm: " << vref.status().ToString();
    if (!iref.ok()) {
      EXPECT_EQ(iref.status().code(), vref.status().code()) << label;
      EXPECT_EQ(iref.status().message(), vref.status().message()) << label;
      continue;
    }
    EXPECT_EQ(iref->value, vref->value) << label;
    EXPECT_EQ(iref->complete, vref->complete) << label;
    EXPECT_EQ(iref->base_tuples_fetched, vref->base_tuples_fetched) << label;
    EXPECT_EQ(iref->index_lookups, vref->index_lookups) << label;
    ExpectSameTrip(iref->trip, vref->trip, label.c_str());
    ExpectSameStats(istats, vstats, label.c_str());
    EXPECT_EQ(SealedPayload(istats, !iref->complete, iref->trip),
              SealedPayload(vstats, !vref->complete, vref->trip))
        << label;
  }
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

TEST(CompiledVmTest, Q1DifferentialAcrossParams) {
  Social social(120);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q1, social.schema, social.access);
  for (int64_t p = 0; p < 12; ++p) {
    ExpectPlainDifferentialEqual(q1, analysis, &social.db,
                                 {{V("p"), Value::Int(p)}}, {},
                                 /*enforce=*/false);
  }
}

TEST(CompiledVmTest, FetchBudgetTripsAreByteIdentical) {
  Social social(120);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q1, social.schema, social.access);
  Binding params{{V("p"), Value::Int(5)}};
  // Budgets from "trips immediately" to "just enough": every stopping point
  // must agree (same trip record, same partial answers, same certificate).
  for (uint64_t budget = 1; budget <= 12; ++budget) {
    exec::GovernorLimits limits;
    limits.fetch_budget = budget;
    ExpectPlainDifferentialEqual(q1, analysis, &social.db, params, limits,
                                 /*enforce=*/false);
  }
}

// A deadline already past, or a token already cancelled, when evaluation
// starts: the governor observes it at its first amortized time check (probe
// kCheckInterval), so the trip position is deterministic and both engines
// must agree on it byte for byte. Person 0 has 400 friends, so the walk is
// far past that probe when the limit fires.
TEST(CompiledVmTest, PreExpiredDeadlineAndCancelTripsAreByteIdentical) {
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
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  FoQuery q =
      FQ("Q(p, b, name) := friend(p, b) and person(b, name, \"NYC\")", s);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q, s, access);
  const Binding params{{V("p"), Value::Int(0)}};

  exec::GovernorLimits deadline;
  deadline.deadline_ns = 1;  // absolute, long past
  exec::GovernorLimits cancelled;
  cancelled.has_cancel = true;
  cancelled.cancel.Cancel();
  const std::pair<exec::GovernorLimits, exec::LimitKind> cases[] = {
      {deadline, exec::LimitKind::kDeadline},
      {cancelled, exec::LimitKind::kCancelled},
  };
  for (const auto& [limits, kind] : cases) {
    BoundedEvaluator interp(&db);
    interp.set_limits(limits);
    Result<exec::Degraded<AnswerSet>> r =
        interp.EvaluateDegraded(q, *analysis, params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->complete);
    EXPECT_EQ(r->trip.kind, kind);
    ExpectPlainDifferentialEqual(q, analysis, &db, params, limits,
                                 /*enforce=*/false);
  }
}

TEST(CompiledVmTest, OutputRowCapTripsAreByteIdentical) {
  Social social(120);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q1, social.schema, social.access);
  for (uint64_t cap : {uint64_t{1}, uint64_t{2}, uint64_t{100}}) {
    exec::GovernorLimits limits;
    limits.output_row_cap = cap;
    ExpectPlainDifferentialEqual(q1, analysis, &social.db,
                                 {{V("p"), Value::Int(3)}}, limits,
                                 /*enforce=*/false);
  }
}

TEST(CompiledVmTest, EnforceBoundsErrorsAreByteIdentical) {
  Schema s;
  s.Relation("e", {"a", "b"});
  Database db(s);
  for (int64_t i = 0; i < 5; ++i) {
    db.Insert("e", Tuple{Value::Int(1), Value::Int(i)});
  }
  AccessSchema access;
  access.Add("e", {"a"}, 2);  // declared N = 2, actual 5
  FoQuery q = FQ("Q(x, y) := e(x, y)", s);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q, s, access);
  ExpectPlainDifferentialEqual(q, analysis, &db, {{V("x"), Value::Int(1)}},
                               {}, /*enforce=*/true);
}

TEST(CompiledVmTest, PropertyShapesDifferential) {
  // Same shape corpus as the interpreter's property test: conjunctions,
  // safe negation, conditions, bare atoms — everything the compiler accepts
  // must agree with the interpreter on every observable.
  const char* queries[] = {
      "Q(x, y) := r(x, y)",
      "Q(x, z) := exists y. r(x, y) and t(y, z)",
      "Q(x, y) := r(x, y) and not t(x, y)",
      "Q(x) := exists y. r(x, y) and t(x, y)",
      "Q(x, y) := r(x, y) and (y = 2 or y = 3)",
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
    ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
    for (const char* text : queries) {
      FoQuery q = FQ(text, s);
      std::shared_ptr<const ControllabilityAnalysis> analysis =
          Analyze(q, s, access);
      if (!analysis->IsControlledBy({V("x")})) continue;
      SCOPED_TRACE(text);
      for (int64_t p = 0; p < 6; ++p) {
        ExpectPlainDifferentialEqual(q, analysis, &db,
                                     {{V("x"), Value::Int(p)}}, {},
                                     /*enforce=*/false);
      }
    }
  }
}

TEST(CompiledVmTest, WideFrontierDifferential) {
  // 40 partial bindings after the first expand, each probing the second
  // leaf; accounting must be byte-identical, clean and under budgets that
  // trip part-way through the expansion.
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
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  FoQuery q = FQ("Q(x, z) := exists y. r(x, y) and t(y, z)", s);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q, s, access);
  ExpectPlainDifferentialEqual(q, analysis, &db, {{V("x"), Value::Int(1)}},
                               {}, /*enforce=*/false);
  // And under budgets that trip mid-expansion.
  for (uint64_t budget : {uint64_t{5}, uint64_t{20}, uint64_t{45}}) {
    exec::GovernorLimits limits;
    limits.fetch_budget = budget;
    ExpectPlainDifferentialEqual(q, analysis, &db, {{V("x"), Value::Int(1)}},
                                 limits, /*enforce=*/false);
  }
}

TEST(CompiledVmTest, BatchEvaluationDifferential) {
  Social social(80);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q1, social.schema, social.access);
  std::vector<Binding> batch;
  for (int64_t p = 0; p < 20; ++p) batch.push_back({{V("p"), Value::Int(p)}});
  Result<std::shared_ptr<const exec::CompiledProgram>> compiled =
      exec::CompilePlain(q1, analysis, {V("p")});
  ASSERT_TRUE(compiled.ok());
  PoolGuard guard;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    par::WorkerPool::Global().Resize(threads);
    BoundedEvaluator interp(&social.db);
    BoundedEvalStats istats;
    std::vector<Result<AnswerSet>> iout =
        interp.EvaluateBatch(q1, *analysis, batch, &istats);
    exec::CompiledEvaluator vm(&social.db);
    BoundedEvalStats vstats;
    std::vector<Result<AnswerSet>> vout =
        vm.EvaluateBatch(**compiled, batch, &vstats);
    ASSERT_EQ(iout.size(), vout.size());
    for (size_t i = 0; i < iout.size(); ++i) {
      ASSERT_EQ(iout[i].ok(), vout[i].ok()) << i;
      if (iout[i].ok()) {
        EXPECT_EQ(*iout[i], *vout[i]) << i;
      }
    }
    ExpectSameStats(istats, vstats, "batch");
  }
}

// ---------------------------------------------------------------------------
// Embedded (Proposition 4.5 chase) differential.

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
    config.num_cities = 2;
    config.num_years = 1;
    config.dated_visits = true;
    config.seed = 17;
    db = GenerateSocial(config);
    access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());
  }

  std::shared_ptr<const EmbeddedCqAnalysis> Analysis() {
    Result<EmbeddedCqAnalysis> a = EmbeddedCqAnalysis::Analyze(
        Q3(schema), schema, access, {V("p"), V("yy")});
    SI_CHECK_MSG(a.ok(), a.status().message().c_str());
    SI_CHECK(a->IsScaleIndependent());
    return std::make_shared<const EmbeddedCqAnalysis>(*std::move(a));
  }

  Binding Params(int64_t p) {
    return {{V("p"), Value::Int(p)},
            {V("yy"),
             Value::Int(static_cast<int64_t>(config.first_year))}};
  }
};

TEST(CompiledVmTest, EmbeddedDifferentialAcrossParams) {
  DatedSocial social;
  std::shared_ptr<const EmbeddedCqAnalysis> analysis = social.Analysis();
  Result<std::shared_ptr<const exec::CompiledProgram>> compiled =
      exec::CompileEmbedded(analysis);
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  PoolGuard guard;
  int nonempty = 0;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    par::WorkerPool::Global().Resize(threads);
    for (int64_t p = 0; p < 20; ++p) {
      BoundedEvaluator interp(&social.db);
      BoundedEvalStats istats;
      istats.capture_ops = true;
      Result<AnswerSet> iref =
          interp.EvaluateEmbedded(*analysis, social.Params(p), &istats);
      exec::CompiledEvaluator vm(&social.db);
      BoundedEvalStats vstats;
      vstats.capture_ops = true;
      Result<AnswerSet> vref =
          vm.EvaluateEmbedded(**compiled, social.Params(p), &vstats);
      ASSERT_EQ(iref.ok(), vref.ok()) << "p=" << p;
      ASSERT_TRUE(iref.ok()) << iref.status().ToString();
      EXPECT_EQ(*iref, *vref) << "p=" << p;
      if (!iref->empty()) ++nonempty;
      ExpectSameStats(istats, vstats, "embedded");
    }
  }
  EXPECT_GT(nonempty, 0);
}

TEST(CompiledVmTest, EmbeddedDegradedTripsAreByteIdentical) {
  DatedSocial social;
  std::shared_ptr<const EmbeddedCqAnalysis> analysis = social.Analysis();
  Result<std::shared_ptr<const exec::CompiledProgram>> compiled =
      exec::CompileEmbedded(analysis);
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  PoolGuard guard;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    par::WorkerPool::Global().Resize(threads);
    for (uint64_t budget : {uint64_t{1}, uint64_t{3}, uint64_t{10}}) {
      exec::GovernorLimits limits;
      limits.fetch_budget = budget;
      BoundedEvaluator interp(&social.db);
      interp.set_limits(limits);
      BoundedEvalStats istats;
      istats.capture_ops = true;
      Result<exec::Degraded<AnswerSet>> iref = interp.EvaluateEmbeddedDegraded(
          *analysis, social.Params(3), &istats);
      exec::CompiledEvaluator vm(&social.db);
      vm.set_limits(limits);
      BoundedEvalStats vstats;
      vstats.capture_ops = true;
      Result<exec::Degraded<AnswerSet>> vref =
          vm.EvaluateEmbeddedDegraded(**compiled, social.Params(3), &vstats);
      ASSERT_EQ(iref.ok(), vref.ok()) << "budget=" << budget;
      if (!iref.ok()) {
        EXPECT_EQ(iref.status().code(), vref.status().code());
        EXPECT_EQ(iref.status().message(), vref.status().message());
        continue;
      }
      EXPECT_EQ(iref->value, vref->value) << "budget=" << budget;
      EXPECT_EQ(iref->complete, vref->complete) << "budget=" << budget;
      ExpectSameTrip(iref->trip, vref->trip, "embedded degraded");
      ExpectSameStats(istats, vstats, "embedded degraded");
      EXPECT_EQ(SealedPayload(istats, !iref->complete, iref->trip),
                SealedPayload(vstats, !vref->complete, vref->trip));
    }
  }
}

TEST(CompiledVmTest, FailpointInjectedChaseErrorsAreByteIdentical) {
  DatedSocial social;
  std::shared_ptr<const EmbeddedCqAnalysis> analysis = social.Analysis();
  Result<std::shared_ptr<const exec::CompiledProgram>> compiled =
      exec::CompileEmbedded(analysis);
  ASSERT_TRUE(compiled.ok());
  struct FailpointGuard {
    ~FailpointGuard() { util::Failpoints::Global().Clear(); }
  } fp_guard;
  util::Failpoints& fp = util::Failpoints::Global();
  PoolGuard guard;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    par::WorkerPool::Global().Resize(threads);
    // The every-2 stream is global; reset it per engine so both see the
    // same fire schedule.
    ASSERT_TRUE(fp.Configure("chase_step=error(every:2)").ok());
    BoundedEvaluator interp(&social.db);
    Result<AnswerSet> iref =
        interp.EvaluateEmbedded(*analysis, social.Params(3));
    ASSERT_TRUE(fp.Configure("chase_step=error(every:2)").ok());
    exec::CompiledEvaluator vm(&social.db);
    Result<AnswerSet> vref = vm.EvaluateEmbedded(**compiled, social.Params(3));
    ASSERT_EQ(iref.ok(), vref.ok());
    if (!iref.ok()) {
      EXPECT_EQ(iref.status().code(), vref.status().code());
      EXPECT_EQ(iref.status().message(), vref.status().message());
    }
  }
  fp.Clear();
}

// ---------------------------------------------------------------------------
// Plan-set lifecycle: modes, failure caching, DDL invalidation.

TEST(CompiledVmTest, PlanSetModesAndFailureCaching) {
  Social social(40);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q1, social.schema, social.access);
  exec::CompiledPlanSet set;
  std::string why;
  bool failed = false;

  // kOff never compiles.
  EXPECT_EQ(set.GetOrCompilePlain(exec::CompiledPlanSet::Mode::kOff, q1,
                                  analysis, {V("p")}, &why, &failed),
            nullptr);
  EXPECT_FALSE(failed);
  EXPECT_EQ(set.compiles(), 0u);

  // kAuto defers the first sighting, compiles on the second.
  EXPECT_EQ(set.GetOrCompilePlain(exec::CompiledPlanSet::Mode::kAuto, q1,
                                  analysis, {V("p")}, &why, &failed),
            nullptr);
  EXPECT_FALSE(failed);
  EXPECT_NE(why.find("deferred"), std::string::npos);
  EXPECT_NE(set.GetOrCompilePlain(exec::CompiledPlanSet::Mode::kAuto, q1,
                                  analysis, {V("p")}, &why, &failed),
            nullptr);
  EXPECT_EQ(set.compiles(), 1u);

  // Cached: a third call returns the same program without recompiling.
  std::shared_ptr<const exec::CompiledProgram> again = set.GetOrCompilePlain(
      exec::CompiledPlanSet::Mode::kOn, q1, analysis, {V("p")}, &why, &failed);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(set.compiles(), 1u);

  // A parameter set the analysis does not control is a cached failure: one
  // rejection, then served from the failure slot, flagged for the
  // fallback counter both times.
  FoQuery q_uncontrolled = q1;
  failed = false;
  EXPECT_EQ(set.GetOrCompilePlain(exec::CompiledPlanSet::Mode::kOn,
                                  q_uncontrolled, analysis, {V("name")}, &why,
                                  &failed),
            nullptr);
  EXPECT_TRUE(failed);
  failed = false;
  EXPECT_EQ(set.GetOrCompilePlain(exec::CompiledPlanSet::Mode::kOn,
                                  q_uncontrolled, analysis, {V("name")}, &why,
                                  &failed),
            nullptr);
  EXPECT_TRUE(failed);
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
  std::string why;
  std::shared_ptr<const exec::CompiledProgram> p1 = set1->GetOrCompilePlain(
      exec::CompiledPlanSet::Mode::kOn, q1, *a1, {V("p")}, &why);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(set1->compiles(), 1u);

  // A cache hit hands back the same plan set (no recompilation).
  std::shared_ptr<exec::CompiledPlanSet> set_hit;
  ASSERT_TRUE(cache.GetOrAnalyze(q1.body, "q1", social.schema, social.access,
                                 {}, &set_hit)
                  .ok());
  EXPECT_EQ(set_hit.get(), set1.get());

  // DDL: the entry is dropped, and with it the attached bytecode. The next
  // analyze returns a *fresh, empty* plan set — the VM can never execute a
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
      exec::CompiledPlanSet::Mode::kOn, q1, *a2, {V("p")}, &why);
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(p2.get(), p1.get());  // recompiled against the fresh derivation
  EXPECT_EQ(set2->compiles(), 1u);
}

TEST(CompiledVmTest, ShellRecompilesAfterMidSessionDdl) {
  // End-to-end DDL regression: `access` DDL between two compiled evals must
  // invalidate the bytecode with the derivation. The second eval recompiles
  // against the new bounds and still answers correctly — never executes the
  // stale program, never errors.
  Shell shell;
  auto run = [&](const std::string& line) {
    Result<std::string> out = shell.Execute(line);
    SI_CHECK_MSG(out.ok(), (line + ": " + out.status().message()).c_str());
    return *std::move(out);
  };
  run("schema relation e(a, b)");
  run("access access e(a) N=10");
  run("row e 1,10");
  run("row e 1,11");
  run("compile on");
  const std::string first = run("eval x=1 Q(x, y) := e(x, y)");
  EXPECT_NE(first.find("(2 answers"), std::string::npos) << first;

  // DDL mid-session: tighten the declared bound. The cached entry (and its
  // compiled program) must be dropped.
  run("access access e(a) N=5");
  const std::string second = run("eval x=1 Q(x, y) := e(x, y)");
  EXPECT_NE(second.find("(2 answers"), std::string::npos) << second;

  // Both evals ran compiled (mode on): two hits, no fallbacks.
  const std::string status = run("compile status");
  EXPECT_NE(status.find("hits=2"), std::string::npos) << status;
  EXPECT_NE(status.find("fallbacks=0"), std::string::npos) << status;

  // And the EXPLAIN disassembly reflects the *new* static bound, proving
  // the program was recompiled, not served stale.
  const std::string explained = run("explain x=1 Q(x, y) := e(x, y)");
  EXPECT_NE(explained.find("compiled:"), std::string::npos) << explained;
  EXPECT_NE(explained.find("static_bound=5"), std::string::npos) << explained;
}

TEST(CompiledVmTest, ShellCompileOffMatchesInterpreterOutput) {
  // SCALEIN_COMPILE=off / `compile off` must restore today's behavior: the
  // rendered output of an eval is identical either way.
  auto session = [&](const char* mode) {
    Shell shell;
    auto run = [&](const std::string& line) {
      Result<std::string> out = shell.Execute(line);
      SI_CHECK_MSG(out.ok(), out.status().message().c_str());
      return *std::move(out);
    };
    run("schema relation e(a, b)");
    run("access access e(a) N=10");
    run("row e 1,10");
    run("row e 1,11");
    run("row e 2,20");
    run(std::string("compile ") + mode);
    return run("eval x=1 Q(x, y) := e(x, y)");
  };
  EXPECT_EQ(session("on"), session("off"));
}

TEST(CompiledVmTest, UnsupportedShapeFallsBackInShell) {
  // "or" derivations are outside the compiled grammar: with compile on the
  // eval still succeeds (interpreted) and the fallback counter advances.
  Shell shell;
  auto run = [&](const std::string& line) {
    Result<std::string> out = shell.Execute(line);
    SI_CHECK_MSG(out.ok(), out.status().message().c_str());
    return *std::move(out);
  };
  run("schema relation r(a, b)");
  run("schema relation t(a, b)");
  run("access access r(a) N=5");
  run("access access t(a) N=5");
  run("row r 1,10");
  run("row t 1,20");
  run("compile on");
  const std::string out = run("eval x=1 Q(x, y) := r(x, y) or t(x, y)");
  EXPECT_NE(out.find("(2 answers"), std::string::npos) << out;
  const std::string status = run("compile status");
  EXPECT_NE(status.find("hits=0"), std::string::npos) << status;
  EXPECT_NE(status.find("fallbacks=1"), std::string::npos) << status;
}

}  // namespace
}  // namespace scalein
