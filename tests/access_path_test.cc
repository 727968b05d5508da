// One bounded run over one access path: the BoundedEvaluator entry points
// share one evaluation body (core/bounded_eval.cc) and every index probe —
// the VM's leaves, the Proposition 4.5 chase and the pull operators — goes
// through an ExecContext access path bound at its first probe. These tests
// pin what that must keep: when a relation enters the per-relation
// accounting, that the `index_probe` failpoint sees every probe, that a
// projection probe charges distinct projections, the span names and event
// kinds of each entry, and that observation never changes answers or
// accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/bounded_eval.h"
#include "exec/exec_context.h"
#include "exec/planner.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "util/failpoint.h"
#include "workload/social_gen.h"

namespace scalein {
namespace {

Variable V(const char* name) { return Variable::Named(name); }

std::set<std::string> Keys(const std::map<std::string, uint64_t>& m) {
  std::set<std::string> out;
  for (const auto& [name, n] : m) out.insert(name);
  return out;
}

/// "index_probe=error(every:n)": fail every n-th index probe.
std::string EveryNth(uint64_t n) {
  return "index_probe=error(every:" + std::to_string(n) + ")";
}

/// Disarms every failpoint when the test leaves, even on a failed ASSERT.
struct FailpointGuard {
  ~FailpointGuard() { util::Failpoints::Global().Clear(); }
};

/// Installs a tracer and a flight recorder process-wide for its lifetime.
struct ObservationGuard {
  obs::Tracer tracer;
  obs::FlightRecorder recorder{1 << 16};
  ObservationGuard() {
    obs::Tracer::InstallGlobal(&tracer);
    obs::FlightRecorder::InstallGlobal(&recorder);
  }
  ~ObservationGuard() {
    obs::Tracer::InstallGlobal(nullptr);
    obs::FlightRecorder::InstallGlobal(nullptr);
  }
};

/// The social database and Q3, the embedded (Proposition 4.5) chase query.
struct Embedded {
  SocialConfig config;
  Schema schema = SocialSchema(true);
  Database db{Schema{}};
  AccessSchema access;
  EmbeddedCqAnalysis analysis;

  Embedded() : analysis(Build()) {}

  EmbeddedCqAnalysis Build() {
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
    Result<Cq> q = ParseCq(
        "Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
        "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")",
        &schema);
    SI_CHECK(q.ok());
    Result<EmbeddedCqAnalysis> a =
        EmbeddedCqAnalysis::Analyze(*q, schema, access, {V("p"), V("yy")});
    SI_CHECK(a.ok() && a->IsScaleIndependent());
    return *std::move(a);
  }

  Binding Params(int64_t p) const {
    return Binding{
        {V("p"), Value::Int(p)},
        {V("yy"), Value::Int(static_cast<int64_t>(config.first_year))}};
  }
};

/// The social database and Q1, a plain (Theorem 4.2) query.
struct Plain {
  SocialConfig config;
  Schema schema = SocialSchema(false);
  Database db{Schema{}};
  AccessSchema access;
  FoQuery q;
  ControllabilityAnalysis analysis;

  Plain() : q(Parse()), analysis(Build()) {}

  FoQuery Parse() {
    Result<FoQuery> r = ParseFoQuery(
        "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
        &schema);
    SI_CHECK(r.ok());
    return *std::move(r);
  }

  ControllabilityAnalysis Build() {
    config.num_persons = 60;
    config.max_friends_per_person = 10;
    config.num_restaurants = 40;
    config.seed = 99;
    db = GenerateSocial(config);
    access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());
    Result<ControllabilityAnalysis> a =
        ControllabilityAnalysis::Analyze(q.body, schema, access);
    SI_CHECK(a.ok());
    return *std::move(a);
  }

  Binding Params(int64_t p) const { return Binding{{V("p"), Value::Int(p)}}; }
};

/// a(x, y), b(y, z), c(z, w): a three-hop chain every hop of which the CQ
/// planner turns into a probing IndexJoinOp.
Database ChainDb(Schema* schema) {
  schema->Relation("a", {"x", "y"});
  schema->Relation("b", {"y", "z"});
  schema->Relation("c", {"z", "w"});
  Database db(*schema);
  for (int64_t y = 0; y < 4; ++y) {
    db.Insert("a", Tuple{Value::Int(1), Value::Int(y)});
  }
  for (int64_t y = 0; y < 4; ++y) {
    for (int64_t z = 0; z < 3; ++z) {
      db.Insert("b", Tuple{Value::Int(y), Value::Int(10 * y + z)});
    }
  }
  for (int64_t z = 0; z < 40; z += 2) {
    db.Insert("c", Tuple{Value::Int(z), Value::Int(z + 100)});
  }
  return db;
}

struct ChainRun {
  Relation out{1};
  uint64_t lookups = 0;
  std::map<std::string, uint64_t> fetched;
  Status status;
};

ChainRun RunChain(Database* db, const Schema& schema) {
  Result<Cq> q = ParseCq("Q(w) :- a(1, y), b(y, z), c(z, w)", &schema);
  SI_CHECK(q.ok());
  exec::ExecContext ctx(db);
  exec::CqPlan plan = exec::PlanCq(*q, &ctx);
  ChainRun run;
  run.out = exec::DrainToRelation(plan.root.get(), plan.columns.size());
  run.lookups = ctx.index_lookups();
  run.fetched = ctx.fetched_by_relation();
  run.status = ctx.status();
  return run;
}

TEST(AccessPathTest, ChaseProbeFailpointEntersRelationsAtTheirFirstCharge) {
  Embedded e;
  BoundedEvaluator evaluator(&e.db);
  const Binding params = e.Params(12);

  // A clean run: one "chase(R)" op per atom, in plan order, each counting
  // its atom's probes. The chase makes every probe of one atom before the
  // next atom's, so the first probe of atom i is probe 1 + Σ_{j<i} L_j.
  BoundedEvalStats clean;
  clean.capture_ops = true;
  ASSERT_TRUE(evaluator.EvaluateEmbedded(e.analysis, params, &clean).ok());
  std::vector<std::pair<std::string, uint64_t>> atoms;  // relation, lookups
  for (const exec::OpCounters& op : clean.ops) {
    if (op.label.rfind("chase(", 0) != 0) continue;
    atoms.emplace_back(op.label.substr(6, op.label.size() - 7),
                       op.index_lookups);
  }
  ASSERT_GE(atoms.size(), 4u);
  const uint64_t total = clean.index_lookups;
  ASSERT_GT(total, 100u);

  util::Failpoints& fp = util::Failpoints::Global();
  FailpointGuard guard;
  // Armed but never firing: the site sees exactly one hit per probe.
  ASSERT_TRUE(fp.Configure(EveryNth(total + 1)).ok());
  BoundedEvalStats armed;
  ASSERT_TRUE(evaluator.EvaluateEmbedded(e.analysis, params, &armed).ok());
  EXPECT_EQ(fp.hits(), total);
  EXPECT_EQ(armed.fetched_by_relation, clean.fetched_by_relation);

  for (uint64_t n = 1; n <= total; ++n) {
    ASSERT_TRUE(fp.Configure(EveryNth(n)).ok());
    BoundedEvalStats stats;
    Result<AnswerSet> r =
        evaluator.EvaluateEmbedded(e.analysis, params, &stats);
    ASSERT_FALSE(r.ok()) << n;
    EXPECT_EQ(r.status().message(), "failpoint 'index_probe' fired") << n;
    EXPECT_EQ(fp.hits(), n);
    EXPECT_EQ(stats.index_lookups, n - 1);
    // A relation is in the accounting iff one of its probes succeeded
    // before the failing n-th: a relation whose first probe fails is not.
    std::set<std::string> want;
    uint64_t before = 0;
    for (const auto& [rel, lookups] : atoms) {
      if (lookups > 0 && before < n - 1) want.insert(rel);
      before += lookups;
    }
    ASSERT_EQ(Keys(stats.fetched_by_relation), want) << "n=" << n;
  }
}

TEST(AccessPathTest, IndexJoinProbeFailpointKeepsConstructionEntries) {
  Schema schema;
  Database db = ChainDb(&schema);
  const ChainRun clean = RunChain(&db, schema);
  ASSERT_TRUE(clean.status.ok());
  // 1 probe of a, one b probe per a row, one c probe per b row.
  ASSERT_EQ(clean.lookups, 1u + 4u + 12u);
  ASSERT_EQ(clean.out.size(), 8u);
  const std::set<std::string> all = {"a", "b", "c"};

  util::Failpoints& fp = util::Failpoints::Global();
  FailpointGuard guard;
  ASSERT_TRUE(fp.Configure(EveryNth(1000)).ok());
  const ChainRun armed = RunChain(&db, schema);
  EXPECT_EQ(fp.hits(), clean.lookups);
  EXPECT_EQ(armed.fetched, clean.fetched);

  for (uint64_t n = 1; n <= clean.lookups; ++n) {
    ASSERT_TRUE(fp.Configure(EveryNth(n)).ok());
    const ChainRun run = RunChain(&db, schema);
    EXPECT_FALSE(run.status.ok()) << n;
    EXPECT_EQ(fp.hits(), n);
    EXPECT_EQ(run.lookups, n - 1);
    // IndexJoinOp enters its relation when the plan is built, so a failed
    // first probe still leaves every relation of the plan in the map.
    EXPECT_EQ(Keys(run.fetched), all) << "n=" << n;
  }
}

TEST(AccessPathTest, ProjectionProbeChargesDistinctProjections) {
  Schema schema;
  schema.Relation("r", {"k", "a", "b"});
  Database db(schema);
  db.Insert("r", Tuple{Value::Int(1), Value::Int(10), Value::Int(100)});
  db.Insert("r", Tuple{Value::Int(1), Value::Int(10), Value::Int(200)});
  db.Insert("r", Tuple{Value::Int(1), Value::Int(20), Value::Int(300)});
  db.Insert("r", Tuple{Value::Int(2), Value::Int(10), Value::Int(400)});

  // Three rows match k = 1 but project onto two distinct a values: the
  // statement r(k)[a]'s N bounds the distinct projections, so that is what
  // one probe charges.
  exec::ExecContext ctx(&db);
  const std::string name = "r";
  const std::vector<size_t> keys = {0};
  const std::vector<size_t> values = {1};
  exec::AccessPath path = exec::AccessPath::Projection(
      name, db.FindRelation("r"), keys, values);
  const ProjectionIndex::Group* group =
      ctx.ProbeProjection(&path, Tuple{Value::Int(1)}, nullptr);
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->size(), 2u);
  EXPECT_EQ(ctx.index_lookups(), 1u);
  EXPECT_EQ(ctx.base_tuples_fetched(), 2u);
  EXPECT_EQ(ctx.fetched_by_relation().at("r"), 2u);

  // The pull operators' projection lookup (π_a σ_{k=1} r) charges the same.
  SelectionCondition cond;
  cond.conjuncts.push_back(SelectionAtom::AttrEqConst("k", Value::Int(1)));
  const RaExpr expr = RaExpr::Project(
      RaExpr::Select(RaExpr::Relation("r", {"k", "a", "b"}), cond), {"a"});
  exec::ExecContext plan_ctx(&db);
  exec::Plan plan = exec::PlanRa(expr, &plan_ctx);
  Relation out = exec::DrainToRelation(plan.root.get(), 1);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(plan_ctx.index_lookups(), 1u);
  EXPECT_EQ(plan_ctx.base_tuples_fetched(), 2u);
}

using Event = std::pair<obs::EventKind, std::string>;

/// Span names and flight-event (kind, label) pairs recorded by `fn`.
template <typename Fn>
std::pair<std::vector<std::string>, std::vector<Event>> Observe(
    ObservationGuard* o, Fn fn) {
  o->tracer.Clear();
  o->recorder.Clear();
  fn();
  std::vector<std::string> spans;
  for (const obs::TraceEvent& e : o->tracer.events()) spans.push_back(e.name);
  std::vector<Event> events;
  for (const obs::FlightEvent& e : o->recorder.events()) {
    events.emplace_back(e.kind, e.label);
  }
  return {spans, events};
}

TEST(AccessPathTest, EveryEntryKeepsItsSpanNameAndEventKinds) {
  Plain plain;
  Embedded emb;
  ObservationGuard o;
  using K = obs::EventKind;

  BoundedEvaluator pe(&plain.db);
  auto [spans, events] = Observe(
      &o, [&] { ASSERT_TRUE(pe.Evaluate(plain.q, plain.analysis,
                                        plain.Params(5)).ok()); });
  EXPECT_EQ(spans, std::vector<std::string>{"bounded.evaluate"});
  // One event: the 3% governor gate times this path.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], Event(K::kQueryFinish, "bounded.eval"));

  std::tie(spans, events) = Observe(&o, [&] {
    ASSERT_TRUE(
        pe.EvaluateDegraded(plain.q, plain.analysis, plain.Params(5)).ok());
  });
  EXPECT_EQ(spans, std::vector<std::string>{"bounded.evaluate_degraded"});
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], Event(K::kQueryStart, "bounded.evaluate_degraded"));
  EXPECT_EQ(events[1], Event(K::kQueryFinish, "bounded.evaluate_degraded"));

  BoundedEvaluator ee(&emb.db);
  std::tie(spans, events) = Observe(&o, [&] {
    ASSERT_TRUE(ee.EvaluateEmbedded(emb.analysis, emb.Params(3)).ok());
  });
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back(), "bounded.evaluate_embedded");
  EXPECT_EQ(std::count(spans.begin(), spans.end(), "bounded.chase_step"),
            static_cast<long>(spans.size()) - 1);
  ASSERT_GE(events.size(), 2u);
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_EQ(events[i].first, K::kChaseStep);
  }
  EXPECT_EQ(events.back(), Event(K::kQueryFinish, "bounded.evaluate_embedded"));

  std::tie(spans, events) = Observe(&o, [&] {
    ASSERT_TRUE(ee.EvaluateEmbeddedDegraded(emb.analysis, emb.Params(3)).ok());
  });
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back(), "bounded.evaluate_embedded_degraded");
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front(),
            Event(K::kQueryStart, "bounded.evaluate_embedded_degraded"));
  for (size_t i = 1; i + 1 < events.size(); ++i) {
    EXPECT_EQ(events[i].first, K::kChaseStep);
  }
  EXPECT_EQ(events.back(),
            Event(K::kQueryFinish, "bounded.evaluate_embedded_degraded"));

  // A plain Evaluate registers ops only for timing or capture, so its trip
  // names no op; the degraded entry always registers them, so its does.
  exec::GovernorLimits budget;
  budget.fetch_budget = 1;
  pe.set_limits(budget);
  std::tie(spans, events) = Observe(&o, [&] {
    Result<AnswerSet> r = pe.Evaluate(plain.q, plain.analysis, plain.Params(5));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().message().find("at op"), std::string::npos)
        << r.status().message();
  });
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].first, K::kGovernorTrip);
  EXPECT_EQ(events[1].first, K::kQueryFinish);
  Result<exec::Degraded<AnswerSet>> d =
      pe.EvaluateDegraded(plain.q, plain.analysis, plain.Params(5));
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->complete);
  EXPECT_NE(d->trip.ToString().find("at op"), std::string::npos)
      << d->trip.ToString();
}

/// Everything an evaluation is judged by, rendered for comparison.
std::string Outcome(const Result<AnswerSet>& r, const BoundedEvalStats& s) {
  std::string out = r.ok() ? AnswerSetToString(*r) : r.status().ToString();
  out += " f=" + std::to_string(s.base_tuples_fetched) +
         " l=" + std::to_string(s.index_lookups);
  for (const auto& [name, n] : s.fetched_by_relation) {
    out += " " + name + ":" + std::to_string(n);
  }
  return out;
}

std::string Outcome(const Result<exec::Degraded<AnswerSet>>& r,
                    const BoundedEvalStats& s) {
  if (!r.ok()) return Outcome(Result<AnswerSet>(r.status()), s);
  return Outcome(Result<AnswerSet>(r->value), s) +
         (r->complete ? "" : " trip=" + r->trip.ToString());
}

/// Plain, embedded and planned-RA evaluations, one outcome line each.
std::vector<std::string> RunAll(Plain* plain, Embedded* emb) {
  std::vector<std::string> out;
  BoundedEvaluator pe(&plain->db);
  BoundedEvaluator ee(&emb->db);
  for (int64_t p = 0; p < 8; ++p) {
    BoundedEvalStats s1, s2, s3, s4;
    out.push_back(Outcome(
        pe.Evaluate(plain->q, plain->analysis, plain->Params(p), &s1), s1));
    out.push_back(Outcome(
        pe.EvaluateDegraded(plain->q, plain->analysis, plain->Params(p), &s2),
        s2));
    out.push_back(
        Outcome(ee.EvaluateEmbedded(emb->analysis, emb->Params(p), &s3), s3));
    out.push_back(Outcome(
        ee.EvaluateEmbeddedDegraded(emb->analysis, emb->Params(p), &s4), s4));
  }
  exec::GovernorLimits budget;
  budget.fetch_budget = 10;
  pe.set_limits(budget);
  ee.set_limits(budget);
  BoundedEvalStats s5, s6;
  out.push_back(Outcome(
      pe.EvaluateDegraded(plain->q, plain->analysis, plain->Params(5), &s5),
      s5));
  out.push_back(Outcome(
      ee.EvaluateEmbeddedDegraded(emb->analysis, emb->Params(3), &s6), s6));

  // Planned RA: an index join, a projection lookup and a scan.
  Result<Cq> q = ParseCq(
      "Q(n) :- friend(1, id), person(id, n, \"NYC\")", &plain->schema);
  SI_CHECK(q.ok());
  exec::ExecContext ctx(&plain->db);
  exec::CqPlan plan = exec::PlanCq(*q, &ctx);
  Relation rel = exec::DrainToRelation(plan.root.get(), plan.columns.size());
  out.push_back(rel.ToString(1000) + " " + ctx.DebugString());
  SelectionCondition cond;
  cond.conjuncts.push_back(SelectionAtom::AttrEqConst("id1", Value::Int(7)));
  const RaExpr proj = RaExpr::Project(
      RaExpr::Select(RaExpr::Relation("friend", {"id1", "id2"}), cond),
      {"id2"});
  exec::ExecContext pctx(&plain->db);
  exec::Plan pplan = exec::PlanRa(proj, &pctx);
  out.push_back(exec::DrainToRelation(pplan.root.get(), 1).ToString(1000) +
                " " + pctx.DebugString());
  return out;
}

TEST(AccessPathTest, ObservationNeverChangesAnswersOrAccounting) {
  Plain plain;
  Embedded emb;
  const std::vector<std::string> bare = RunAll(&plain, &emb);
  std::vector<std::string> observed;
  {
    ObservationGuard o;
    observed = RunAll(&plain, &emb);
    EXPECT_GT(o.tracer.size(), 0u);
    EXPECT_GT(o.recorder.size(), 0u);
  }
  ASSERT_EQ(bare.size(), observed.size());
  for (size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i], observed[i]) << "case " << i;
  }
}

}  // namespace
}  // namespace scalein
