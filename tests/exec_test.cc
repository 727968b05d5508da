#include "exec/planner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "eval/cq_evaluator.h"
#include "eval/ra_evaluator.h"
#include "exec/exec_context.h"
#include "exec/operators.h"
#include "query/parser.h"

namespace scalein {
namespace {

Schema EmpSchema() {
  Schema s;
  s.Relation("emp", {"id", "dept", "city"});
  s.Relation("dept", {"dept", "budget"});
  return s;
}

Database EmpDb() {
  Database db(EmpSchema());
  db.Insert("emp", Tuple{Value::Int(1), Value::Str("eng"), Value::Str("NYC")});
  db.Insert("emp", Tuple{Value::Int(2), Value::Str("eng"), Value::Str("LA")});
  db.Insert("emp", Tuple{Value::Int(3), Value::Str("ops"), Value::Str("NYC")});
  db.Insert("dept", Tuple{Value::Str("eng"), Value::Int(100)});
  db.Insert("dept", Tuple{Value::Str("ops"), Value::Int(50)});
  return db;
}

RaExpr EmpRel() { return RaExpr::Relation("emp", {"id", "dept", "city"}); }
RaExpr DeptRel() { return RaExpr::Relation("dept", {"dept", "budget"}); }

Relation Drain(const RaExpr& expr, exec::ExecContext* ctx) {
  exec::Plan plan = exec::PlanRa(expr, ctx);
  return exec::DrainToRelation(plan.root.get(), plan.attributes.size());
}

TEST(ExecContextTest, ScanChargesEveryRow) {
  Database db = EmpDb();
  exec::ExecContext ctx(&db);
  Relation out = Drain(EmpRel(), &ctx);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(ctx.base_tuples_fetched(), 3u);
  EXPECT_EQ(ctx.index_lookups(), 0u);
  EXPECT_EQ(ctx.fetched_by_relation().at("emp"), 3u);
}

TEST(ExecContextTest, ConstantSelectionBecomesIndexLookup) {
  Database db = EmpDb();
  SelectionCondition cond;
  cond.conjuncts.push_back(
      SelectionAtom::AttrEqConst("city", Value::Str("NYC")));
  exec::ExecContext ctx(&db);
  Relation out = Drain(RaExpr::Select(EmpRel(), cond), &ctx);
  EXPECT_EQ(out.size(), 2u);
  // One hash-index probe fetching exactly the NYC bucket — not a scan.
  EXPECT_EQ(ctx.index_lookups(), 1u);
  EXPECT_EQ(ctx.base_tuples_fetched(), 2u);
}

TEST(ExecContextTest, EmbeddedShapeBecomesProjectionLookup) {
  Database db = EmpDb();
  SelectionCondition cond;
  cond.conjuncts.push_back(
      SelectionAtom::AttrEqConst("city", Value::Str("NYC")));
  exec::ExecContext ctx(&db);
  // π_{dept}(σ_{city=NYC}(emp)): the shape of an embedded access statement.
  Relation out =
      Drain(RaExpr::Project(RaExpr::Select(EmpRel(), cond), {"dept"}), &ctx);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.Contains(Tuple{Value::Str("eng")}));
  EXPECT_TRUE(out.Contains(Tuple{Value::Str("ops")}));
  // A projection index fetches the distinct projections, not the base rows.
  EXPECT_EQ(ctx.index_lookups(), 1u);
  EXPECT_EQ(ctx.base_tuples_fetched(), 2u);
}

TEST(ExecContextTest, JoinAgainstBaseRelationUsesIndexProbes) {
  Database db = EmpDb();
  exec::ExecContext ctx(&db);
  Relation out = Drain(RaExpr::Join(EmpRel(), DeptRel()), &ctx);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(out.Contains(Tuple{Value::Int(3), Value::Str("ops"),
                                 Value::Str("NYC"), Value::Int(50)}));
  // Left side scanned (3 emp rows), right side probed through the index on
  // dept.dept once per left row — never a full dept scan per row.
  EXPECT_EQ(ctx.index_lookups(), 3u);
  EXPECT_EQ(ctx.fetched_by_relation().at("emp"), 3u);
  EXPECT_EQ(ctx.fetched_by_relation().at("dept"), 3u);
}

TEST(ExecContextTest, FetchBudgetStopsExecutionMidStream) {
  Database db = EmpDb();
  exec::ExecContext ctx(&db);
  exec::GovernorLimits limits;
  limits.fetch_budget = 2;
  ctx.set_limits(limits);
  Relation out = Drain(EmpRel(), &ctx);
  EXPECT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.status().code(), StatusCode::kResourceExhausted);
  // The scan stopped as soon as the budget tripped: it never touched all
  // three rows.
  EXPECT_LT(out.size(), 3u);
  EXPECT_LE(ctx.base_tuples_fetched(), 3u);
}

TEST(ExecContextTest, OverridesResolveBeforeDatabase) {
  Database db = EmpDb();
  Relation delta(3);
  delta.Insert(Tuple{Value::Int(9), Value::Str("eng"), Value::Str("NYC")});
  exec::ExecContext ctx(&db);
  ctx.AddOverride("emp", &delta);
  // The plan joins ∆emp (the override) against the stored dept relation —
  // the shape the incremental maintainer relies on.
  Relation out = Drain(RaExpr::Join(EmpRel(), DeptRel()), &ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.Contains(Tuple{Value::Int(9), Value::Str("eng"),
                                 Value::Str("NYC"), Value::Int(100)}));
  EXPECT_EQ(ctx.fetched_by_relation().at("emp"), 1u);
}

TEST(ExecContextTest, UnknownRelationPlansEmpty) {
  Database db = EmpDb();
  exec::ExecContext ctx(&db);
  Relation out = Drain(RaExpr::Relation("ghost", {"x"}), &ctx);
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(ctx.base_tuples_fetched(), 0u);
}

TEST(ExecContextTest, PerOperatorCountersCoverAllCharges) {
  Database db = EmpDb();
  exec::ExecContext ctx(&db);
  (void)Drain(RaExpr::Join(EmpRel(), DeptRel()), &ctx);
  uint64_t per_op = 0;
  for (const exec::OpCounters& op : ctx.ops()) per_op += op.tuples_fetched;
  EXPECT_EQ(per_op, ctx.base_tuples_fetched());
}

TEST(ExecContextTest, PerOperatorAggregationAcrossPlans) {
  // One context can execute several plans; SnapshotOps keeps every plan's
  // forest (ids equal vector positions, parent links stay in range) and the
  // per-op fetch totals keep matching the context-wide accounting.
  Database db = EmpDb();
  exec::ExecContext ctx(&db);
  (void)Drain(EmpRel(), &ctx);
  (void)Drain(RaExpr::Join(EmpRel(), DeptRel()), &ctx);
  std::vector<exec::OpCounters> ops = ctx.SnapshotOps();
  ASSERT_GE(ops.size(), 2u);
  uint64_t per_op_fetched = 0;
  uint64_t per_op_lookups = 0;
  size_t roots = 0;
  for (const exec::OpCounters& op : ops) {
    EXPECT_EQ(op.id, static_cast<int32_t>(&op - ops.data()));
    if (op.parent < 0) {
      ++roots;
    } else {
      EXPECT_LT(op.parent, static_cast<int32_t>(ops.size()));
      EXPECT_NE(op.parent, op.id);
    }
    per_op_fetched += op.tuples_fetched;
    per_op_lookups += op.index_lookups;
  }
  EXPECT_EQ(roots, 2u);  // one root per drained plan
  EXPECT_EQ(per_op_fetched, ctx.base_tuples_fetched());
  EXPECT_EQ(per_op_lookups, ctx.index_lookups());
}

TEST(ExecContextTest, DebugStringListsTotalsAndPerOpCounters) {
  Database db = EmpDb();
  exec::ExecContext ctx(&db);
  Relation out = Drain(EmpRel(), &ctx);
  ASSERT_EQ(out.size(), 3u);
  std::string s = ctx.DebugString();
  EXPECT_NE(s.find("fetched=3"), std::string::npos);
  EXPECT_NE(s.find("lookups=0"), std::string::npos);
  EXPECT_NE(s.find("scan(emp): out=3 fetched=3"), std::string::npos);
}

TEST(PlannerTest, HashJoinHandlesDerivedRightSide) {
  Database db = EmpDb();
  // Right side is a union — not an access path, so the planner must fall
  // back to a hash join and still produce the right answer.
  RaExpr depts = RaExpr::Union(RaExpr::Project(DeptRel(), {"dept"}),
                               RaExpr::Project(DeptRel(), {"dept"}));
  exec::ExecContext ctx(&db);
  Relation out = Drain(RaExpr::Join(RaExpr::Project(EmpRel(), {"id", "dept"}),
                                    depts),
                       &ctx);
  EXPECT_EQ(out.size(), 3u);
}

TEST(PlannerTest, CartesianProductMaterializesRightOnce) {
  Database db = EmpDb();
  exec::ExecContext ctx(&db);
  Relation out = Drain(RaExpr::Join(RaExpr::Project(EmpRel(), {"id"}),
                                    RaExpr::Project(DeptRel(), {"budget"})),
                       &ctx);
  EXPECT_EQ(out.size(), 6u);
  // 3 emp rows + 2 dept rows: the product does NOT rescan dept per emp row.
  EXPECT_EQ(ctx.base_tuples_fetched(), 5u);
}

TEST(PlannerTest, MatchesReferenceEvaluatorOnExpressionZoo) {
  Database db = EmpDb();
  SelectionCondition nyc;
  nyc.conjuncts.push_back(
      SelectionAtom::AttrEqConst("city", Value::Str("NYC")));
  SelectionCondition self_neq;
  self_neq.conjuncts.push_back(SelectionAtom::AttrNeqConst("dept", Value::Str("eng")));
  std::vector<RaExpr> zoo = {
      EmpRel(),
      RaExpr::Select(EmpRel(), nyc),
      RaExpr::Select(EmpRel(), self_neq),
      RaExpr::Project(EmpRel(), {"dept", "city"}),
      RaExpr::Rename(EmpRel(), {{"id", "eid"}}),
      RaExpr::Join(EmpRel(), DeptRel()),
      RaExpr::Join(RaExpr::Select(EmpRel(), nyc), DeptRel()),
      RaExpr::Union(RaExpr::Project(EmpRel(), {"dept"}),
                    RaExpr::Project(DeptRel(), {"dept"})),
      RaExpr::Diff(RaExpr::Project(DeptRel(), {"dept"}),
                   RaExpr::Project(RaExpr::Select(EmpRel(), nyc), {"dept"})),
      RaExpr::Project(
          RaExpr::Join(RaExpr::Join(EmpRel(), DeptRel()),
                       RaExpr::Rename(RaExpr::Project(EmpRel(), {"id", "city"}),
                                      {{"id", "id2"}})),
          {"id", "budget"}),
  };
  for (const RaExpr& expr : zoo) {
    Relation reference = EvalRa(expr, db);
    exec::ExecContext ctx(&db);
    Relation engine = Drain(expr, &ctx);
    EXPECT_EQ(engine.SortedTuples(), reference.SortedTuples())
        << expr.ToString();
  }
}

TEST(PlannerTest, CqPlanAnswersMatchEvaluatorAndProbeIndexes) {
  Schema s = EmpSchema();
  Database db = EmpDb();
  Result<Cq> q = ParseCq("Q(id, budget) :- emp(id, d, \"NYC\"), dept(d, budget)",
                         &s);
  ASSERT_TRUE(q.ok());
  CqEvaluator eval(&db);
  AnswerSet reference = eval.EvaluateFull(*q, Binding{});

  exec::ExecContext ctx(&db);
  exec::CqPlan plan = exec::PlanCq(*q, &ctx);
  ASSERT_NE(plan.root, nullptr);
  // Drain the full binding rows and project onto the head variables.
  std::vector<size_t> head_cols;
  for (const Term& t : q->head()) {
    ASSERT_TRUE(t.is_var());
    auto it = std::find(plan.columns.begin(), plan.columns.end(), t.var());
    ASSERT_NE(it, plan.columns.end());
    head_cols.push_back(static_cast<size_t>(it - plan.columns.begin()));
  }
  AnswerSet engine;
  plan.root->Open();
  Tuple row;
  while (plan.root->Next(&row)) {
    Tuple head;
    for (size_t c : head_cols) head.push_back(row[c]);
    engine.insert(std::move(head));
  }
  EXPECT_EQ(engine, reference);
  EXPECT_GT(ctx.index_lookups(), 0u);
}

TEST(OperatorTest, CompiledConditionHonorsNegation) {
  SelectionCondition cond;
  cond.conjuncts.push_back(SelectionAtom::AttrEqConst("a", Value::Int(1)));
  cond.conjuncts.push_back(SelectionAtom::AttrNeqAttr("a", "b"));
  exec::CompiledCondition cc =
      exec::CompiledCondition::Compile(cond, {"a", "b"});
  Tuple yes{Value::Int(1), Value::Int(2)};
  Tuple no_eq{Value::Int(2), Value::Int(3)};
  Tuple no_neq{Value::Int(1), Value::Int(1)};
  EXPECT_TRUE(cc.Eval(yes));
  EXPECT_FALSE(cc.Eval(no_eq));
  EXPECT_FALSE(cc.Eval(no_neq));
}

}  // namespace
}  // namespace scalein
