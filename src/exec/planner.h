#ifndef SCALEIN_EXEC_PLANNER_H_
#define SCALEIN_EXEC_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "query/cq.h"
#include "query/ra_expr.h"

namespace scalein::exec {

/// A lowered RA plan: the physical operator tree plus its output column
/// names (the expression's attribute order).
struct Plan {
  std::unique_ptr<Operator> root;
  std::vector<std::string> attributes;
};

/// Lowers `expr` to a physical operator tree charging `ctx`.
///
/// Planner rules:
///  * Any subtree of selections/projections/renames over a base relation is
///    collapsed into a single *base tower*; constant-equality conjuncts
///    become a HashIndex point lookup (IndexLookupOp), and a proper
///    projection whose conjuncts are all constant equalities becomes a
///    ProjectionIndex lookup — the physical forms of plain and embedded
///    access statements.
///  * A join whose right side is a base tower becomes an IndexJoinOp
///    probing the base relation's index on the shared attributes plus any
///    constant-pinned positions; otherwise a HashJoinOp (build right, probe
///    left). Nested-loop joins are gone.
///  * Unknown relation names plan to EmptyOp (matching EvalRa's seed
///    semantics of treating them as empty).
///
/// `ctx` must outlive the returned plan; relation contents must not mutate
/// between planning and draining.
Plan PlanRa(const RaExpr& expr, ExecContext* ctx);

/// A lowered CQ probe chain: `columns` are the distinct body variables in
/// binding order. `root` may be EmptyOp when an atom names an unknown
/// relation or has an arity mismatch; `columns` is then possibly incomplete,
/// which is fine because no rows are produced.
struct CqPlan {
  std::unique_ptr<Operator> root;
  std::vector<Variable> columns;
};

/// Lowers a conjunctive-query body (constants already substituted for any
/// externally bound variables) into a left-deep chain of IndexJoinOps seeded
/// by ConstRowOp. Atom order replicates CqEvaluator's greedy heuristic
/// exactly — most bound argument positions first, ties by smaller relation,
/// then lowest atom index — which is statically computable because
/// boundness depends only on *which* variables are bound, not their values.
CqPlan PlanCq(const Cq& q, ExecContext* ctx);

/// Drains `op` (already constructed, not yet opened) into a Relation of
/// `arity` columns; set semantics are restored by Relation::Insert. Every
/// emitted row is charged against the context's governor output cap; on any
/// governor trip the drain stops with the rows produced so far (the context
/// carries the typed error).
Relation DrainToRelation(Operator* op, size_t arity);

/// Degradation-aware drain: like DrainToRelation, but packages the partial
/// relation together with the trip record and the per-operator counter
/// snapshot when a governor limit stopped the pipeline. `complete` is true
/// on a clean drain. Non-governor failures (failpoints, internal errors)
/// still surface through the context's status only.
Degraded<Relation> DrainToRelationDegraded(Operator* op, size_t arity);

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_PLANNER_H_
