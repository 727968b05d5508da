#include "exec/planner.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace scalein::exec {
namespace {

size_t PositionOf(const std::vector<std::string>& attrs,
                  const std::string& name) {
  auto it = std::find(attrs.begin(), attrs.end(), name);
  SI_CHECK_MSG(it != attrs.end(), name.c_str());
  return static_cast<size_t>(it - attrs.begin());
}

/// A select/project/rename tower over one base relation, collapsed: output
/// column i of the subtree is base position `out_to_base[i]`, and `conds`
/// holds every selection conjunct rewritten to base positions.
struct BaseTower {
  std::string name;
  const Relation* rel = nullptr;  // nullptr: unknown relation, empty result
  size_t base_arity = 0;
  std::vector<size_t> out_to_base;
  CompiledCondition conds;
};

std::optional<BaseTower> ResolveBaseTower(const RaExpr& expr,
                                            ExecContext* ctx) {
  switch (expr.kind()) {
    case RaExpr::Kind::kRelation: {
      BaseTower ap;
      ap.name = expr.relation_name();
      ap.rel = ctx->Resolve(ap.name);
      ap.base_arity = expr.attributes().size();
      if (ap.rel != nullptr) SI_CHECK_EQ(ap.rel->arity(), ap.base_arity);
      ap.out_to_base.resize(ap.base_arity);
      for (size_t i = 0; i < ap.base_arity; ++i) ap.out_to_base[i] = i;
      return ap;
    }
    case RaExpr::Kind::kRename:
      // Renaming changes names only; positions pass through.
      return ResolveBaseTower(expr.input(), ctx);
    case RaExpr::Kind::kProject: {
      std::optional<BaseTower> child = ResolveBaseTower(expr.input(), ctx);
      if (!child.has_value()) return std::nullopt;
      const std::vector<std::string>& in_attrs = expr.input().attributes();
      std::vector<size_t> out;
      out.reserve(expr.projection().size());
      for (const std::string& a : expr.projection()) {
        out.push_back(child->out_to_base[PositionOf(in_attrs, a)]);
      }
      child->out_to_base = std::move(out);
      return child;
    }
    case RaExpr::Kind::kSelect: {
      std::optional<BaseTower> child = ResolveBaseTower(expr.input(), ctx);
      if (!child.has_value()) return std::nullopt;
      CompiledCondition local =
          CompiledCondition::Compile(expr.condition(), expr.input().attributes());
      for (CompiledAtom& a : local.atoms) {
        a.lhs = child->out_to_base[a.lhs];
        if (a.rhs_is_attr) a.rhs_pos = child->out_to_base[a.rhs_pos];
        child->conds.atoms.push_back(std::move(a));
      }
      return child;
    }
    default:
      return std::nullopt;
  }
}

bool IsIdentity(const std::vector<size_t>& out_to_base, size_t base_arity) {
  if (out_to_base.size() != base_arity) return false;
  for (size_t i = 0; i < base_arity; ++i) {
    if (out_to_base[i] != i) return false;
  }
  return true;
}

/// Constant-equality pins from `conds`: position -> constant, first wins.
std::map<size_t, Value> ConstPins(const CompiledCondition& conds) {
  std::map<size_t, Value> pins;
  for (const CompiledAtom& a : conds.atoms) {
    if (a.negated || a.rhs_is_attr) continue;
    pins.emplace(a.lhs, a.rhs_const);
  }
  return pins;
}

std::unique_ptr<Operator> PlanBaseTower(const BaseTower& ap,
                                         ExecContext* ctx) {
  if (ap.rel == nullptr) return std::make_unique<EmptyOp>(ctx);

  std::map<size_t, Value> pins = ConstPins(ap.conds);
  bool all_const_eq = true;
  std::set<size_t> cond_positions;
  for (const CompiledAtom& a : ap.conds.atoms) {
    if (a.negated || a.rhs_is_attr) all_const_eq = false;
    if (!cond_positions.insert(a.lhs).second) all_const_eq = false;  // dup pos
  }

  if (!pins.empty()) {
    std::vector<size_t> key_positions;
    Tuple key;
    key_positions.reserve(pins.size());
    key.reserve(pins.size());
    for (const auto& [p, v] : pins) {  // std::map: already sorted, unique
      key_positions.push_back(p);
      key.push_back(v);
    }
    // Embedded-statement shape π_Y(σ_{X=ā}(R)): serve the distinct
    // projections straight from the ProjectionIndex.
    std::set<size_t> out_set(ap.out_to_base.begin(), ap.out_to_base.end());
    if (all_const_eq && out_set.size() == ap.out_to_base.size() &&
        ap.out_to_base.size() < ap.base_arity) {
      std::vector<size_t> canonical(out_set.begin(), out_set.end());
      std::vector<size_t> remap;
      remap.reserve(ap.out_to_base.size());
      for (size_t p : ap.out_to_base) {
        remap.push_back(static_cast<size_t>(
            std::lower_bound(canonical.begin(), canonical.end(), p) -
            canonical.begin()));
      }
      return std::make_unique<ProjectionLookupOp>(
          ctx, ap.name, ap.rel, key_positions, canonical, key, remap);
    }
    std::unique_ptr<Operator> op = std::make_unique<IndexLookupOp>(
        ctx, ap.name, ap.rel, key_positions, key);
    // Conjuncts beyond the key (attr=attr, ≠, duplicate pins) run as a
    // residual filter over the base row.
    if (!all_const_eq || cond_positions.size() != pins.size()) {
      op = std::make_unique<FilterOp>(ctx, std::move(op), ap.conds);
    }
    if (!IsIdentity(ap.out_to_base, ap.base_arity)) {
      op = std::make_unique<ProjectOp>(ctx, std::move(op), ap.out_to_base);
    }
    return op;
  }

  std::unique_ptr<Operator> op =
      std::make_unique<ScanOp>(ctx, ap.name, ap.rel);
  if (!ap.conds.atoms.empty()) {
    op = std::make_unique<FilterOp>(ctx, std::move(op), ap.conds);
  }
  if (!IsIdentity(ap.out_to_base, ap.base_arity)) {
    op = std::make_unique<ProjectOp>(ctx, std::move(op), ap.out_to_base);
  }
  return op;
}

std::vector<size_t> AlignRightToLeft(const RaExpr& expr) {
  // align[i] = position in right attrs of left attr i.
  const std::vector<std::string>& lattrs = expr.left().attributes();
  const std::vector<std::string>& rattrs = expr.right().attributes();
  std::vector<size_t> align;
  align.reserve(lattrs.size());
  for (const std::string& a : lattrs) align.push_back(PositionOf(rattrs, a));
  return align;
}

std::unique_ptr<Operator> PlanJoin(const RaExpr& expr, ExecContext* ctx) {
  const std::vector<std::string>& lattrs = expr.left().attributes();
  const std::vector<std::string>& rattrs = expr.right().attributes();
  AttrSet lset(lattrs.begin(), lattrs.end());
  std::vector<size_t> l_shared;
  std::vector<size_t> r_shared;
  std::vector<size_t> r_extra;
  for (size_t rp = 0; rp < rattrs.size(); ++rp) {
    if (lset.count(rattrs[rp])) {
      r_shared.push_back(rp);
      l_shared.push_back(PositionOf(lattrs, rattrs[rp]));
    } else {
      r_extra.push_back(rp);
    }
  }

  Plan left = PlanRa(expr.left(), ctx);

  std::optional<BaseTower> path = ResolveBaseTower(expr.right(), ctx);
  if (path.has_value()) {
    if (path->rel == nullptr) return std::make_unique<EmptyOp>(ctx);
    // Probe columns: shared attributes keyed from the left row, plus any
    // constant-pinned base positions from pushed-down selections.
    std::vector<std::pair<size_t, IndexJoinOp::KeySource>> entries;
    std::set<size_t> probed;
    for (size_t i = 0; i < r_shared.size(); ++i) {
      size_t base_pos = path->out_to_base[r_shared[i]];
      if (!probed.insert(base_pos).second) continue;
      IndexJoinOp::KeySource s;
      s.from_left = true;
      s.left_col = l_shared[i];
      entries.emplace_back(base_pos, std::move(s));
    }
    for (const auto& [p, v] : ConstPins(path->conds)) {
      if (!probed.insert(p).second) continue;
      IndexJoinOp::KeySource s;
      s.constant = v;
      entries.emplace_back(p, std::move(s));
    }
    if (!entries.empty()) {
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      std::vector<size_t> positions;
      std::vector<IndexJoinOp::KeySource> sources;
      positions.reserve(entries.size());
      sources.reserve(entries.size());
      for (auto& [p, s] : entries) {
        positions.push_back(p);
        sources.push_back(std::move(s));
      }
      std::vector<size_t> emits;
      emits.reserve(r_extra.size());
      for (size_t rp : r_extra) emits.push_back(path->out_to_base[rp]);
      return std::make_unique<IndexJoinOp>(
          ctx, path->name, path->rel, std::move(left.root),
          std::move(positions), std::move(sources), path->conds,
          std::move(emits));
    }
    // No probe columns (pure cartesian against a base relation): fall
    // through to a hash join, which materializes the right side once
    // instead of rescanning it per left row.
  }

  Plan right = PlanRa(expr.right(), ctx);
  return std::make_unique<HashJoinOp>(ctx, std::move(left.root),
                                      std::move(right.root), l_shared,
                                      r_shared, r_extra);
}

}  // namespace

Plan PlanRa(const RaExpr& expr, ExecContext* ctx) {
  // Recursive calls nest, so an installed tracer sees planning as a flame
  // graph of the expression tree; with no tracer the span is a null check.
  obs::ScopedSpan span(ctx->tracer(), "plan.ra", "plan");
  Plan plan;
  plan.attributes = expr.attributes();
  std::optional<BaseTower> path = ResolveBaseTower(expr, ctx);
  if (path.has_value()) {
    plan.root = PlanBaseTower(*path, ctx);
    return plan;
  }
  switch (expr.kind()) {
    case RaExpr::Kind::kUnion: {
      Plan left = PlanRa(expr.left(), ctx);
      Plan right = PlanRa(expr.right(), ctx);
      plan.root = std::make_unique<UnionOp>(
          ctx, std::move(left.root), std::move(right.root),
          AlignRightToLeft(expr));
      return plan;
    }
    case RaExpr::Kind::kDiff: {
      Plan left = PlanRa(expr.left(), ctx);
      Plan right = PlanRa(expr.right(), ctx);
      plan.root = std::make_unique<DiffOp>(
          ctx, std::move(left.root), std::move(right.root),
          AlignRightToLeft(expr));
      return plan;
    }
    case RaExpr::Kind::kJoin:
      plan.root = PlanJoin(expr, ctx);
      return plan;
    case RaExpr::Kind::kSelect:
    case RaExpr::Kind::kProject:
    case RaExpr::Kind::kRename: {
      // Tower over a non-base-tower input (e.g. σ over a join): plan the
      // input, then apply the operation row-at-a-time.
      Plan input = PlanRa(expr.input(), ctx);
      switch (expr.kind()) {
        case RaExpr::Kind::kSelect:
          plan.root = std::make_unique<FilterOp>(
              ctx, std::move(input.root),
              CompiledCondition::Compile(expr.condition(), input.attributes));
          return plan;
        case RaExpr::Kind::kProject: {
          std::vector<size_t> positions;
          positions.reserve(expr.projection().size());
          for (const std::string& a : expr.projection()) {
            positions.push_back(PositionOf(input.attributes, a));
          }
          plan.root = std::make_unique<ProjectOp>(ctx, std::move(input.root),
                                                positions);
          return plan;
        }
        default:  // kRename: names only
          plan.root = std::move(input.root);
          return plan;
      }
    }
    default:
      break;
  }
  SI_CHECK(false);
  return plan;
}

CqPlan PlanCq(const Cq& q, ExecContext* ctx) {
  obs::ScopedSpan span(ctx->tracer(), "plan.cq", "plan");
  const std::vector<CqAtom>& atoms = q.atoms();
  if (obs::FlightRecorderEnabled()) {
    // Fingerprint over the atom relation sequence — cheap to build and
    // stable for a given query shape. (PlanRa recurses per node, so the
    // plan event lives here and in the shell, not inside PlanRa.)
    std::string shape;
    for (const CqAtom& atom : atoms) {
      shape += atom.relation;
      shape += '/';
      shape += std::to_string(atom.args.size());
      shape += ';';
    }
    obs::RecordFlightEvent(
        obs::EventKind::kPlan, obs::Fingerprint(shape),
        {obs::EventArg("engine", "plan.cq"),
         obs::EventArg("atoms", static_cast<uint64_t>(atoms.size()))});
  }
  CqPlan plan;
  std::unique_ptr<Operator> root = std::make_unique<ConstRowOp>(ctx);
  std::map<Variable, size_t> col_of;
  std::vector<bool> done(atoms.size(), false);

  for (size_t step = 0; step < atoms.size(); ++step) {
    // Most bound argument positions first; ties by smaller relation, then
    // lowest index (CqEvaluator's dynamic heuristic, computed statically).
    size_t best = atoms.size();
    int best_score = -1;
    size_t best_size = 0;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (done[i]) continue;
      int score = 0;
      for (const Term& t : atoms[i].args) {
        if (t.is_const() || col_of.count(t.var())) ++score;
      }
      const Relation* rel = ctx->Resolve(atoms[i].relation);
      size_t size = rel == nullptr ? 0 : rel->size();
      if (score > best_score || (score == best_score && size < best_size)) {
        best = i;
        best_score = score;
        best_size = size;
      }
    }
    SI_CHECK_LT(best, atoms.size());
    done[best] = true;
    const CqAtom& atom = atoms[best];
    const Relation* rel = ctx->Resolve(atom.relation);
    if (rel == nullptr || rel->arity() != atom.args.size()) {
      plan.root = std::make_unique<EmptyOp>(ctx);
      return plan;
    }

    std::vector<size_t> positions;
    std::vector<IndexJoinOp::KeySource> sources;
    CompiledCondition residual;
    std::vector<size_t> emits;
    std::map<Variable, size_t> first_pos;  // new vars' first position in atom
    for (size_t p = 0; p < atom.args.size(); ++p) {
      const Term& t = atom.args[p];
      IndexJoinOp::KeySource s;
      if (t.is_const()) {
        s.constant = t.constant();
        positions.push_back(p);
        sources.push_back(std::move(s));
        continue;
      }
      auto bound = col_of.find(t.var());
      if (bound != col_of.end()) {
        s.from_left = true;
        s.left_col = bound->second;
        positions.push_back(p);
        sources.push_back(std::move(s));
        continue;
      }
      auto seen = first_pos.find(t.var());
      if (seen != first_pos.end()) {
        // Repeated fresh variable within the atom: base-row equality.
        CompiledAtom eq;
        eq.lhs = p;
        eq.rhs_is_attr = true;
        eq.rhs_pos = seen->second;
        residual.atoms.push_back(std::move(eq));
        continue;
      }
      first_pos.emplace(t.var(), p);
      emits.push_back(p);
    }
    for (const auto& [v, p] : first_pos) {
      // Column index = left width + rank of p among emits.
      size_t rank = static_cast<size_t>(
          std::lower_bound(emits.begin(), emits.end(), p) - emits.begin());
      col_of.emplace(v, plan.columns.size() + rank);
    }
    // Record new columns in emit order.
    std::vector<std::pair<size_t, Variable>> ordered;
    for (const auto& [v, p] : first_pos) ordered.emplace_back(p, v);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [p, v] : ordered) plan.columns.push_back(v);

    root = std::make_unique<IndexJoinOp>(ctx, atom.relation, rel,
                                         std::move(root), std::move(positions),
                                         std::move(sources),
                                         std::move(residual), std::move(emits));
  }
  plan.root = std::move(root);
  return plan;
}

Relation DrainToRelation(Operator* op, size_t arity) {
  Relation out(arity);
  op->Open();
  Tuple row;
  while (op->Next(&row)) {
    // The row that trips the output cap is not part of the answer.
    if (!op->context()->ChargeOutput(1, op->counters())) break;
    out.Insert(row);
  }
  return out;
}

Degraded<Relation> DrainToRelationDegraded(Operator* op, size_t arity) {
  Degraded<Relation> result(DrainToRelation(op, arity));
  ExecContext* ctx = op->context();
  result.base_tuples_fetched = ctx->base_tuples_fetched();
  result.index_lookups = ctx->index_lookups();
  if (ctx->trip().tripped()) {
    result.complete = false;
    result.trip = ctx->trip();
    result.ops = ctx->SnapshotOps();
  }
  return result;
}

}  // namespace scalein::exec
