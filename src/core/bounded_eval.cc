#include "core/bounded_eval.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "core/approx.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "par/worker_pool.h"
#include "util/failpoint.h"

namespace scalein {
namespace {

/// Builds every index the derivation under (node, opt) can probe, so the
/// lanes of a batch only ever *find* indexes (Ensure* is a
/// const-but-mutating cache fill and must not race). Mirrors the recursion
/// of PlainExecutor::RegisterOps.
void PrebuildPlainIndexes(const Database& db, const NodeAnalysis& node,
                          const ControlOption& opt) {
  if (opt.rule == "atom") {
    const Relation* rel = db.FindRelation(node.formula.relation());
    if (rel == nullptr || opt.key_positions.empty()) return;
    rel->EnsureIndex(opt.key_positions);
    return;
  }
  if (opt.rule == "and") {
    for (size_t step = 0; step < opt.conjunct_order.size(); ++step) {
      PrebuildPlainIndexes(db, *node.subs[opt.conjunct_order[step]],
                           *opt.child_options[step]);
    }
    const size_t n_neg = node.subs.size() - node.n_positives;
    for (size_t ni = 0; ni < n_neg; ++ni) {
      PrebuildPlainIndexes(db, *node.subs[node.n_positives + ni],
                           *opt.child_options[opt.conjunct_order.size() + ni]);
    }
  } else if (opt.rule == "or") {
    for (size_t i = 0; i < node.subs.size(); ++i) {
      PrebuildPlainIndexes(db, *node.subs[i], *opt.child_options[i]);
    }
  } else if (opt.rule == "exists") {
    PrebuildPlainIndexes(db, *node.subs[0], *opt.child_options[0]);
  } else if (opt.rule == "forall") {
    PrebuildPlainIndexes(db, *node.subs[0], *opt.child_options[0]);
    PrebuildPlainIndexes(db, *node.subs[1], *opt.child_options[1]);
  }
}

/// Embedded counterpart: projection indexes for every chase step plus the
/// verification index per atom plan.
void PrebuildEmbeddedIndexes(const Database& db,
                             const EmbeddedCqAnalysis& analysis) {
  if (!analysis.IsScaleIndependent()) return;
  const Cq& q = analysis.query();
  for (const AtomPlan& ap : analysis.plan().atom_plans) {
    const Relation* rel = db.FindRelation(q.atoms()[ap.atom_index].relation);
    if (rel == nullptr) continue;
    for (const AtomChaseStep& step : ap.steps) {
      rel->EnsureProjectionIndex(step.key_positions, step.value_positions);
    }
    if (ap.needs_verification) rel->EnsureIndex(ap.verify_key_positions);
  }
}

Value ResolveTerm(const Term& t, const Binding& env) {
  if (t.is_const()) return t.constant();
  auto it = env.find(t.var());
  SI_CHECK_MSG(it != env.end(), "unbound variable in bounded evaluation");
  return it->second;
}

/// Evaluates an equality condition under a complete environment.
bool EvalConditionFormula(const Formula& f, const Binding& env) {
  switch (f.kind()) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kEq:
      return ResolveTerm(f.eq_lhs(), env) == ResolveTerm(f.eq_rhs(), env);
    case FormulaKind::kNot:
      return !EvalConditionFormula(f.child(), env);
    case FormulaKind::kAnd:
      for (const Formula& c : f.operands()) {
        if (!EvalConditionFormula(c, env)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const Formula& c : f.operands()) {
        if (EvalConditionFormula(c, env)) return true;
      }
      return false;
    case FormulaKind::kImplies:
      return !EvalConditionFormula(f.premise(), env) ||
             EvalConditionFormula(f.conclusion(), env);
    default:
      SI_CHECK_MSG(false, "non-condition node in condition evaluation");
      return false;
  }
}

using BindingSet = std::set<Binding>;

/// Walks a controllability derivation, fetching data exclusively through the
/// engine's metered access layer so its charges land in the same
/// exec::ExecContext counters (budget, per-relation totals) every other
/// evaluation path uses.
class PlainExecutor {
 public:
  PlainExecutor(Database* db, bool enforce_bounds, exec::ExecContext* ctx)
      : db_(db), enforce_bounds_(enforce_bounds), ctx_(ctx) {}

  Status status() const { return ctx_->status(); }

  /// Pre-registers one OpCounters per derivation node (children in
  /// evaluation order), carrying the node's static fetch bound
  /// (ControlOption::fetch_bound), so the executed derivation renders as an
  /// EXPLAIN ANALYZE tree with bound-vs-actual per node. Optional: when not
  /// called, Eval runs without per-node accounting.
  void RegisterOps(const NodeAnalysis& node, const ControlOption& opt,
                   int32_t parent) {
    std::string label =
        opt.rule == "atom" ? "atom(" + node.formula.relation() + ")" : opt.rule;
    exec::OpCounters* op = ctx_->NewOp(std::move(label), parent);
    op->static_bound = opt.fetch_bound;
    node_ops_[&node] = op;
    if (opt.rule == "and") {
      for (size_t step = 0; step < opt.conjunct_order.size(); ++step) {
        RegisterOps(*node.subs[opt.conjunct_order[step]],
                    *opt.child_options[step], op->id);
      }
      const size_t n_neg = node.subs.size() - node.n_positives;
      for (size_t ni = 0; ni < n_neg; ++ni) {
        RegisterOps(*node.subs[node.n_positives + ni],
                    *opt.child_options[opt.conjunct_order.size() + ni],
                    op->id);
      }
    } else if (opt.rule == "or") {
      for (size_t i = 0; i < node.subs.size(); ++i) {
        RegisterOps(*node.subs[i], *opt.child_options[i], op->id);
      }
    } else if (opt.rule == "exists") {
      RegisterOps(*node.subs[0], *opt.child_options[0], op->id);
    } else if (opt.rule == "forall") {
      RegisterOps(*node.subs[0], *opt.child_options[0], op->id);
      RegisterOps(*node.subs[1], *opt.child_options[1], op->id);
    }
  }

  /// Returns bindings over free(node) − dom(env). Thin accounting wrapper
  /// around EvalImpl: rows_out counts bindings produced per visit, and —
  /// only when the context enabled timing — inclusive wall time per node.
  BindingSet Eval(const NodeAnalysis& node, const ControlOption& opt,
                  const Binding& env) {
    exec::OpCounters* op = OpFor(node);
#if SCALEIN_OBS_ENABLE_TIMING
    if (op != nullptr && ctx_->timing_enabled()) {
      const uint64_t start = obs::MonotonicNowNs();
      BindingSet out = EvalImpl(node, opt, env, op);
      op->next_ns += obs::MonotonicNowNs() - start;
      ++op->next_calls;
      op->rows_out += out.size();
      return out;
    }
#endif
    BindingSet out = EvalImpl(node, opt, env, op);
    if (op != nullptr) op->rows_out += out.size();
    return out;
  }

 private:
  exec::OpCounters* OpFor(const NodeAnalysis& node) const {
    if (node_ops_.empty()) return nullptr;
    auto it = node_ops_.find(&node);
    return it == node_ops_.end() ? nullptr : it->second;
  }

  BindingSet EvalImpl(const NodeAnalysis& node, const ControlOption& opt,
                      const Binding& env, exec::OpCounters* op) {
    if (!ctx_->ok()) return {};
    if (opt.rule == "condition") {
      // Variables the condition *determines* (x = c pins, x = y chains back
      // to a controlled representative) extend the environment first.
      Binding extension;
      for (const auto& [v, t] : opt.condition_resolve) {
        if (env.count(v)) continue;
        if (t.is_const()) {
          extension.emplace(v, t.constant());
        } else {
          auto rep = env.find(t.var());
          SI_CHECK_MSG(rep != env.end(),
                       "condition representative missing from environment");
          extension.emplace(v, rep->second);
        }
      }
      Binding full = env;
      for (const auto& [v, val] : extension) full.emplace(v, val);
      return EvalConditionFormula(node.formula, full)
                 ? BindingSet{std::move(extension)}
                 : BindingSet{};
    }
    if (opt.rule == "atom") return EvalAtom(node, opt, env, op);
    if (opt.rule == "and") return EvalAnd(node, opt, env);
    if (opt.rule == "or") return EvalOr(node, opt, env);
    if (opt.rule == "exists") return EvalExists(node, opt, env);
    if (opt.rule == "forall") return EvalForall(node, opt, env);
    SI_CHECK_MSG(false, "unknown rule in derivation");
    return {};
  }

  BindingSet EvalAtom(const NodeAnalysis& node, const ControlOption& opt,
                      const Binding& env, exec::OpCounters* op) {
    const Formula& atom = node.formula;
    const Relation* rel = db_->FindRelation(atom.relation());
    if (rel == nullptr) return {};

    // Assemble the index key over the statement's X positions.
    std::vector<std::pair<size_t, Value>> kv;
    kv.reserve(opt.key_positions.size());
    for (size_t p : opt.key_positions) {
      kv.emplace_back(p, ResolveTerm(atom.args()[p], env));
    }
    std::sort(kv.begin(), kv.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<size_t> positions;
    Tuple key;
    for (auto& [p, v] : kv) {
      if (!positions.empty() && positions.back() == p) continue;
      positions.push_back(p);
      key.push_back(v);
    }

    BindingSet out;
    auto consume = [&](TupleView row) {
      Binding extension;
      for (size_t p = 0; p < atom.args().size(); ++p) {
        const Term& t = atom.args()[p];
        if (t.is_const()) {
          if (!(t.constant() == row[p])) return;
          continue;
        }
        auto bound = env.find(t.var());
        if (bound != env.end()) {
          if (!(bound->second == row[p])) return;
          continue;
        }
        auto ext = extension.find(t.var());
        if (ext != extension.end()) {
          if (!(ext->second == row[p])) return;
          continue;
        }
        extension.emplace(t.var(), row[p]);
      }
      out.insert(std::move(extension));
    };

    if (positions.empty()) {
      // (R, ∅, N, T): the whole relation is the access unit.
      exec::ChargeFullAccess(ctx_, atom.relation(), *rel, op);
      if (!ctx_->ok()) return {};
      if (enforce_bounds_ && rel->size() > opt.access->max_tuples) {
        ctx_->SetError(Status::ResourceExhausted(
            "relation " + atom.relation() + " exceeds declared N of " +
            opt.access->ToString()));
        return {};
      }
      for (size_t i = 0; i < rel->size(); ++i) consume(rel->TupleAt(i));
      return out;
    }

    const std::vector<uint32_t>* rows = exec::MeteredIndexLookup(
        ctx_, atom.relation(), *rel, positions, key, op);
    if (!ctx_->ok()) return {};
    if (rows == nullptr) return out;
    if (enforce_bounds_ && rows->size() > opt.access->max_tuples) {
      ctx_->SetError(Status::ResourceExhausted(
          "σ on " + atom.relation() + " exceeds declared N of " +
          opt.access->ToString()));
      return {};
    }
    for (uint32_t r : *rows) consume(rel->TupleAt(r));
    return out;
  }

  BindingSet EvalAnd(const NodeAnalysis& node, const ControlOption& opt,
                     const Binding& env) {
    // Positive conjuncts in derivation order.
    std::vector<Binding> partials = {Binding{}};
    for (size_t step = 0; step < opt.conjunct_order.size(); ++step) {
      const NodeAnalysis& child = *node.subs[opt.conjunct_order[step]];
      const ControlOption& child_opt = *opt.child_options[step];
      std::vector<Binding> next;
      for (const Binding& partial : partials) {
        Binding combined = env;
        for (const auto& [v, val] : partial) combined.insert_or_assign(v, val);
        for (const Binding& ext : Eval(child, child_opt, combined)) {
          Binding merged = partial;
          for (const auto& [v, val] : ext) merged.insert_or_assign(v, val);
          next.push_back(std::move(merged));
        }
        if (!ctx_->ok()) return {};
      }
      partials = std::move(next);
    }
    // Safe negations filter the surviving partials.
    const size_t n_neg = node.subs.size() - node.n_positives;
    BindingSet out;
    for (const Binding& partial : partials) {
      Binding combined = env;
      for (const auto& [v, val] : partial) combined.insert_or_assign(v, val);
      bool keep = true;
      for (size_t ni = 0; ni < n_neg; ++ni) {
        const NodeAnalysis& neg = *node.subs[node.n_positives + ni];
        const ControlOption& neg_opt =
            *opt.child_options[opt.conjunct_order.size() + ni];
        if (!Eval(neg, neg_opt, combined).empty()) {
          keep = false;
          break;
        }
        if (!ctx_->ok()) return {};
      }
      if (keep) out.insert(partial);
    }
    return out;
  }

  BindingSet EvalOr(const NodeAnalysis& node, const ControlOption& opt,
                    const Binding& env) {
    BindingSet out;
    for (size_t i = 0; i < node.subs.size(); ++i) {
      BindingSet part = Eval(*node.subs[i], *opt.child_options[i], env);
      out.insert(part.begin(), part.end());
      if (!ctx_->ok()) return {};
    }
    return out;
  }

  BindingSet EvalExists(const NodeAnalysis& node, const ControlOption& opt,
                        const Binding& env) {
    BindingSet child = Eval(*node.subs[0], *opt.child_options[0], env);
    BindingSet out;
    for (const Binding& b : child) {
      Binding projected;
      for (const auto& [v, val] : b) {
        bool quantified = false;
        for (const Variable& q : node.formula.quantified()) {
          if (q == v) {
            quantified = true;
            break;
          }
        }
        if (!quantified) projected.emplace(v, val);
      }
      out.insert(std::move(projected));
    }
    return out;
  }

  BindingSet EvalForall(const NodeAnalysis& node, const ControlOption& opt,
                        const Binding& env) {
    BindingSet premise_results =
        Eval(*node.subs[0], *opt.child_options[0], env);
    if (!ctx_->ok()) return {};
    for (const Binding& r : premise_results) {
      Binding extended = env;
      for (const auto& [v, val] : r) extended.insert_or_assign(v, val);
      if (Eval(*node.subs[1], *opt.child_options[1], extended).empty()) {
        return {};
      }
      if (!ctx_->ok()) return {};
    }
    return BindingSet{Binding{}};
  }

  Database* db_;
  bool enforce_bounds_;
  exec::ExecContext* ctx_;
  std::unordered_map<const NodeAnalysis*, exec::OpCounters*> node_ops_;
};

}  // namespace

Result<AnswerSet> BoundedEvaluator::Evaluate(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const Binding& params, BoundedEvalStats* stats) const {
  SI_CHECK_MSG(analysis.root().formula.Equals(q.body),
               "analysis does not match the query body");
  VarSet param_vars;
  for (const auto& [v, val] : params) {
    (void)val;
    param_vars.insert(v);
  }
  const ControlOption* opt = analysis.BestOptionFor(param_vars);
  if (opt == nullptr) {
    return Status::FailedPrecondition(
        "query is not controlled by the given parameters " +
        VarSetToString(param_vars));
  }
  exec::ExecContext ctx(db_);
  ctx.set_limits(limits_);  // per-evaluation resource envelope
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate", "core");
  if (span.enabled() && par::CurrentLane() >= 0) {
    span.Arg("worker", static_cast<uint64_t>(par::CurrentLane()));
  }
  PlainExecutor exec(db_, enforce_bounds_, &ctx);
  if (collect_timing_ || (stats != nullptr && stats->capture_ops)) {
    exec.RegisterOps(analysis.root(), *opt, /*parent=*/-1);
  }
  BindingSet results = exec.Eval(analysis.root(), *opt, params);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("static_bound", opt->fetch_bound);
  }
  if (stats != nullptr) {
    stats->static_bound = opt->fetch_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    // One compact event for the whole evaluation: this is the µs-scale hot
    // path gated at 3% recorder-on overhead, so no start/finish pair and no
    // string-building arg path ("bounded.eval" stays in the SSO buffer).
    obs::RecordFlightNums(
        obs::EventKind::kQueryFinish, "bounded.eval",
        {{"fetched", static_cast<double>(ctx.base_tuples_fetched())},
         {"static_bound", opt->fetch_bound},
         {"tripped", ctx.trip().tripped() ? 1.0 : 0.0}});
  }
  SI_RETURN_IF_ERROR(ctx.status());

  std::vector<Variable> open;
  for (const Variable& v : q.head) {
    if (!params.count(v)) open.push_back(v);
  }
  AnswerSet answers;
  for (const Binding& b : results) {
    Tuple t;
    t.reserve(open.size());
    for (const Variable& v : open) {
      auto it = b.find(v);
      SI_CHECK_MSG(it != b.end(), "result missing a head variable");
      t.push_back(it->second);
    }
    // Distinct answers charge the output-row cap; the tripping answer is
    // withdrawn so exactly cap rows survive, deterministically (results
    // iterate in set order at any thread count).
    auto [pos, inserted] = answers.insert(std::move(t));
    if (inserted && !ctx.ChargeOutput(1, nullptr)) {
      answers.erase(pos);
      break;
    }
  }
  SI_RETURN_IF_ERROR(ctx.status());
  return answers;
}

std::vector<Result<AnswerSet>> BoundedEvaluator::EvaluateBatch(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const std::vector<Binding>& batch, BoundedEvalStats* stats) const {
  // Prebuild the indexes of every derivation the batch can take (bindings
  // over the same variables share one option; mixed batches prebuild each),
  // so worker lanes never race on Ensure*'s cache fill.
  std::set<VarSet> seen;
  for (const Binding& b : batch) {
    VarSet vars;
    for (const auto& [v, val] : b) {
      (void)val;
      vars.insert(v);
    }
    if (!seen.insert(vars).second) continue;
    const ControlOption* opt = analysis.BestOptionFor(vars);
    if (opt != nullptr) PrebuildPlainIndexes(*db_, analysis.root(), *opt);
  }

  // Result<T> has no default constructor, so slots are optional and filled
  // by index; every evaluation is independent (fresh context, same limits),
  // making each slot identical to a sequential Evaluate call.
  std::vector<std::optional<Result<AnswerSet>>> slots(batch.size());
  std::vector<BoundedEvalStats> worker_stats(batch.size());
  const bool capture_ops = stats != nullptr && stats->capture_ops;
  par::WorkerPool::Global().ParallelFor(batch.size(), [&](size_t i) {
    worker_stats[i].capture_ops = capture_ops;
    slots[i].emplace(Evaluate(q, analysis, batch[i], &worker_stats[i]));
  });

  std::vector<Result<AnswerSet>> out;
  out.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (stats != nullptr) stats->Merge(worker_stats[i]);
    out.push_back(std::move(*slots[i]));
  }
  return out;
}

std::vector<Result<AnswerSet>> BoundedEvaluator::EvaluateEmbeddedBatch(
    const EmbeddedCqAnalysis& analysis, const std::vector<Binding>& batch,
    BoundedEvalStats* stats) const {
  PrebuildEmbeddedIndexes(*db_, analysis);

  std::vector<std::optional<Result<AnswerSet>>> slots(batch.size());
  std::vector<BoundedEvalStats> worker_stats(batch.size());
  const bool capture_ops = stats != nullptr && stats->capture_ops;
  par::WorkerPool::Global().ParallelFor(batch.size(), [&](size_t i) {
    worker_stats[i].capture_ops = capture_ops;
    slots[i].emplace(EvaluateEmbedded(analysis, batch[i], &worker_stats[i]));
  });

  std::vector<Result<AnswerSet>> out;
  out.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (stats != nullptr) stats->Merge(worker_stats[i]);
    out.push_back(std::move(*slots[i]));
  }
  return out;
}

Result<AnswerSet> BoundedEvaluator::EvaluateEmbedded(
    const EmbeddedCqAnalysis& analysis, const Binding& params,
    BoundedEvalStats* stats) const {
  exec::ExecContext ctx(db_);
  ctx.set_limits(limits_);  // per-evaluation resource envelope
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate_embedded", "core");
  if (span.enabled() && par::CurrentLane() >= 0) {
    span.Arg("worker", static_cast<uint64_t>(par::CurrentLane()));
  }
  const bool capture_ops =
      collect_timing_ || (stats != nullptr && stats->capture_ops);
  Result<AnswerSet> result =
      EvaluateEmbeddedImpl(analysis, params, &ctx, capture_ops);
  if (span.enabled()) span.Arg("fetched", ctx.base_tuples_fetched());
  if (stats != nullptr) {
    if (analysis.IsScaleIndependent()) {
      stats->static_bound = analysis.plan().fetch_bound;
    }
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryFinish, "bounded.evaluate_embedded",
        {obs::EventArg("fetched", ctx.base_tuples_fetched()),
         obs::EventArg("ok", result.ok())});
  }
  return result;
}

Result<AnswerSet> BoundedEvaluator::EvaluateEmbeddedImpl(
    const EmbeddedCqAnalysis& analysis, const Binding& params,
    exec::ExecContext* ctx, bool capture_ops) const {
  if (!analysis.IsScaleIndependent()) {
    return Status::FailedPrecondition(
        "query has no embedded-controllability plan");
  }
  for (const Variable& v : analysis.params()) {
    if (!params.count(v)) {
      return Status::InvalidArgument("missing value for parameter '" +
                                     v.name() + "'");
    }
  }
  const Cq& q = analysis.query();
  const EmbeddedPlan& plan = analysis.plan();

  // Optional EXPLAIN ANALYZE forest: a root for the whole chase plus one
  // child per atom plan, each carrying its per-invocation static bound.
  exec::OpCounters* root_op = nullptr;
  std::vector<exec::OpCounters*> atom_ops;
  if (capture_ops) {
    root_op = ctx->NewOp("embedded-cq");
    root_op->static_bound = plan.fetch_bound;
    atom_ops.reserve(plan.atom_plans.size());
    for (const AtomPlan& ap : plan.atom_plans) {
      exec::OpCounters* op = ctx->NewOp(
          "chase(" + q.atoms()[ap.atom_index].relation + ")", root_op->id);
      op->static_bound = ap.fetch_bound;
      atom_ops.push_back(op);
    }
  }

  using Partial = std::vector<std::optional<Value>>;
  std::vector<Binding> assignments = {params};

  for (size_t ai = 0; ai < plan.atom_plans.size(); ++ai) {
    const AtomPlan& ap = plan.atom_plans[ai];
    exec::OpCounters* op = capture_ops ? atom_ops[ai] : nullptr;
#if SCALEIN_OBS_ENABLE_TIMING
    const bool timed = op != nullptr && ctx->timing_enabled();
    const uint64_t atom_start = timed ? obs::MonotonicNowNs() : 0;
#endif
    const CqAtom& atom = q.atoms()[ap.atom_index];
    // One chase step of the Proposition 4.5 plan: extend every frontier
    // assignment through this atom's access statements.
    if (Status s = SCALEIN_FAILPOINT("chase_step"); !s.ok()) return s;
    obs::ScopedSpan chase_span(ctx->tracer(), "bounded.chase_step", "core");
    if (chase_span.enabled()) {
      chase_span.Arg("relation", atom.relation);
      chase_span.Arg("step", static_cast<uint64_t>(ai));
      chase_span.Arg("frontier", static_cast<uint64_t>(assignments.size()));
    }
    if (obs::FlightRecorderEnabled()) {
      obs::RecordFlightEvent(
          obs::EventKind::kChaseStep, atom.relation,
          {obs::EventArg("step", static_cast<uint64_t>(ai)),
           obs::EventArg("frontier", static_cast<uint64_t>(assignments.size()))});
    }
    const Relation* rel = db_->FindRelation(atom.relation);
    // The canonical verification key layout, computed without forcing an
    // index build.
    const std::vector<size_t> verify_positions =
        ap.needs_verification
            ? Relation::CanonicalPositions(ap.verify_key_positions)
            : std::vector<size_t>{};

    // Extends one frontier assignment through this atom's chase.
    std::vector<Binding> next_assignments;
    auto chase_assignment = [&](const Binding& assignment) -> Status {
      // Seed partial tuple from constants and bound variables.
      Partial seed(atom.args.size());
      for (size_t p = 0; p < atom.args.size(); ++p) {
        const Term& t = atom.args[p];
        if (t.is_const()) {
          seed[p] = t.constant();
        } else {
          auto it = assignment.find(t.var());
          if (it != assignment.end()) seed[p] = it->second;
        }
      }
      std::vector<Partial> candidates = {seed};
      for (const AtomChaseStep& step : ap.steps) {
        const ProjectionIndex& index = rel->EnsureProjectionIndex(
            step.key_positions, step.value_positions);
        // The relation canonicalizes (sorts) positions; recover the layouts.
        std::vector<size_t> key_layout = index.key_positions();
        std::vector<size_t> value_layout = index.value_positions();
        std::vector<Partial> extended;
        for (const Partial& cand : candidates) {
          Tuple key;
          key.reserve(key_layout.size());
          for (size_t p : key_layout) {
            SI_CHECK(cand[p].has_value());
            key.push_back(*cand[p]);
          }
          std::vector<Tuple> projections = exec::MeteredProjectionLookup(
              ctx, atom.relation, *rel, step.key_positions,
              step.value_positions, key, op);
          SI_RETURN_IF_ERROR(ctx->status());
          if (enforce_bounds_ &&
              projections.size() > step.statement->max_tuples) {
            return Status::ResourceExhausted(
                "embedded access exceeds declared N of " +
                step.statement->ToString());
          }
          for (const Tuple& proj : projections) {
            Partial ext = cand;
            bool ok = true;
            for (size_t i = 0; i < value_layout.size() && ok; ++i) {
              size_t p = value_layout[i];
              if (ext[p].has_value()) {
                ok = *ext[p] == proj[i];
              } else {
                ext[p] = proj[i];
              }
            }
            if (ok) extended.push_back(std::move(ext));
          }
        }
        candidates = std::move(extended);
      }
      // All positions are now bound; verify if required, then unify.
      for (const Partial& cand : candidates) {
        Tuple row;
        row.reserve(cand.size());
        for (const auto& v : cand) {
          SI_CHECK(v.has_value());
          row.push_back(*v);
        }
        if (ap.needs_verification) {
          Tuple vkey = ProjectTuple(row, verify_positions);
          const std::vector<uint32_t>* rows = exec::MeteredIndexLookup(
              ctx, atom.relation, *rel, verify_positions, vkey, op);
          SI_RETURN_IF_ERROR(ctx->status());
          bool found = false;
          if (rows != nullptr) {
            if (enforce_bounds_ &&
                rows->size() > ap.verify_statement->max_tuples) {
              return Status::ResourceExhausted(
                  "verification access exceeds declared N of " +
                  ap.verify_statement->ToString());
            }
            for (uint32_t r : *rows) {
              if (TupleEquals(rel->TupleAt(r), row)) {
                found = true;
                break;
              }
            }
          }
          if (!found) continue;
        }
        // Extend the assignment with the atom's variables.
        Binding extended = assignment;
        bool ok = true;
        for (size_t p = 0; p < atom.args.size() && ok; ++p) {
          const Term& t = atom.args[p];
          if (t.is_const()) continue;
          auto it = extended.find(t.var());
          if (it != extended.end()) {
            ok = it->second == row[p];
          } else {
            extended.emplace(t.var(), row[p]);
          }
        }
        if (ok) next_assignments.push_back(std::move(extended));
      }
      return Status::OK();
    };
    // Unknown relation: the frontier dies here, matching a lookup miss.
    if (rel != nullptr) {
      for (const Binding& assignment : assignments) {
        SI_RETURN_IF_ERROR(chase_assignment(assignment));
      }
    }
    if (op != nullptr) {
      op->rows_out += next_assignments.size();
#if SCALEIN_OBS_ENABLE_TIMING
      if (timed) {
        op->next_ns += obs::MonotonicNowNs() - atom_start;
        ++op->next_calls;
      }
#endif
    }
    assignments = std::move(next_assignments);
  }

  // Project to the open head positions; distinct answers charge the
  // output-row cap.
  AnswerSet answers;
  for (const Binding& assignment : assignments) {
    Tuple t;
    for (const Term& h : q.head()) {
      if (h.is_const()) continue;
      if (analysis.params().count(h.var())) continue;
      t.push_back(assignment.at(h.var()));
    }
    auto [pos, inserted] = answers.insert(std::move(t));
    if (inserted && !ctx->ChargeOutput(1, root_op)) {
      answers.erase(pos);
      break;
    }
  }
  SI_RETURN_IF_ERROR(ctx->status());
  if (root_op != nullptr) root_op->rows_out += answers.size();
  return answers;
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateDegraded(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const Binding& params, BoundedEvalStats* stats) const {
  SI_CHECK_MSG(analysis.root().formula.Equals(q.body),
               "analysis does not match the query body");
  VarSet param_vars;
  for (const auto& [v, val] : params) {
    (void)val;
    param_vars.insert(v);
  }
  const ControlOption* opt = analysis.BestOptionFor(param_vars);
  if (opt == nullptr) {
    return Status::FailedPrecondition(
        "query is not controlled by the given parameters " +
        VarSetToString(param_vars));
  }
  exec::ExecContext ctx(db_);
  ctx.set_limits(limits_);
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate_degraded", "core");
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(obs::EventKind::kQueryStart,
                           "bounded.evaluate_degraded",
                           {obs::EventArg("static_bound", opt->fetch_bound)});
  }
  PlainExecutor executor(db_, enforce_bounds_, &ctx);
  // Ops are always registered here so that a trip's snapshot can name the
  // derivation node that was executing when the limit fired.
  executor.RegisterOps(analysis.root(), *opt, /*parent=*/-1);
  BindingSet results = executor.Eval(analysis.root(), *opt, params);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("static_bound", opt->fetch_bound);
    span.Arg("tripped", ctx.trip().tripped());
  }
  if (stats != nullptr) {
    stats->static_bound = opt->fetch_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryFinish, "bounded.evaluate_degraded",
        {obs::EventArg("fetched", ctx.base_tuples_fetched()),
         obs::EventArg("static_bound", opt->fetch_bound),
         obs::EventArg("tripped", ctx.trip().tripped())});
  }

  exec::Degraded<AnswerSet> out;
  // Bindings that survived the full derivation are sound answers even when
  // the walk was cut short (subtrees abandoned mid-derivation return no
  // bindings rather than unchecked ones). Projection runs before the trip
  // check because the output-row cap trips *here*: the first cap distinct
  // answers are kept and the tripping answer is withdrawn, so a row-capped
  // degraded result is identical at any thread count.
  std::vector<Variable> open;
  for (const Variable& v : q.head) {
    if (!params.count(v)) open.push_back(v);
  }
  for (const Binding& b : results) {
    Tuple t;
    t.reserve(open.size());
    for (const Variable& v : open) {
      auto it = b.find(v);
      SI_CHECK_MSG(it != b.end(), "result missing a head variable");
      t.push_back(it->second);
    }
    auto [pos, inserted] = out.value.insert(std::move(t));
    if (inserted && !ctx.ChargeOutput(1, nullptr)) {
      out.value.erase(pos);
      break;
    }
  }
  out.base_tuples_fetched = ctx.base_tuples_fetched();
  out.index_lookups = ctx.index_lookups();
  if (!ctx.ok()) {
    // Only governor trips degrade; other failures stay errors.
    if (!ctx.trip().tripped()) return ctx.status();
    out.complete = false;
    out.trip = ctx.trip();
    out.ops = ctx.SnapshotOps();
  }
  return out;
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateEmbeddedDegraded(
    const EmbeddedCqAnalysis& analysis, const Binding& params,
    BoundedEvalStats* stats, bool fallback_to_approx) const {
  exec::ExecContext ctx(db_);
  ctx.set_limits(limits_);
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate_embedded_degraded",
                       "core");
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(obs::EventKind::kQueryStart,
                           "bounded.evaluate_embedded_degraded");
  }
  // Capture ops unconditionally so a trip names the chase step it hit.
  Result<AnswerSet> result =
      EvaluateEmbeddedImpl(analysis, params, &ctx, /*capture_ops=*/true);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("tripped", ctx.trip().tripped());
  }
  if (stats != nullptr) {
    if (analysis.IsScaleIndependent()) {
      stats->static_bound = analysis.plan().fetch_bound;
    }
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryFinish, "bounded.evaluate_embedded_degraded",
        {obs::EventArg("fetched", ctx.base_tuples_fetched()),
         obs::EventArg("tripped", ctx.trip().tripped())});
  }

  exec::Degraded<AnswerSet> out;
  out.base_tuples_fetched = ctx.base_tuples_fetched();
  out.index_lookups = ctx.index_lookups();
  if (result.ok() && ctx.ok()) {
    out.value = std::move(result).ValueOrDie();
    return out;
  }
  if (!ctx.trip().tripped()) {
    // Genuine failure (failpoint, bound violation, bad arguments).
    return result.ok() ? ctx.status() : result.status();
  }
  out.complete = false;
  out.trip = ctx.trip();
  out.ops = ctx.SnapshotOps();
  if (fallback_to_approx && limits_.fetch_budget > 0 &&
      analysis.IsScaleIndependent()) {
    // PIQL-style success tolerance: re-answer the (parameter-substituted)
    // CQ with the greedy budgeted engine under the same budget M. Every
    // answer it reports is a genuine answer of Q(D); project its full-head
    // tuples onto the embedded answer shape (open head variables only).
    const Cq& q = analysis.query();
    std::map<Variable, Term> subst;
    for (const auto& [v, val] : params) subst.emplace(v, Term::Const(val));
    ApproxResult approx =
        ApproximateCqAnswers(q.Substitute(subst), *db_, limits_.fetch_budget);
    std::vector<size_t> keep;
    for (size_t i = 0; i < q.head().size(); ++i) {
      const Term& h = q.head()[i];
      if (h.is_const() || analysis.params().count(h.var())) continue;
      keep.push_back(i);
    }
    for (const Tuple& full : approx.answers) {
      Tuple t;
      t.reserve(keep.size());
      for (size_t i : keep) t.push_back(full[i]);
      out.value.insert(std::move(t));
    }
    out.fallback = "approx";
  }
  return out;
}

}  // namespace scalein
