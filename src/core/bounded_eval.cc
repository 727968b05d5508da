#include "core/bounded_eval.h"

#include <map>

#include "core/approx.h"
#include "exec/compiler.h"
#include "exec/vm.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace scalein {
namespace {

/// A non-owning handle on an analysis the caller keeps alive: programs
/// compiled from it here live only for the call.
template <typename T>
std::shared_ptr<const T> Borrow(const T& analysis) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), &analysis);
}

Result<std::shared_ptr<const exec::CompiledProgram>> CompileFor(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const Binding& params) {
  SI_CHECK_MSG(analysis.root().formula.Equals(q.body),
               "analysis does not match the query body");
  return exec::CompilePlain(q, Borrow(analysis), BoundVariables(params));
}

/// A non-degraded entry's result: the answers, or the failure (a governor
/// trip included) as its status.
Result<AnswerSet> Answers(Result<exec::Degraded<AnswerSet>> run) {
  if (!run.ok()) return run.status();
  return std::move(run->value);
}

}  // namespace

/// What tells the entry points apart; everything else is one body.
struct EvalEntry {
  const char* span;   ///< span name (wirebench times the degraded one)
  const char* event;  ///< flight-event label
  /// A degraded entry always registers ops, so that a trip's snapshot names
  /// the node or chase step that was executing; it records a query-start
  /// event as well as the finish, and returns a trip as a partial result.
  bool degraded;
};

namespace {

constexpr EvalEntry kEvaluate{"bounded.evaluate", "bounded.eval", false};
constexpr EvalEntry kEvaluateDegraded{"bounded.evaluate_degraded",
                                      "bounded.evaluate_degraded", true};
constexpr EvalEntry kEvaluateEmbedded{"bounded.evaluate_embedded",
                                      "bounded.evaluate_embedded", false};
constexpr EvalEntry kEvaluateEmbeddedDegraded{
    "bounded.evaluate_embedded_degraded", "bounded.evaluate_embedded_degraded",
    true};

}  // namespace

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::Run(
    const ProgramOrError& program, const Binding& params,
    const EvalEntry& entry, BoundedEvalStats* stats) const {
  // The span covers the whole run: the parameter check, and the context
  // built before the walk and torn down after it.
  obs::ScopedSpan span(obs::Tracer::Global(), entry.span, "core");
  const double bound = program.ok() ? (*program)->static_bound : -1.0;
  // Flight events take the compact append path: a plain Evaluate is the
  // µs-scale hot path the 3% governor gate times, so it records one event
  // and builds no strings.
  if (entry.degraded && obs::FlightRecorderEnabled()) {
    obs::RecordFlightNums(obs::EventKind::kQueryStart, entry.event,
                          {{"static_bound", bound}});
  }
  exec::ExecContext ctx(db_);
  ctx.set_limits(limits_);  // per-evaluation resource envelope
  ctx.set_timing_enabled(collect_timing_);
  exec::Degraded<AnswerSet> out;
  if (Status st = program.ok() ? exec::CheckProgramParams(**program, params)
                               : program.status();
      !st.ok()) {
    ctx.SetError(std::move(st));
  } else {
    exec::Run(**program, *db_, enforce_bounds_, params,
              entry.degraded || collect_timing_ ||
                  (stats != nullptr && stats->capture_ops),
              &ctx, &out.value);
  }
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("static_bound", bound);
    span.Arg("tripped", ctx.trip().tripped());
  }
  if (stats != nullptr) {
    if (program.ok()) stats->static_bound = bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightNums(
        obs::EventKind::kQueryFinish, entry.event,
        {{"fetched", static_cast<double>(ctx.base_tuples_fetched())},
         {"static_bound", bound},
         {"tripped", ctx.trip().tripped() ? 1.0 : 0.0}});
  }
  out.base_tuples_fetched = ctx.base_tuples_fetched();
  out.index_lookups = ctx.index_lookups();
  if (ctx.ok()) return out;
  // Only governor trips degrade; other failures stay errors.
  if (!entry.degraded || !ctx.trip().tripped()) return ctx.status();
  out.complete = false;
  out.trip = ctx.trip();
  out.ops = ctx.SnapshotOps();
  return out;
}

Result<AnswerSet> BoundedEvaluator::Evaluate(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const Binding& params, BoundedEvalStats* stats) const {
  return Answers(Run(CompileFor(q, analysis, params), params, kEvaluate, stats));
}

Result<AnswerSet> BoundedEvaluator::Evaluate(
    const exec::CompiledProgram& program, const Binding& params,
    BoundedEvalStats* stats) const {
  return Answers(Run(Borrow(program), params, kEvaluate, stats));
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateDegraded(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const Binding& params, BoundedEvalStats* stats) const {
  return Run(CompileFor(q, analysis, params), params, kEvaluateDegraded, stats);
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateDegraded(
    const exec::CompiledProgram& program, const Binding& params,
    BoundedEvalStats* stats) const {
  return Run(Borrow(program), params, kEvaluateDegraded, stats);
}

Result<AnswerSet> BoundedEvaluator::EvaluateEmbedded(
    const EmbeddedCqAnalysis& analysis, const Binding& params,
    BoundedEvalStats* stats) const {
  return Answers(Run(exec::CompileEmbedded(Borrow(analysis)), params,
                     kEvaluateEmbedded, stats));
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateEmbeddedDegraded(
    const EmbeddedCqAnalysis& analysis, const Binding& params,
    BoundedEvalStats* stats, bool fallback_to_approx) const {
  SI_ASSIGN_OR_RETURN(exec::Degraded<AnswerSet> out,
                      Run(exec::CompileEmbedded(Borrow(analysis)), params,
                          kEvaluateEmbeddedDegraded, stats));
  if (!out.complete && fallback_to_approx && limits_.fetch_budget > 0 &&
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
