#include "core/bounded_eval.h"

#include <map>
#include <optional>

#include "core/approx.h"
#include "exec/compiler.h"
#include "exec/vm.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "par/worker_pool.h"

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

Status CheckPlain(const exec::CompiledProgram& program, const Binding& params) {
  if (program.kind != exec::CompiledProgram::Kind::kPlain) {
    return Status::InvalidArgument("expected a plain compiled program");
  }
  return exec::CheckProgramParams(program, params);
}

/// Runs `fn(i, &stats_i)` for every slot on the global worker pool and
/// merges the per-slot stats in input order, so results and totals are
/// identical at any thread count.
template <typename Fn>
std::vector<Result<AnswerSet>> RunBatch(size_t n, BoundedEvalStats* stats,
                                        const Fn& fn) {
  // Result<T> has no default constructor, so slots are optional and filled
  // by index.
  std::vector<std::optional<Result<AnswerSet>>> slots(n);
  std::vector<BoundedEvalStats> worker_stats(n);
  const bool capture_ops = stats != nullptr && stats->capture_ops;
  par::WorkerPool::Global().ParallelFor(n, [&](size_t i) {
    worker_stats[i].capture_ops = capture_ops;
    slots[i].emplace(fn(i, &worker_stats[i]));
  });
  std::vector<Result<AnswerSet>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (stats != nullptr) stats->Merge(worker_stats[i]);
    out.push_back(std::move(*slots[i]));
  }
  return out;
}

}  // namespace

Result<AnswerSet> BoundedEvaluator::Evaluate(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const Binding& params, BoundedEvalStats* stats) const {
  SI_ASSIGN_OR_RETURN(std::shared_ptr<const exec::CompiledProgram> program,
                      CompileFor(q, analysis, params));
  return Evaluate(*program, params, stats);
}

Result<AnswerSet> BoundedEvaluator::Evaluate(
    const exec::CompiledProgram& program, const Binding& params,
    BoundedEvalStats* stats) const {
  SI_RETURN_IF_ERROR(CheckPlain(program, params));
  exec::ExecContext ctx(db_);
  ctx.set_limits(limits_);  // per-evaluation resource envelope
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate", "core");
  if (span.enabled() && par::CurrentLane() >= 0) {
    span.Arg("worker", static_cast<uint64_t>(par::CurrentLane()));
  }
  exec::PlainRows rows;
  exec::RunPlain(program, *db_, enforce_bounds_, params,
                 collect_timing_ || (stats != nullptr && stats->capture_ops),
                 &ctx, &rows);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("static_bound", program.static_bound);
  }
  if (stats != nullptr) {
    stats->static_bound = program.static_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    // One compact event for the whole evaluation: this is the µs-scale hot
    // path gated at 3% recorder-on overhead, so no start/finish pair and no
    // string-building arg path ("bounded.eval" stays in the SSO buffer).
    obs::RecordFlightNums(
        obs::EventKind::kQueryFinish, "bounded.eval",
        {{"fetched", static_cast<double>(ctx.base_tuples_fetched())},
         {"static_bound", program.static_bound},
         {"tripped", ctx.trip().tripped() ? 1.0 : 0.0}});
  }
  SI_RETURN_IF_ERROR(ctx.status());
  AnswerSet answers;
  exec::EmitPlainAnswers(program, rows, &ctx, &answers);
  SI_RETURN_IF_ERROR(ctx.status());
  return answers;
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateDegraded(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const Binding& params, BoundedEvalStats* stats) const {
  SI_ASSIGN_OR_RETURN(std::shared_ptr<const exec::CompiledProgram> program,
                      CompileFor(q, analysis, params));
  return EvaluateDegraded(*program, params, stats);
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateDegraded(
    const exec::CompiledProgram& program, const Binding& params,
    BoundedEvalStats* stats) const {
  SI_RETURN_IF_ERROR(CheckPlain(program, params));
  exec::ExecContext ctx(db_);
  ctx.set_limits(limits_);
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate_degraded", "core");
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryStart, "bounded.evaluate_degraded",
        {obs::EventArg("static_bound", program.static_bound)});
  }
  // Ops are always registered here so that a trip's snapshot can name the
  // derivation node that was executing when the limit fired.
  exec::PlainRows rows;
  exec::RunPlain(program, *db_, enforce_bounds_, params, /*register_ops=*/true,
                 &ctx, &rows);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("static_bound", program.static_bound);
    span.Arg("tripped", ctx.trip().tripped());
  }
  if (stats != nullptr) {
    stats->static_bound = program.static_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryFinish, "bounded.evaluate_degraded",
        {obs::EventArg("fetched", ctx.base_tuples_fetched()),
         obs::EventArg("static_bound", program.static_bound),
         obs::EventArg("tripped", ctx.trip().tripped())});
  }

  exec::Degraded<AnswerSet> out;
  // Rows that survived the full derivation are sound answers even when the
  // walk was cut short (subtrees abandoned mid-derivation return no rows
  // rather than unchecked ones). Projection runs before the trip check
  // because the output-row cap trips *here*: the first cap distinct answers
  // are kept and the tripping answer is withdrawn, so a row-capped degraded
  // result is identical at any thread count.
  exec::EmitPlainAnswers(program, rows, &ctx, &out.value);
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

std::vector<Result<AnswerSet>> BoundedEvaluator::EvaluateBatch(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const std::vector<Binding>& batch, BoundedEvalStats* stats) const {
  // One program per distinct parameter set (mixed batches compile each),
  // compiled and index-prebuilt up front so worker lanes never race on
  // Ensure*'s cache fill.
  std::map<VarSet, ProgramOrError> programs;
  std::vector<const ProgramOrError*> slot_program;
  slot_program.reserve(batch.size());
  for (const Binding& b : batch) {
    const VarSet vars = BoundVariables(b);
    auto it = programs.find(vars);
    if (it == programs.end()) {
      it = programs.emplace(vars, CompileFor(q, analysis, b)).first;
      if (it->second.ok()) exec::PrebuildCompiledIndexes(*db_, **it->second);
    }
    slot_program.push_back(&it->second);
  }
  return RunBatch(batch.size(), stats,
                  [&](size_t i, BoundedEvalStats* slot_stats) {
                    const ProgramOrError& program = *slot_program[i];
                    if (!program.ok()) {
                      return Result<AnswerSet>(program.status());
                    }
                    return Evaluate(**program, batch[i], slot_stats);
                  });
}

Result<AnswerSet> BoundedEvaluator::EvaluateEmbedded(
    const EmbeddedCqAnalysis& analysis, const Binding& params,
    BoundedEvalStats* stats) const {
  return EvaluateEmbedded(exec::CompileEmbedded(Borrow(analysis)), params,
                          stats);
}

std::vector<Result<AnswerSet>> BoundedEvaluator::EvaluateEmbeddedBatch(
    const EmbeddedCqAnalysis& analysis, const std::vector<Binding>& batch,
    BoundedEvalStats* stats) const {
  const ProgramOrError program = exec::CompileEmbedded(Borrow(analysis));
  if (program.ok()) exec::PrebuildCompiledIndexes(*db_, **program);
  return RunBatch(batch.size(), stats,
                  [&](size_t i, BoundedEvalStats* slot_stats) {
                    return EvaluateEmbedded(program, batch[i], slot_stats);
                  });
}

Result<AnswerSet> BoundedEvaluator::EvaluateEmbedded(
    const ProgramOrError& program, const Binding& params,
    BoundedEvalStats* stats) const {
  exec::ExecContext ctx(db_);
  ctx.set_limits(limits_);  // per-evaluation resource envelope
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate_embedded", "core");
  if (span.enabled() && par::CurrentLane() >= 0) {
    span.Arg("worker", static_cast<uint64_t>(par::CurrentLane()));
  }
  Result<AnswerSet> result =
      RunEmbedded(program, params,
                  collect_timing_ || (stats != nullptr && stats->capture_ops),
                  &ctx);
  if (span.enabled()) span.Arg("fetched", ctx.base_tuples_fetched());
  if (stats != nullptr) {
    if (program.ok()) stats->static_bound = (*program)->static_bound;
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

Result<AnswerSet> BoundedEvaluator::RunEmbedded(const ProgramOrError& program,
                                                const Binding& params,
                                                bool register_ops,
                                                exec::ExecContext* ctx) const {
  SI_RETURN_IF_ERROR(program.status());
  SI_RETURN_IF_ERROR(exec::CheckProgramParams(**program, params));
  return exec::RunEmbedded(**program, *db_, enforce_bounds_, params,
                           register_ops, ctx);
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateEmbeddedDegraded(
    const EmbeddedCqAnalysis& analysis, const Binding& params,
    BoundedEvalStats* stats, bool fallback_to_approx) const {
  const ProgramOrError program = exec::CompileEmbedded(Borrow(analysis));
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
      RunEmbedded(program, params, /*register_ops=*/true, &ctx);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("tripped", ctx.trip().tripped());
  }
  if (stats != nullptr) {
    if (program.ok()) stats->static_bound = (*program)->static_bound;
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
