#ifndef SCALEIN_EXEC_VM_H_
#define SCALEIN_EXEC_VM_H_

#include <vector>

#include "core/bounded_eval.h"
#include "eval/answer_set.h"
#include "exec/bytecode.h"
#include "exec/exec_context.h"
#include "exec/governor.h"
#include "relational/database.h"
#include "util/status.h"

namespace scalein::exec {

/// Register-bytecode executor for compiled bounded plans (exec/compiler.h).
///
/// Drop-in twin of core's BoundedEvaluator for programs the compiler
/// accepted: same entry points, same limits/enforcement/timing knobs, and —
/// the contract everything else hangs off — the *identical* sequence of
/// metered charges against an identically-registered op table. Answers,
/// fetch totals, per-relation/per-op accounting, TripInfo, and sealed access
/// certificates are byte-equal to the interpreter at any thread count. Like
/// the interpreter, each evaluation is one sequential walk; only the batch
/// entry points spread whole evaluations over the worker pool.
///
/// What the compiled path removes is the interpreter's per-tuple data
/// structures: frontiers are flat register rows instead of
/// std::map<Variable, Value> bindings, unification is a fused step loop
/// (computed-goto dispatch where the compiler supports it) instead of map
/// probes, and set semantics are recovered by sort+unique over fixed-width
/// rows. Timing capture (`set_collect_timing`) remains supported but
/// per-node wall times are *approximate* on the compiled path (wrapper ops
/// share one start clock); timing never feeds certificates or accounting.
class CompiledEvaluator {
 public:
  explicit CompiledEvaluator(Database* db) : db_(db) {}

  /// Mirrors BoundedEvaluator::set_enforce_bounds: any access returning more
  /// rows than its statement's N fails with ResourceExhausted.
  void set_enforce_bounds(bool enforce) { enforce_bounds_ = enforce; }

  void set_fetch_budget(uint64_t budget) { limits_.fetch_budget = budget; }

  /// Per-evaluation resource envelope, armed on each evaluation's fresh
  /// ExecContext — exactly like the interpreter.
  void set_limits(const GovernorLimits& limits) { limits_ = limits; }
  const GovernorLimits& limits() const { return limits_; }

  void set_collect_timing(bool collect) { collect_timing_ = collect; }

  /// Executes a kPlain program. `params` must bind exactly the parameter
  /// set the program was compiled for.
  Result<AnswerSet> Evaluate(const CompiledProgram& program,
                             const Binding& params,
                             BoundedEvalStats* stats = nullptr) const;

  /// Degradation-aware kPlain execution: a governor trip returns the partial
  /// answer set with the trip record and op snapshot, like
  /// BoundedEvaluator::EvaluateDegraded.
  Result<Degraded<AnswerSet>> EvaluateDegraded(
      const CompiledProgram& program, const Binding& params,
      BoundedEvalStats* stats = nullptr) const;

  /// Batch kPlain execution on the global worker pool; results in input
  /// order, stats merged in input order.
  std::vector<Result<AnswerSet>> EvaluateBatch(
      const CompiledProgram& program, const std::vector<Binding>& batch,
      BoundedEvalStats* stats = nullptr) const;

  /// Executes a kEmbedded program (Proposition 4.5 chase).
  Result<AnswerSet> EvaluateEmbedded(const CompiledProgram& program,
                                     const Binding& params,
                                     BoundedEvalStats* stats = nullptr) const;

  std::vector<Result<AnswerSet>> EvaluateEmbeddedBatch(
      const CompiledProgram& program, const std::vector<Binding>& batch,
      BoundedEvalStats* stats = nullptr) const;

  /// Degradation-aware kEmbedded execution, with the same optional
  /// approx-engine fallback as the interpreter.
  Result<Degraded<AnswerSet>> EvaluateEmbeddedDegraded(
      const CompiledProgram& program, const Binding& params,
      BoundedEvalStats* stats = nullptr, bool fallback_to_approx = false) const;

 private:
  Result<AnswerSet> EvaluateEmbeddedImpl(const CompiledProgram& program,
                                         const Binding& params,
                                         ExecContext* ctx,
                                         bool capture_ops) const;

  Database* db_;
  bool enforce_bounds_ = false;
  GovernorLimits limits_;
  bool collect_timing_ = false;
};

/// Builds every index `program` can probe (plain leaves or embedded chase
/// steps + verification), so the lanes of a batch only ever find them —
/// the compiled counterpart of the interpreter's Prebuild* helpers.
void PrebuildCompiledIndexes(const Database& db, const CompiledProgram& program);

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_VM_H_
