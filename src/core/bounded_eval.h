#ifndef SCALEIN_CORE_BOUNDED_EVAL_H_
#define SCALEIN_CORE_BOUNDED_EVAL_H_

#include <memory>

#include "core/controllability.h"
#include "core/embedded_controllability.h"
#include "eval/answer_set.h"
#include "exec/exec_context.h"
#include "relational/database.h"

namespace scalein {

/// Data-access accounting for a bounded evaluation: the |D_Q| ≤ M side of
/// scale independence, measured rather than assumed. `base_tuples_fetched`
/// counts every tuple (or projection row, for embedded statements) retrieved
/// from base relations through access-schema indexes; the library's property
/// tests assert it never exceeds the analysis' static bound on conforming
/// databases.
///
/// Since the unified engine landed, this is a *view* over
/// `exec::ExecContext` counters: each BoundedEvaluator call runs with a
/// fresh context (so the fetch budget is per-evaluation) and folds the
/// context's totals in here via `Accumulate`, letting one stats object
/// aggregate across many evaluations (as the incremental maintainer does).
struct BoundedEvalStats {
  uint64_t base_tuples_fetched = 0;
  uint64_t index_lookups = 0;
  /// Fetch counts keyed by relation name (lets §6's view executor separate
  /// bounded base access from free materialized-view access).
  std::map<std::string, uint64_t> fetched_by_relation;

  /// When true, Accumulate also appends the evaluation's per-node counter
  /// forest into `ops` — the input of obs' EXPLAIN ANALYZE renderer, with
  /// each derivation node's static Theorem 4.2 bound in
  /// OpCounters::static_bound. Off by default: aggregators that fold
  /// thousands of evaluations (the incremental maintainer) would otherwise
  /// accumulate unbounded op snapshots.
  bool capture_ops = false;
  std::vector<exec::OpCounters> ops;
  /// Static fetch bound of the most recent evaluation's derivation (the
  /// Theorem 4.2 / Proposition 4.5 M); negative until an evaluation ran.
  double static_bound = -1.0;

  /// Folds one finished evaluation's context counters into this object.
  void Accumulate(const exec::ExecContext& ctx) {
    base_tuples_fetched += ctx.base_tuples_fetched();
    index_lookups += ctx.index_lookups();
    for (const auto& [name, n] : ctx.fetched_by_relation()) {
      fetched_by_relation[name] += n;
    }
    if (capture_ops) {
      std::vector<exec::OpCounters> snapshot = ctx.SnapshotOps();
      ops.insert(ops.end(), snapshot.begin(), snapshot.end());
    }
  }
};

namespace exec {
struct CompiledProgram;
}  // namespace exec

struct EvalEntry;

/// The constructive content of Theorem 4.2: executes a controllability
/// derivation, fetching data only through the access paths the derivation's
/// atom/chase steps name. On a database conforming to the access schema,
/// answers equal the reference semantics and the fetch count is bounded by
/// the derivation's static bound — independent of |D|.
///
/// There is one executor: every entry point runs register bytecode on the VM
/// (exec/vm.h). The analysis-taking entry points lower the derivation with
/// exec/compiler.h first (a few µs); callers that cache programs (the shell
/// and server, through the analysis cache's CompiledPlanSet) pass the
/// program instead. Each evaluation is one sequential walk on the calling
/// thread; concurrency comes only from separate callers (the server's run
/// slots), never from inside one evaluation.
class BoundedEvaluator {
 public:
  /// `db` is mutable only because indexes build on demand; content is never
  /// modified. Call AccessSchema::BuildIndexes first to pay index
  /// construction outside the measured path.
  explicit BoundedEvaluator(Database* db) : db_(db) {}

  /// If true, any index lookup returning more rows than the statement's N
  /// fails with ResourceExhausted (the database does not conform to A).
  void set_enforce_bounds(bool enforce) { enforce_bounds_ = enforce; }

  /// Per-evaluation resource envelope, armed on each evaluation's fresh
  /// ExecContext: the fetch budget (the paper's M as "the capacity of our
  /// available resources"; past it evaluation stops with ResourceExhausted
  /// instead of touching more data), deadline, output cap, cancellation.
  void set_limits(const exec::GovernorLimits& limits) { limits_ = limits; }
  const exec::GovernorLimits& limits() const { return limits_; }

  /// If true, the evaluator records per-derivation-node wall time into the
  /// captured op counters (EXPLAIN ANALYZE's time column). Off by default —
  /// the measured fetch counts never depend on it.
  void set_collect_timing(bool collect) { collect_timing_ = collect; }

  /// Evaluates Q(ā, ·) via a plain-controllability derivation: `params`
  /// must cover some derived controlling set (FailedPrecondition "query is
  /// not controlled by the given parameters …" otherwise). Answers range
  /// over the head variables not bound by `params`, in head order.
  Result<AnswerSet> Evaluate(const FoQuery& q,
                             const ControllabilityAnalysis& analysis,
                             const Binding& params,
                             BoundedEvalStats* stats = nullptr) const;

  /// Evaluates a compiled program (plain, or an embedded chase plan);
  /// `params` must bind exactly the parameter set it was compiled for.
  Result<AnswerSet> Evaluate(const exec::CompiledProgram& program,
                             const Binding& params,
                             BoundedEvalStats* stats = nullptr) const;

  /// Degradation-aware variant (PIQL-style success tolerance): a governor
  /// trip (budget/deadline/cap/cancel) returns the *partial* answer set
  /// produced so far — a genuine subset of Q(D) for monotone derivations —
  /// together with the trip record and the per-node counter snapshot,
  /// instead of a bare error. Non-governor failures stay errors.
  Result<exec::Degraded<AnswerSet>> EvaluateDegraded(
      const FoQuery& q, const ControllabilityAnalysis& analysis,
      const Binding& params, BoundedEvalStats* stats = nullptr) const;

  /// Degradation-aware evaluation of a compiled program.
  Result<exec::Degraded<AnswerSet>> EvaluateDegraded(
      const exec::CompiledProgram& program, const Binding& params,
      BoundedEvalStats* stats = nullptr) const;

  /// Evaluates an embedded-controllability plan (Proposition 4.5) for a CQ.
  /// `params` must bind exactly the variables the analysis was built with.
  /// Answers range over head positions whose term is an unbound variable.
  Result<AnswerSet> EvaluateEmbedded(const EmbeddedCqAnalysis& analysis,
                                     const Binding& params,
                                     BoundedEvalStats* stats = nullptr) const;

  /// Degradation-aware embedded evaluation. On a governor trip, when
  /// `fallback_to_approx` is set and a fetch budget is armed, the greedy
  /// budgeted engine (core/approx.h) re-answers the underlying CQ within the
  /// same budget M and the result is marked `fallback = "approx"` — every
  /// reported answer is still a genuine answer of Q(D).
  Result<exec::Degraded<AnswerSet>> EvaluateEmbeddedDegraded(
      const EmbeddedCqAnalysis& analysis, const Binding& params,
      BoundedEvalStats* stats = nullptr, bool fallback_to_approx = false) const;

 private:
  using ProgramOrError = Result<std::shared_ptr<const exec::CompiledProgram>>;

  /// The one evaluation body behind every entry point: checks `params`
  /// against the program, runs it with exec::Run on a fresh context, folds
  /// the context into `stats`, and records the entry's span and flight
  /// events. A governor trip degrades (complete = false) only for a
  /// degraded entry; every other failure, and any trip of a non-degraded
  /// entry, is the returned status.
  Result<exec::Degraded<AnswerSet>> Run(const ProgramOrError& program,
                                        const Binding& params,
                                        const EvalEntry& entry,
                                        BoundedEvalStats* stats) const;

  Database* db_;
  bool enforce_bounds_ = false;
  exec::GovernorLimits limits_;
  bool collect_timing_ = false;
};

}  // namespace scalein

#endif  // SCALEIN_CORE_BOUNDED_EVAL_H_
