#ifndef SCALEIN_EXEC_VM_H_
#define SCALEIN_EXEC_VM_H_

#include <vector>

#include "core/bounded_eval.h"
#include "eval/answer_set.h"
#include "exec/bytecode.h"
#include "exec/exec_context.h"
#include "relational/database.h"
#include "util/status.h"

namespace scalein::exec {

/// Register-bytecode executor for compiled bounded plans (exec/compiler.h),
/// the engine behind every BoundedEvaluator entry point.
///
/// A plain program is a tree of PlainNodes. The VM visits a node once per
/// register row: the frontier is a flat array of fixed-width rows, leaves
/// unify fetched tuples through fused step loops, and a node's result set
/// is recovered by sort+unique over its layout registers, which are ordered
/// by variable id exactly like the derivation's binding sets. Visits happen
/// in derivation order and every fetch is metered through ExecContext, so
/// the sequence of charges — and with it answers, TripInfo, per-op and
/// per-relation accounting and sealed certificates — is a function of the
/// derivation alone. Each evaluation is one sequential walk.

/// The distinct result rows of one plain run, `width` registers each.
struct PlainRows {
  std::vector<Value> buf;
  size_t width = 0;
  size_t size() const { return width == 0 ? 0 : buf.size() / width; }
  const Value* row(size_t i) const { return buf.data() + i * width; }
};

/// Rejects a binding that does not bind exactly the program's parameters
/// (plain) or misses / adds to them (embedded), with InvalidArgument.
Status CheckProgramParams(const CompiledProgram& program,
                          const Binding& params);

/// Runs a kPlain program for `params` (already checked) in `ctx`, leaving
/// the root's rows in `rows`. With `register_ops` the program's op table is
/// registered into `ctx` first and every visit charges its op; a failed
/// context leaves no rows.
void RunPlain(const CompiledProgram& program, const Database& db,
              bool enforce_bounds, const Binding& params, bool register_ops,
              ExecContext* ctx, PlainRows* rows);

/// Projects `rows` onto the program's open head registers. Each distinct
/// answer charges the output-row cap; the tripping answer is withdrawn, so
/// exactly `cap` answers survive.
void EmitPlainAnswers(const CompiledProgram& program, const PlainRows& rows,
                      ExecContext* ctx, AnswerSet* answers);

/// Runs a kEmbedded program (the Proposition 4.5 chase) for `params`
/// (already checked) in `ctx`. With `register_ops` the "embedded-cq" root
/// and one "chase(R)" op per atom are registered and charged.
Result<AnswerSet> RunEmbedded(const CompiledProgram& program,
                              const Database& db, bool enforce_bounds,
                              const Binding& params, bool register_ops,
                              ExecContext* ctx);

/// Builds every index `program` can probe (plain leaves or embedded chase
/// steps + verification), so the lanes of a batch only ever find them.
void PrebuildCompiledIndexes(const Database& db,
                             const CompiledProgram& program);

/// There is one bounded evaluator; this name is kept for callers that run
/// compiled programs through it.
using CompiledEvaluator = ::scalein::BoundedEvaluator;

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_VM_H_
