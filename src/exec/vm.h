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

/// Rejects a binding that does not bind exactly the program's parameters
/// (plain) or misses / adds to them (embedded), with InvalidArgument.
Status CheckProgramParams(const CompiledProgram& program,
                          const Binding& params);

/// Runs `program` for `params` (already checked) in `ctx` and projects its
/// result rows onto the open head registers into `answers`: the one VM
/// entry. A kPlain program is one walk of its node tree; a kEmbedded one is
/// the Proposition 4.5 chase. With `register_ops` the program's op table
/// (the derivation nodes, or the "embedded-cq" root and one "chase(R)" op
/// per atom) is registered into `ctx` first and charged. Each distinct
/// answer charges the output-row cap, and the tripping answer is withdrawn,
/// so exactly `cap` answers survive. Every failure fails `ctx`. A plain
/// walk's rows are sound even when it was cut short, so they are still
/// projected; a chase that failed leaves `answers` empty.
void Run(const CompiledProgram& program, const Database& db,
         bool enforce_bounds, const Binding& params, bool register_ops,
         ExecContext* ctx, AnswerSet* answers);

/// There is one bounded evaluator; this name is kept for callers that run
/// compiled programs through it.
using CompiledEvaluator = ::scalein::BoundedEvaluator;

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_VM_H_
