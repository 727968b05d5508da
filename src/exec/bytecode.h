#ifndef SCALEIN_EXEC_BYTECODE_H_
#define SCALEIN_EXEC_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/access_schema.h"
#include "core/controllability.h"
#include "query/formula.h"
#include "query/term.h"
#include "relational/value.h"

namespace scalein::exec {

/// Register index into a compiled plan's frontier row. A frontier is a flat
/// array of rows, each `num_regs` Values wide, with one register per
/// variable binding the plan can make (a variable quantified in two scopes
/// gets two registers).
using Reg = uint16_t;
constexpr Reg kNoReg = 0xFFFF;

/// Where a compiled slot's value comes from at run time.
struct Slot {
  enum class Kind : uint8_t {
    kConst,  ///< CompiledProgram::consts[index]
    kReg,    ///< frontier register `reg`
    kUnset,  ///< embedded chase seed: position starts unbound
  };
  Kind kind = Kind::kUnset;
  uint16_t index = 0;  ///< constant-pool slot (kConst)
  Reg reg = kNoReg;    ///< frontier register (kReg)
};

/// One per-argument-position action while consuming a fetched row. Executed
/// in position order; any failed check rejects the row.
struct UnifyStep {
  enum class Kind : uint8_t {
    kCheckConst,  ///< row[pos] must equal consts[index]
    kCheckReg,    ///< row[pos] must equal frontier register `reg`
    kBindLocal,   ///< first occurrence of a new variable: local[index] = row[pos]
    kCheckLocal,  ///< repeated new variable: row[pos] must equal local[index]
    kSkip,        ///< embedded unify: constant position, no comparison
    kBindReg,     ///< embedded unify: bind row[pos] into register `reg`
  };
  Kind kind = Kind::kSkip;
  uint16_t index = 0;  ///< constant-pool / local-extension slot
  Reg reg = kNoReg;    ///< frontier register
};

/// Resolution of one free variable of a compiled condition formula: read
/// from a frontier register or from the visit's local extension buffer.
struct CondVar {
  uint32_t var_id = 0;  ///< Variable::id()
  bool local = false;   ///< false: frontier register; true: local ext slot
  uint16_t index = 0;   ///< local slot (local)
  Reg reg = kNoReg;     ///< frontier register (!local)
};

/// The body of an "atom" or "condition" node: one metered probe (or full
/// scan) unified against the row, or one equality-condition evaluation.
struct LeafCode {
  // --- "atom" ---
  uint32_t relation = 0;  ///< index into CompiledProgram::relations
  /// Access statement backing the probe (enforce-bounds N and message text).
  const AccessStatement* access = nullptr;
  bool full_scan = false;  ///< key positions empty: the (R, ∅, N, T) unit
  std::vector<size_t> key_positions;  ///< canonical (sorted, deduplicated)
  std::vector<Slot> key;              ///< value source per key position
  std::vector<UnifyStep> unify;       ///< one per atom argument position

  // --- "condition" ---
  Formula cond = Formula::True();
  /// Sources of the variables the condition determines (its
  /// condition_resolve entries not yet bound), in variable-id order — one
  /// per local extension slot.
  std::vector<Slot> cond_sources;
  /// Free-variable resolution for evaluating `cond` over registers/locals.
  std::vector<CondVar> cond_vars;

  // --- both ---
  uint16_t ext_width = 0;     ///< number of new variables this leaf binds
  std::vector<Reg> ext_regs;  ///< destination register per local slot
};

/// One node of a plain §4 derivation. The VM visits a node once per
/// register row, exactly where the derivation walk evaluates the node under
/// one environment, and returns the node's distinct result rows in set
/// order: sorted on `layout`, and distinct on it. Every rule lowers to one
/// node:
///   atom, condition  the leaf body in `leaf`
///   and              children[0, n_positive) extend the row in conjunct
///                    order; children[n_positive, …) are safe negations
///                    that must come back empty
///   or               the union of every child's rows
///   exists           the body's rows, deduplicated on the smaller layout
///   forall           one row iff the conclusion (children[1]) holds for
///                    every row of the premise (children[0])
/// A leaf sorts its extensions, and/or/exists sort their rows, and a
/// condition or forall returns at most one row, so every node's rows are in
/// set order by construction; `dedup_adjacent` relies on exactly that.
struct PlainNode {
  ControlRule rule = ControlRule::kAtom;
  int32_t op_idx = -1;  ///< index into CompiledProgram::ops
  std::vector<uint32_t> children;  ///< indices into CompiledProgram::nodes
  uint32_t n_positive = 0;         ///< "and": children before the negations
  LeafCode leaf;                   ///< "atom" / "condition"
  /// Registers of the variables the node binds (its free variables not
  /// bound on entry) in variable-id order: the sort and dedup key that
  /// reproduces the derivation's binding-set order.
  std::vector<Reg> layout;
  /// "exists" whose layout is a prefix of its body's: the body's rows are
  /// already sorted on it, so dropping adjacent duplicates replaces the sort.
  bool dedup_adjacent = false;
};

/// One projection column of a chase step: fetched column `column` is
/// checked against, or bound into, candidate position `position`.
struct ChaseColumn {
  uint32_t column = 0;
  uint32_t position = 0;
};

/// One embedded chase step inside a compiled atom (Proposition 4.5). Which
/// candidate positions are bound before the step is fixed at compile time,
/// so the value columns come split into checks and binds.
struct ChaseStepCode {
  const AccessStatement* statement = nullptr;
  std::vector<size_t> key_positions;    ///< original order, as the plan names them
  std::vector<size_t> value_positions;  ///< original order
  std::vector<size_t> key_layout;       ///< canonical (the projection index's)
  std::vector<ChaseColumn> checks;      ///< value columns already bound
  std::vector<ChaseColumn> binds;       ///< value columns this step binds
};

/// One compiled atom of an embedded chase plan.
struct AtomCode {
  uint32_t relation = 0;  ///< index into CompiledProgram::relations
  int32_t op_idx = -1;    ///< "chase(R)" op prototype index
  size_t arity = 0;
  std::vector<Slot> seed;  ///< per position: constant / register / unset
  std::vector<ChaseStepCode> steps;
  bool needs_verification = false;
  const AccessStatement* verify_statement = nullptr;
  std::vector<size_t> verify_positions;  ///< canonical verification key
  std::vector<UnifyStep> unify;          ///< kSkip / kCheckReg / kBindReg
};

/// Prototype of one per-op counter slot, registered into a fresh ExecContext
/// in table order: the derivation's pre-order (each node before its
/// children, "and" positives in conjunct order before its negations).
struct OpProto {
  std::string label;
  int32_t parent = -1;  ///< index into the prototype table; -1 for the root
  double static_bound = -1.0;
};

/// A bounded plan lowered to register bytecode: everything the VM
/// (exec/vm.h) needs to execute the derivation. Immutable once built; shared
/// across sessions via the AnalysisCache entry it is attached to. Pointers
/// into the access schema / analysis stay valid through `keepalive`.
struct CompiledProgram {
  enum class Kind : uint8_t { kPlain, kEmbedded };
  Kind kind = Kind::kPlain;

  // --- common ---
  uint16_t num_regs = 0;
  std::vector<Value> consts;
  std::vector<std::string> relations;
  std::vector<OpProto> ops;
  VarSet params;  ///< the parameter set the program was compiled for
  std::vector<std::pair<Variable, Reg>> param_regs;  ///< seed from the binding
  double static_bound = 0;  ///< the derivation's Theorem 4.2 / Prop 4.5 M
  std::vector<Reg> head_regs;  ///< open head variables in head order

  // --- plain ---
  std::vector<PlainNode> nodes;  ///< pre-order; nodes[0] is the root

  // --- embedded ---
  std::vector<AtomCode> atoms;

  /// Keeps the analysis (and through it the access schema entries the
  /// compiled statement pointers reference) alive as long as the program.
  std::shared_ptr<const void> keepalive;

  /// Human-readable listing (EXPLAIN's `compiled:` section, docs/bytecode.md
  /// format): one line per node/opcode with registers and charge targets.
  std::string Disassemble() const;
};

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_BYTECODE_H_
