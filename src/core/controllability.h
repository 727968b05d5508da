#ifndef SCALEIN_CORE_CONTROLLABILITY_H_
#define SCALEIN_CORE_CONTROLLABILITY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/access_schema.h"
#include "core/verdict.h"
#include "query/formula.h"
#include "relational/schema.h"
#include "util/status.h"

namespace scalein {

/// Tuning knobs for the controllability derivation.
struct ControlAnalysisOptions {
  /// The conjunction rule is order-sensitive; all orders are explored by a
  /// DP over conjunct subsets (2^n states), capped here. Beyond the cap the
  /// analysis falls back to left-to-right order only (sound, incomplete).
  size_t max_conjuncts = 14;
  /// Antichain cap per node; excess options are dropped (sound, incomplete).
  size_t max_options_per_node = 48;
};

/// The §4 inference rule that derived a control option.
enum class ControlRule : uint8_t {
  kAtom,
  kCondition,
  kAnd,
  kOr,
  kExists,
  kForall,
};

/// The rule's name as derivations, op labels and bytecode listings print it:
/// "atom", "condition", "and", "or", "exists", "forall". Op labels are part
/// of the sealed certificate payload, so these strings never change.
const char* ControlRuleName(ControlRule rule);

/// One derivable way to control a subformula: the controlling variable set
/// x̄, the rule that produced it, the ingredients the bounded executor needs
/// to act on it, and static bounds derived from the access schema's N values.
struct ControlOption {
  VarSet controls;  ///< x̄: values for these make evaluation bounded
  ControlRule rule = ControlRule::kAtom;

  /// For "condition" options on conjunctions of equalities: how each free
  /// variable's value is *determined* — a constant (from x = c chains) or a
  /// representative variable in `controls`. This is the FO counterpart of
  /// the σ-rule's constant-bound-attribute subtraction in §5 and what the
  /// paper's SQL example ("... and x = 1 ...") implicitly uses. Empty for
  /// the plain all-variables condition option.
  std::map<Variable, Term> condition_resolve;

  /// Static worst-case number of base tuples fetched when evaluating with x̄
  /// fixed (the M the paper derives from the N values of A).
  double fetch_bound = 0;
  /// Static worst-case number of result tuples over free(Q) − x̄.
  double result_bound = 1;

  // --- rule "atom" ---
  const AccessStatement* access = nullptr;  ///< statement used for the fetch
  std::vector<size_t> key_positions;        ///< atom arg positions forming X

  // --- rule "and" ---
  /// Evaluation order over the node's positive conjuncts (indices into the
  /// analysis' positive-subnode list).
  std::vector<size_t> conjunct_order;

  /// Child options, meaning by rule: "and": one per positive conjunct in
  /// `conjunct_order`, then one per negative conjunct; "or": one per operand;
  /// "exists": the body option; "forall": {premise option, conclusion
  /// option}.
  std::vector<const ControlOption*> child_options;
};

/// Analysis of one subformula: its derivable control options (a ⊆-minimal
/// antichain; the expansion rule is implicit) plus analyses of the
/// structural children.
struct NodeAnalysis {
  Formula formula = Formula::True();
  /// Whole node is a Boolean combination of equalities ("conditions" rule).
  bool is_condition = false;
  /// Children: for conjunctions, the flattened positive conjuncts followed by
  /// the *bodies* of the negative (¬Q') conjuncts; for ∨ the operands; for
  /// ∃ the body; for ∀(Q→Q') the premise then the conclusion.
  std::vector<std::unique_ptr<NodeAnalysis>> subs;
  size_t n_positives = 0;  ///< split point in `subs` for conjunctions
  /// For conjunctions: the positive conjunct formulas (flattened) and the
  /// negative conjunct bodies, aligned with `subs`.
  std::vector<Formula> sub_formulas;

  std::vector<std::unique_ptr<ControlOption>> options;
  bool truncated = false;  ///< some cap was hit below this node
};

/// The §4 inference system: derives, bottom-up, every minimal controlling
/// set of every subformula under an access schema, keeping enough provenance
/// that the bytecode compiler (exec/compiler.h) can lower the derivation for
/// BoundedEvaluator to execute (the constructive content of Theorem 4.2).
class ControllabilityAnalysis {
 public:
  /// Runs the analysis. Fails only on structural errors (unknown relations /
  /// arity mismatches w.r.t. `schema`); an underivable formula yields an
  /// analysis with no root options, not an error.
  static Result<ControllabilityAnalysis> Analyze(
      const Formula& f, const Schema& schema, const AccessSchema& access,
      const ControlAnalysisOptions& options = {});

  const NodeAnalysis& root() const { return *root_; }

  /// The ⊆-minimal derivable controlling sets of the whole formula.
  std::vector<VarSet> MinimalControlSets() const;

  /// Is the formula x̄-controlled for x̄ = `vars`? Applies the expansion rule:
  /// true iff some minimal set ⊆ vars ∩ free(f).
  bool IsControlledBy(const VarSet& vars) const;

  /// Whether the formula is controlled by *all* of its free variables — the
  /// paper's unqualified "Q' is controlled under A".
  bool IsControlled() const { return !root_->options.empty(); }

  /// Best (minimum fetch-bound) option whose controls are ⊆ `vars`;
  /// nullptr if none.
  const ControlOption* BestOptionFor(const VarSet& vars) const;

  /// Static bound on base tuples fetched when evaluating with `vars` fixed;
  /// error if not controlled by `vars`.
  Result<double> StaticFetchBound(const VarSet& vars) const;

  /// True if an option/conjunct cap was hit anywhere (the analysis is then
  /// sound but possibly incomplete).
  bool truncated() const { return root_->truncated; }

  /// Human-readable derivation for the best option under `vars`.
  std::string Explain(const VarSet& vars) const;

 private:
  ControllabilityAnalysis() = default;
  std::unique_ptr<NodeAnalysis> root_;
};

/// Problem QCntl (Theorem 4.4, NP-complete): is there x̄ with |x̄| ≤ K such
/// that Q is x̄-controlled under A? Decided exactly from the derived minimal
/// antichain (kUnknown if the analysis was truncated and the answer would be
/// "no").
Verdict DecideQCntl(const ControllabilityAnalysis& analysis, size_t k);

/// Problem QCntlmin (Theorem 4.4): is Q minimally controlled by some x̄
/// containing variable `x`?
Verdict DecideQCntlMin(const ControllabilityAnalysis& analysis,
                       const Variable& x);

}  // namespace scalein

#endif  // SCALEIN_CORE_CONTROLLABILITY_H_
