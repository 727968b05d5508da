#include "core/controllability.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/strings.h"

namespace scalein {
namespace {

/// o2 dominates o1 when it controls with fewer (or equal) variables at lower
/// (or equal) cost on both bound axes.
bool Dominates(const ControlOption& o2, const ControlOption& o1) {
  return VarSubset(o2.controls, o1.controls) &&
         o2.fetch_bound <= o1.fetch_bound &&
         o2.result_bound <= o1.result_bound;
}

/// Pareto-inserts `opt` into the node's option list, respecting the cap.
void AddOption(NodeAnalysis* node, ControlOption opt, size_t cap) {
  for (const auto& existing : node->options) {
    if (Dominates(*existing, opt)) return;
  }
  std::erase_if(node->options, [&opt](const std::unique_ptr<ControlOption>& e) {
    return Dominates(opt, *e);
  });
  if (node->options.size() >= cap) {
    node->truncated = true;
    return;
  }
  node->options.push_back(std::make_unique<ControlOption>(std::move(opt)));
}

/// Flattens nested conjunctions / disjunctions of the given kind.
void FlattenOperands(const Formula& f, FormulaKind kind,
                     std::vector<Formula>* out) {
  if (f.kind() == kind) {
    for (const Formula& c : f.operands()) FlattenOperands(c, kind, out);
  } else {
    out->push_back(f);
  }
}

/// True if `stmt` behaves like a plain statement (Y = attr(R)).
bool IsEffectivelyPlain(const AccessStatement& stmt, const RelationSchema& rs) {
  if (stmt.is_plain()) return true;
  if (stmt.value_attrs->size() != rs.arity()) return false;
  for (const std::string& a : rs.attributes()) {
    if (std::find(stmt.value_attrs->begin(), stmt.value_attrs->end(), a) ==
        stmt.value_attrs->end()) {
      return false;
    }
  }
  return true;
}

class Analyzer {
 public:
  Analyzer(const Schema& schema, const AccessSchema& access,
           const ControlAnalysisOptions& options)
      : schema_(schema), access_(access), options_(options) {}

  Result<std::unique_ptr<NodeAnalysis>> Analyze(const Formula& f) {
    auto node = std::make_unique<NodeAnalysis>();
    node->formula = f;

    // "conditions" rule: any Boolean combination of equalities is controlled
    // by all of its variables, with no data access at all. Conjunctions of
    // positive equalities additionally *determine* variables: x = c pins x,
    // and x = y chains let one representative stand for its class (the FO
    // counterpart of the σ-rule's constant-bound attributes in §5, used by
    // the paper's SQL example).
    if (f.IsEqualityCondition()) {
      node->is_condition = true;
      ControlOption base;
      base.controls = f.FreeVariables();
      base.rule = ControlRule::kCondition;
      base.fetch_bound = 0;
      base.result_bound = 1;
      AddOption(node.get(), std::move(base), options_.max_options_per_node);
      AddPinnedConditionOptions(f, node.get());
      return node;
    }

    switch (f.kind()) {
      case FormulaKind::kAtom:
        SI_RETURN_IF_ERROR(AnalyzeAtom(f, node.get()));
        break;
      case FormulaKind::kAnd:
        SI_RETURN_IF_ERROR(AnalyzeAnd(f, node.get()));
        break;
      case FormulaKind::kOr:
        SI_RETURN_IF_ERROR(AnalyzeOr(f, node.get()));
        break;
      case FormulaKind::kExists:
        SI_RETURN_IF_ERROR(AnalyzeExists(f, node.get()));
        break;
      case FormulaKind::kForall:
        SI_RETURN_IF_ERROR(AnalyzeForall(f, node.get()));
        break;
      case FormulaKind::kNot:
      case FormulaKind::kImplies:
        // Negation is derivable only through the safe-negation rule (inside a
        // conjunction); a bare implication only through ∀(Q → Q').
        break;
      default:
        break;
    }
    return node;
  }

 private:
  /// Derives condition options with determined variables: union-find over the
  /// top-level positive equality conjuncts, constants pinning their class.
  /// One representative per constant-free class must still be controlled.
  void AddPinnedConditionOptions(const Formula& f, NodeAnalysis* node) {
    std::vector<Formula> conjuncts;
    FlattenOperands(f, FormulaKind::kAnd, &conjuncts);

    std::map<Variable, Variable> parent;
    std::map<Variable, Value> pinned;  // keyed by class root
    auto find = [&parent](Variable v) {
      Variable cur = v;
      for (;;) {
        auto it = parent.find(cur);
        if (it == parent.end() || it->second == cur) return cur;
        cur = it->second;
      }
    };
    bool ok = true;
    auto pin = [&](Variable v, const Value& c) {
      Variable root = find(v);
      auto it = pinned.find(root);
      if (it != pinned.end()) {
        ok = ok && it->second == c;
      } else {
        pinned.emplace(root, c);
      }
    };
    for (const Formula& c : conjuncts) {
      if (c.kind() != FormulaKind::kEq) continue;  // extra filters only
      const Term& l = c.eq_lhs();
      const Term& r = c.eq_rhs();
      if (l.is_var() && r.is_var()) {
        Variable rl = find(l.var());
        Variable rr = find(r.var());
        if (rl == rr) continue;
        auto pr = pinned.find(rr);
        if (pr != pinned.end()) {
          Value v = pr->second;
          pinned.erase(pr);
          parent.insert_or_assign(rr, rl);
          pin(rl, v);
        } else {
          parent.insert_or_assign(rr, rl);
        }
      } else if (l.is_var()) {
        pin(l.var(), r.constant());
      } else if (r.is_var()) {
        pin(r.var(), l.constant());
      } else if (!(l.constant() == r.constant())) {
        ok = false;  // unsatisfiable conjunction; no determination claimed
      }
    }
    if (!ok) return;

    // Group free variables by class; constant-free classes need one
    // controlled representative.
    const VarSet& free = f.FreeVariables();
    std::map<Variable, std::vector<Variable>> classes;  // root -> members
    for (const Variable& v : free) classes[find(v)].push_back(v);
    std::vector<const std::vector<Variable>*> unpinned;
    for (const auto& [root, members] : classes) {
      if (!pinned.count(find(root))) unpinned.push_back(&members);
    }
    size_t combos = 1;
    for (const auto* members : unpinned) combos *= members->size();
    const bool enumerate_all = combos <= 16;

    auto emit = [&](const std::vector<Variable>& reps) {
      ControlOption opt;
      opt.rule = ControlRule::kCondition;
      opt.fetch_bound = 0;
      opt.result_bound = 1;
      opt.controls = VarSet(reps.begin(), reps.end());
      for (const Variable& v : free) {
        Variable root = find(v);
        auto pit = pinned.find(root);
        if (pit != pinned.end()) {
          opt.condition_resolve.emplace(v, Term::Const(pit->second));
          continue;
        }
        // Representative of v's class.
        for (const Variable& rep : reps) {
          if (find(rep) == root) {
            opt.condition_resolve.emplace(v, Term::Var(rep));
            break;
          }
        }
      }
      AddOption(node, std::move(opt), options_.max_options_per_node);
    };

    if (enumerate_all) {
      std::vector<Variable> reps;
      auto recurse = [&](auto&& self, size_t idx) -> void {
        if (idx == unpinned.size()) {
          emit(reps);
          return;
        }
        for (const Variable& candidate : *unpinned[idx]) {
          reps.push_back(candidate);
          self(self, idx + 1);
          reps.pop_back();
        }
      };
      recurse(recurse, 0);
    } else {
      node->truncated = true;
      std::vector<Variable> reps;
      for (const auto* members : unpinned) reps.push_back(members->front());
      emit(reps);
    }
  }

  Status AnalyzeAtom(const Formula& f, NodeAnalysis* node) {
    const RelationSchema* rs = schema_.FindRelation(f.relation());
    if (rs == nullptr) {
      return Status::NotFound("atom over unknown relation '" + f.relation() +
                              "'");
    }
    if (rs->arity() != f.args().size()) {
      return Status::InvalidArgument("atom arity mismatch for relation '" +
                                     f.relation() + "'");
    }
    for (const AccessStatement* stmt : access_.ForRelation(f.relation())) {
      if (!IsEffectivelyPlain(*stmt, *rs)) continue;  // embedded: §4.5 engine
      ControlOption opt;
      opt.rule = ControlRule::kAtom;
      opt.access = stmt;
      opt.fetch_bound = static_cast<double>(stmt->max_tuples);
      opt.result_bound = static_cast<double>(stmt->max_tuples);
      bool ok = true;
      for (const std::string& attr : stmt->key_attrs) {
        std::optional<size_t> pos = rs->AttributePosition(attr);
        if (!pos.has_value()) {
          ok = false;
          break;
        }
        opt.key_positions.push_back(*pos);
        const Term& arg = f.args()[*pos];
        if (arg.is_var()) opt.controls.insert(arg.var());
      }
      if (!ok) continue;
      AddOption(node, std::move(opt), options_.max_options_per_node);
    }
    return Status::OK();
  }

  Status AnalyzeAnd(const Formula& f, NodeAnalysis* node) {
    std::vector<Formula> conjuncts;
    FlattenOperands(f, FormulaKind::kAnd, &conjuncts);

    // Split into positives and safe-negation candidates. A negated equality
    // condition counts as a positive (the conditions rule covers it).
    std::vector<Formula> positives;
    std::vector<Formula> negatives;  // the bodies Q' of ¬Q' conjuncts
    for (const Formula& c : conjuncts) {
      if (c.kind() == FormulaKind::kNot && !c.IsEqualityCondition()) {
        negatives.push_back(c.child());
      } else {
        positives.push_back(c);
      }
    }
    node->n_positives = positives.size();
    for (const Formula& p : positives) {
      node->sub_formulas.push_back(p);
      SI_ASSIGN_OR_RETURN(auto sub, Analyze(p));
      node->truncated |= sub->truncated;
      node->subs.push_back(std::move(sub));
    }
    for (const Formula& n : negatives) {
      node->sub_formulas.push_back(n);
      SI_ASSIGN_OR_RETURN(auto sub, Analyze(n));
      node->truncated |= sub->truncated;
      node->subs.push_back(std::move(sub));
    }
    if (positives.empty()) return Status::OK();  // ¬-only: not derivable

    // Safe negation preconditions: every negative body must be controlled
    // (by all its free variables) and its variables must come from the
    // positive part (z̄ ⊆ ȳ).
    VarSet positive_free;
    for (const Formula& p : positives) {
      positive_free = VarUnion(positive_free, p.FreeVariables());
    }
    double negation_fetch = 0;
    std::vector<const ControlOption*> negative_options;
    for (size_t ni = 0; ni < negatives.size(); ++ni) {
      const NodeAnalysis& sub = *node->subs[positives.size() + ni];
      if (sub.options.empty()) return Status::OK();  // not derivable
      if (!VarSubset(negatives[ni].FreeVariables(), positive_free)) {
        return Status::OK();
      }
      const ControlOption* best = nullptr;
      for (const auto& o : sub.options) {
        if (best == nullptr || o->fetch_bound < best->fetch_bound) {
          best = o.get();
        }
      }
      negative_options.push_back(best);
      negation_fetch += best->fetch_bound;
    }

    // DP over positive-conjunct subsets: every binary combination order of
    // the conjunction rule corresponds to some left-to-right chain.
    struct ChainOption {
      VarSet controls;
      double fetch = 0;
      double result = 1;
      std::vector<size_t> order;
      std::vector<const ControlOption*> children;
    };
    const size_t n = positives.size();
    bool exhaustive = n <= options_.max_conjuncts;
    if (!exhaustive) node->truncated = true;

    auto extend = [&](const ChainOption& base, const VarSet& seen_free,
                      size_t i) {
      std::vector<ChainOption> out;
      for (const auto& child_opt : node->subs[i]->options) {
        ChainOption next = base;
        next.controls =
            VarUnion(next.controls, VarMinus(child_opt->controls, seen_free));
        next.fetch = next.fetch + next.result * child_opt->fetch_bound;
        next.result = next.result * child_opt->result_bound;
        next.order.push_back(i);
        next.children.push_back(child_opt.get());
        out.push_back(std::move(next));
      }
      return out;
    };
    auto prune = [&](std::vector<ChainOption>* opts) {
      // Pareto prune on (controls, fetch, result).
      std::vector<ChainOption> kept;
      std::sort(opts->begin(), opts->end(),
                [](const ChainOption& a, const ChainOption& b) {
                  if (a.controls.size() != b.controls.size()) {
                    return a.controls.size() < b.controls.size();
                  }
                  return a.fetch < b.fetch;
                });
      for (ChainOption& o : *opts) {
        bool dominated = false;
        for (const ChainOption& k : kept) {
          if (VarSubset(k.controls, o.controls) && k.fetch <= o.fetch &&
              k.result <= o.result) {
            dominated = true;
            break;
          }
        }
        if (!dominated) {
          if (kept.size() >= options_.max_options_per_node) {
            node->truncated = true;
            break;
          }
          kept.push_back(std::move(o));
        }
      }
      *opts = std::move(kept);
    };

    std::vector<ChainOption> finals;
    if (exhaustive) {
      std::vector<std::vector<ChainOption>> dp(1u << n);
      std::vector<VarSet> seen_free(1u << n);
      for (uint32_t mask = 1; mask < (1u << n); ++mask) {
        uint32_t low = mask & (mask - 1);
        size_t bit = static_cast<size_t>(__builtin_ctz(mask));
        seen_free[mask] =
            VarUnion(seen_free[low], positives[bit].FreeVariables());
      }
      dp[0].push_back(ChainOption{});
      for (uint32_t mask = 0; mask < (1u << n); ++mask) {
        if (dp[mask].empty() && mask != 0) continue;
        for (size_t i = 0; i < n; ++i) {
          if (mask & (1u << i)) continue;
          uint32_t next_mask = mask | (1u << i);
          for (const ChainOption& base : dp[mask]) {
            std::vector<ChainOption> ext = extend(base, seen_free[mask], i);
            for (ChainOption& e : ext) dp[next_mask].push_back(std::move(e));
          }
          prune(&dp[next_mask]);
        }
      }
      finals = std::move(dp[(1u << n) - 1]);
    } else {
      // Fallback: left-to-right order only.
      std::vector<ChainOption> current = {ChainOption{}};
      VarSet seen;
      for (size_t i = 0; i < n; ++i) {
        std::vector<ChainOption> next;
        for (const ChainOption& base : current) {
          std::vector<ChainOption> ext = extend(base, seen, i);
          for (ChainOption& e : ext) next.push_back(std::move(e));
        }
        prune(&next);
        current = std::move(next);
        seen = VarUnion(seen, positives[i].FreeVariables());
      }
      finals = std::move(current);
    }

    for (ChainOption& c : finals) {
      ControlOption opt;
      opt.controls = std::move(c.controls);
      opt.rule = ControlRule::kAnd;
      opt.fetch_bound = c.fetch + c.result * negation_fetch;
      opt.result_bound = c.result;
      opt.conjunct_order = std::move(c.order);
      opt.child_options = std::move(c.children);
      for (const ControlOption* no : negative_options) {
        opt.child_options.push_back(no);
      }
      AddOption(node, std::move(opt), options_.max_options_per_node);
    }
    return Status::OK();
  }

  Status AnalyzeOr(const Formula& f, NodeAnalysis* node) {
    std::vector<Formula> operands;
    FlattenOperands(f, FormulaKind::kOr, &operands);
    const VarSet& free = f.FreeVariables();
    node->n_positives = operands.size();
    bool same_free = true;
    for (const Formula& op : operands) {
      if (!(op.FreeVariables() == free)) same_free = false;
      node->sub_formulas.push_back(op);
      SI_ASSIGN_OR_RETURN(auto sub, Analyze(op));
      node->truncated |= sub->truncated;
      node->subs.push_back(std::move(sub));
    }
    // The disjunction rule requires Q1(ȳ) ∨ Q2(ȳ): identical free tuples;
    // otherwise the un-shared variables range over the whole domain.
    if (!same_free) return Status::OK();

    struct Combo {
      VarSet controls;
      double fetch = 0;
      double result = 0;
      std::vector<const ControlOption*> children;
    };
    std::vector<Combo> current = {Combo{}};
    for (const auto& sub : node->subs) {
      if (sub->options.empty()) return Status::OK();  // all must be controlled
      std::vector<Combo> next;
      for (const Combo& base : current) {
        for (const auto& child_opt : sub->options) {
          Combo c = base;
          c.controls = VarUnion(c.controls, child_opt->controls);
          c.fetch += child_opt->fetch_bound;
          c.result += child_opt->result_bound;
          c.children.push_back(child_opt.get());
          next.push_back(std::move(c));
        }
      }
      // Pareto prune.
      std::vector<Combo> kept;
      std::sort(next.begin(), next.end(), [](const Combo& a, const Combo& b) {
        if (a.controls.size() != b.controls.size()) {
          return a.controls.size() < b.controls.size();
        }
        return a.fetch < b.fetch;
      });
      for (Combo& c : next) {
        bool dominated = false;
        for (const Combo& k : kept) {
          if (VarSubset(k.controls, c.controls) && k.fetch <= c.fetch &&
              k.result <= c.result) {
            dominated = true;
            break;
          }
        }
        if (!dominated) {
          if (kept.size() >= options_.max_options_per_node) {
            node->truncated = true;
            break;
          }
          kept.push_back(std::move(c));
        }
      }
      current = std::move(kept);
    }
    for (Combo& c : current) {
      ControlOption opt;
      opt.controls = std::move(c.controls);
      opt.rule = ControlRule::kOr;
      opt.fetch_bound = c.fetch;
      opt.result_bound = std::max(1.0, c.result);
      opt.child_options = std::move(c.children);
      AddOption(node, std::move(opt), options_.max_options_per_node);
    }
    return Status::OK();
  }

  Status AnalyzeExists(const Formula& f, NodeAnalysis* node) {
    SI_ASSIGN_OR_RETURN(auto sub, Analyze(f.body()));
    node->truncated |= sub->truncated;
    VarSet quantified(f.quantified().begin(), f.quantified().end());
    for (const auto& child_opt : sub->options) {
      // Rule: ∃z̄ Q is x̄-controlled when z̄ avoids x̄ (z̄ ⊆ ȳ − x̄).
      if (!VarIntersect(child_opt->controls, quantified).empty()) continue;
      ControlOption opt;
      opt.controls = child_opt->controls;
      opt.rule = ControlRule::kExists;
      opt.fetch_bound = child_opt->fetch_bound;
      opt.result_bound = child_opt->result_bound;
      opt.child_options = {child_opt.get()};
      AddOption(node, std::move(opt), options_.max_options_per_node);
    }
    node->subs.push_back(std::move(sub));
    return Status::OK();
  }

  Status AnalyzeForall(const Formula& f, NodeAnalysis* node) {
    if (f.body().kind() != FormulaKind::kImplies) {
      // Only the ∀ȳ(Q → Q') shape is derivable.
      SI_ASSIGN_OR_RETURN(auto sub, Analyze(f.body()));
      node->subs.push_back(std::move(sub));
      return Status::OK();
    }
    const Formula& premise = f.body().premise();
    const Formula& conclusion = f.body().conclusion();
    SI_ASSIGN_OR_RETURN(auto premise_sub, Analyze(premise));
    SI_ASSIGN_OR_RETURN(auto conclusion_sub, Analyze(conclusion));
    node->truncated |= premise_sub->truncated | conclusion_sub->truncated;

    VarSet quantified(f.quantified().begin(), f.quantified().end());
    const VarSet& premise_free = premise.FreeVariables();
    const VarSet& conclusion_free = conclusion.FreeVariables();

    // Every quantified variable must be enumerated by the premise, or not
    // appear in the conclusion at all (then the implication is vacuous in it).
    bool enumerable = true;
    for (const Variable& v : quantified) {
      if (!premise_free.count(v) && conclusion_free.count(v)) {
        enumerable = false;
        break;
      }
    }

    if (enumerable && !conclusion_sub->options.empty()) {
      const ControlOption* best_conclusion = nullptr;
      for (const auto& o : conclusion_sub->options) {
        if (best_conclusion == nullptr ||
            o->fetch_bound < best_conclusion->fetch_bound) {
          best_conclusion = o.get();
        }
      }
      for (const auto& premise_opt : premise_sub->options) {
        if (!VarIntersect(premise_opt->controls, quantified).empty()) continue;
        ControlOption opt;
        opt.controls = f.FreeVariables();  // a Boolean check given all frees
        opt.rule = ControlRule::kForall;
        opt.fetch_bound =
            premise_opt->fetch_bound +
            premise_opt->result_bound * best_conclusion->fetch_bound;
        opt.result_bound = 1;
        opt.child_options = {premise_opt.get(), best_conclusion};
        AddOption(node, std::move(opt), options_.max_options_per_node);
      }
    }
    node->subs.push_back(std::move(premise_sub));
    node->subs.push_back(std::move(conclusion_sub));
    return Status::OK();
  }

  const Schema& schema_;
  const AccessSchema& access_;
  const ControlAnalysisOptions& options_;
};

void RenderDerivation(const NodeAnalysis& node, const ControlOption& opt,
                      int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += ControlRuleName(opt.rule);
  *out += " controls=" + VarSetToString(opt.controls);
  *out += StrFormat(" fetch<=%.0f result<=%.0f", opt.fetch_bound,
                    opt.result_bound);
  if (opt.access != nullptr) *out += " via " + opt.access->ToString();
  *out += " : " + node.formula.ToString() + "\n";
  // Recurse structurally.
  switch (opt.rule) {
    case ControlRule::kAnd:
      for (size_t i = 0; i < opt.conjunct_order.size(); ++i) {
        RenderDerivation(*node.subs[opt.conjunct_order[i]],
                         *opt.child_options[i], depth + 1, out);
      }
      for (size_t ni = 0; ni + node.n_positives < node.subs.size(); ++ni) {
        out->append(static_cast<size_t>(depth + 1) * 2, ' ');
        *out += "safe-negation of:\n";
        RenderDerivation(*node.subs[node.n_positives + ni],
                         *opt.child_options[opt.conjunct_order.size() + ni],
                         depth + 2, out);
      }
      break;
    case ControlRule::kOr:
    case ControlRule::kExists:
    case ControlRule::kForall:
      // "or": one child per operand; "exists": the body; "forall": premise
      // then conclusion — child i is always subs[i].
      for (size_t i = 0; i < opt.child_options.size(); ++i) {
        RenderDerivation(*node.subs[i], *opt.child_options[i], depth + 1, out);
      }
      break;
    case ControlRule::kAtom:
    case ControlRule::kCondition:
      break;
  }
}

}  // namespace

const char* ControlRuleName(ControlRule rule) {
  switch (rule) {
    case ControlRule::kAtom:
      return "atom";
    case ControlRule::kCondition:
      return "condition";
    case ControlRule::kAnd:
      return "and";
    case ControlRule::kOr:
      return "or";
    case ControlRule::kExists:
      return "exists";
    case ControlRule::kForall:
      return "forall";
  }
  return "?";
}

Result<ControllabilityAnalysis> ControllabilityAnalysis::Analyze(
    const Formula& f, const Schema& schema, const AccessSchema& access,
    const ControlAnalysisOptions& options) {
  SI_RETURN_IF_ERROR(access.Validate(schema));
  obs::ScopedSpan span(obs::Tracer::Global(), "controllability.analyze",
                       "core");
  Analyzer analyzer(schema, access, options);
  ControllabilityAnalysis out;
  SI_ASSIGN_OR_RETURN(out.root_, analyzer.Analyze(f));
  if (span.enabled()) {
    span.Arg("options", static_cast<uint64_t>(out.root_->options.size()));
  }
  return out;
}

std::vector<VarSet> ControllabilityAnalysis::MinimalControlSets() const {
  // Options are a Pareto frontier over (controls, bounds), so two options may
  // share one controls set; dedupe and keep ⊆-minimal sets only.
  std::vector<VarSet> sets;
  for (const auto& o : root_->options) sets.push_back(o->controls);
  std::sort(sets.begin(), sets.end(),
            [](const VarSet& a, const VarSet& b) { return a.size() < b.size(); });
  std::vector<VarSet> minimal;
  for (const VarSet& s : sets) {
    bool dominated = false;
    for (const VarSet& kept : minimal) {
      if (VarSubset(kept, s)) {  // includes equality
        dominated = true;
        break;
      }
    }
    if (!dominated) minimal.push_back(s);
  }
  return minimal;
}

bool ControllabilityAnalysis::IsControlledBy(const VarSet& vars) const {
  VarSet usable = VarIntersect(vars, root_->formula.FreeVariables());
  for (const auto& o : root_->options) {
    if (VarSubset(o->controls, usable)) return true;
  }
  return false;
}

const ControlOption* ControllabilityAnalysis::BestOptionFor(
    const VarSet& vars) const {
  VarSet usable = VarIntersect(vars, root_->formula.FreeVariables());
  const ControlOption* best = nullptr;
  for (const auto& o : root_->options) {
    if (!VarSubset(o->controls, usable)) continue;
    if (best == nullptr || o->fetch_bound < best->fetch_bound) best = o.get();
  }
  return best;
}

Result<double> ControllabilityAnalysis::StaticFetchBound(
    const VarSet& vars) const {
  const ControlOption* best = BestOptionFor(vars);
  if (best == nullptr) {
    return Status::FailedPrecondition("query is not controlled by " +
                                      VarSetToString(vars));
  }
  return best->fetch_bound;
}

std::string ControllabilityAnalysis::Explain(const VarSet& vars) const {
  const ControlOption* best = BestOptionFor(vars);
  if (best == nullptr) {
    return "not controlled by " + VarSetToString(vars) + "\n";
  }
  std::string out;
  RenderDerivation(*root_, *best, 0, &out);
  return out;
}

Verdict DecideQCntl(const ControllabilityAnalysis& analysis, size_t k) {
  for (const VarSet& s : analysis.MinimalControlSets()) {
    if (s.size() <= k) return Verdict::kYes;
  }
  return analysis.truncated() ? Verdict::kUnknown : Verdict::kNo;
}

Verdict DecideQCntlMin(const ControllabilityAnalysis& analysis,
                       const Variable& x) {
  for (const VarSet& s : analysis.MinimalControlSets()) {
    if (s.count(x)) return Verdict::kYes;
  }
  return analysis.truncated() ? Verdict::kUnknown : Verdict::kNo;
}

}  // namespace scalein
