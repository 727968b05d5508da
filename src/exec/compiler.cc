#include "exec/compiler.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "relational/relation.h"

namespace scalein::exec {
namespace {

uint16_t InternConst(CompiledProgram* p, const Value& v) {
  for (size_t i = 0; i < p->consts.size(); ++i) {
    if (p->consts[i] == v) return static_cast<uint16_t>(i);
  }
  p->consts.push_back(v);
  return static_cast<uint16_t>(p->consts.size() - 1);
}

uint32_t InternRelation(CompiledProgram* p, const std::string& name) {
  for (size_t i = 0; i < p->relations.size(); ++i) {
    if (p->relations[i] == name) return static_cast<uint32_t>(i);
  }
  p->relations.push_back(name);
  return static_cast<uint32_t>(p->relations.size() - 1);
}

Result<Reg> AllocReg(CompiledProgram* p) {
  if (p->num_regs >= kNoReg) {
    return Status::Unimplemented("register file exhausted");
  }
  return p->num_regs++;
}

using RegMap = std::map<Variable, Reg>;

/// The variables of `vars` not bound by `env`, in variable-id order.
VarSet Unbound(const VarSet& vars, const RegMap& env) {
  VarSet out;
  for (const Variable& v : vars) {
    if (!env.count(v)) out.insert(v);
  }
  return out;
}

Status UnboundError(const char* what, const Variable& v) {
  return Status::Internal(std::string(what) + " '" + v.name() +
                          "' is not bound by the derivation");
}

/// Lowers one derivation into `p->nodes`, mirroring the derivation walk:
/// a node is visited with the variables in `env` bound, and binds exactly
/// its free variables outside `env`, into the registers its parent chose.
class PlainLowering {
 public:
  explicit PlainLowering(CompiledProgram* p) : p_(p) {}

  /// Lowers (node, opt) and returns its node index. `dest` holds a register
  /// for every free variable of the node that `env` does not bind; ops are
  /// registered in pre-order under `parent_op`.
  Result<uint32_t> Lower(const NodeAnalysis& node, const ControlOption& opt,
                         const RegMap& env, const RegMap& dest,
                         int32_t parent_op) {
    const uint32_t index = static_cast<uint32_t>(p_->nodes.size());
    p_->nodes.emplace_back();
    p_->ops.push_back(
        {opt.rule == ControlRule::kAtom
             ? "atom(" + node.formula.relation() + ")"
             : std::string(ControlRuleName(opt.rule)),
         parent_op, opt.fetch_bound});
    const int32_t op = static_cast<int32_t>(p_->ops.size()) - 1;

    PlainNode out;
    out.rule = opt.rule;
    out.op_idx = op;
    for (const auto& [v, r] : dest) {
      (void)v;
      out.layout.push_back(r);  // map order == variable-id order
    }
    switch (opt.rule) {
      case ControlRule::kAtom:
        SI_RETURN_IF_ERROR(LowerAtom(node, opt, env, dest, &out.leaf));
        break;
      case ControlRule::kCondition:
        SI_RETURN_IF_ERROR(LowerCondition(node, opt, env, dest, &out.leaf));
        break;
      case ControlRule::kAnd: {
        // Positive conjuncts extend the environment in derivation order;
        // the safe negations see every positive variable bound.
        RegMap scope = env;
        for (size_t step = 0; step < opt.conjunct_order.size(); ++step) {
          const NodeAnalysis& child = *node.subs[opt.conjunct_order[step]];
          SI_ASSIGN_OR_RETURN(RegMap child_dest, Inherit(child, scope, dest));
          SI_ASSIGN_OR_RETURN(uint32_t c, Lower(child, *opt.child_options[step],
                                                scope, child_dest, op));
          out.children.push_back(c);
          scope.insert(child_dest.begin(), child_dest.end());
        }
        out.n_positive = static_cast<uint32_t>(out.children.size());
        for (size_t ni = 0; ni + node.n_positives < node.subs.size(); ++ni) {
          const NodeAnalysis& neg = *node.subs[node.n_positives + ni];
          SI_ASSIGN_OR_RETURN(RegMap neg_dest, Inherit(neg, scope, dest));
          SI_ASSIGN_OR_RETURN(
              uint32_t c,
              Lower(neg, *opt.child_options[opt.conjunct_order.size() + ni],
                    scope, neg_dest, op));
          out.children.push_back(c);
        }
        break;
      }
      case ControlRule::kOr:
        // Every operand binds the same free variables into the same
        // registers, so their rows union into one layout.
        for (size_t i = 0; i < node.subs.size(); ++i) {
          SI_ASSIGN_OR_RETURN(RegMap child_dest,
                              Inherit(*node.subs[i], env, dest));
          SI_ASSIGN_OR_RETURN(uint32_t c, Lower(*node.subs[i],
                                                *opt.child_options[i], env,
                                                child_dest, op));
          out.children.push_back(c);
        }
        break;
      case ControlRule::kExists: {
        // The quantified variables shadow any outer binding and get
        // registers of their own scope.
        const RegMap inner = Shadow(node, env);
        SI_ASSIGN_OR_RETURN(RegMap body_dest,
                            Fresh(*node.subs[0], inner, dest));
        SI_ASSIGN_OR_RETURN(uint32_t c, Lower(*node.subs[0],
                                              *opt.child_options[0], inner,
                                              body_dest, op));
        out.children.push_back(c);
        const std::vector<Reg>& body_layout = p_->nodes[c].layout;
        out.dedup_adjacent =
            out.layout.size() <= body_layout.size() &&
            std::equal(out.layout.begin(), out.layout.end(),
                       body_layout.begin());
        break;
      }
      case ControlRule::kForall: {
        // The premise enumerates the quantified variables; the conclusion
        // is checked under each of its rows.
        RegMap scope = Shadow(node, env);
        SI_ASSIGN_OR_RETURN(RegMap premise_dest,
                            Fresh(*node.subs[0], scope, RegMap{}));
        SI_ASSIGN_OR_RETURN(uint32_t premise,
                            Lower(*node.subs[0], *opt.child_options[0], scope,
                                  premise_dest, op));
        scope.insert(premise_dest.begin(), premise_dest.end());
        SI_ASSIGN_OR_RETURN(RegMap conclusion_dest,
                            Fresh(*node.subs[1], scope, RegMap{}));
        SI_ASSIGN_OR_RETURN(uint32_t conclusion,
                            Lower(*node.subs[1], *opt.child_options[1], scope,
                                  conclusion_dest, op));
        out.children = {premise, conclusion};
        break;
      }
    }
    p_->nodes[index] = std::move(out);
    return index;
  }

 private:
  /// `env` without the variables `node` quantifies: inside ∃z̄ / ∀z̄, z̄ are
  /// new variables even where an enclosing scope binds the same names.
  static RegMap Shadow(const NodeAnalysis& node, const RegMap& env) {
    RegMap inner = env;
    for (const Variable& v : node.formula.quantified()) inner.erase(v);
    return inner;
  }

  /// Registers for `child`'s unbound free variables, taken from the
  /// parent's `dest` (a conjunct or disjunct binds only its parent's
  /// variables).
  Result<RegMap> Inherit(const NodeAnalysis& child, const RegMap& env,
                         const RegMap& dest) {
    RegMap out;
    for (const Variable& v : Unbound(child.formula.FreeVariables(), env)) {
      auto it = dest.find(v);
      if (it == dest.end()) return UnboundError("variable", v);
      out.emplace(v, it->second);
    }
    return out;
  }

  /// Registers for `child`'s unbound free variables: the parent's where it
  /// has one, fresh ones for variables it quantifies.
  Result<RegMap> Fresh(const NodeAnalysis& child, const RegMap& env,
                       const RegMap& dest) {
    RegMap out;
    for (const Variable& v : Unbound(child.formula.FreeVariables(), env)) {
      auto it = dest.find(v);
      if (it != dest.end()) {
        out.emplace(v, it->second);
      } else {
        SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p_));
        out.emplace(v, r);
      }
    }
    return out;
  }

  Status LowerAtom(const NodeAnalysis& node, const ControlOption& opt,
                   const RegMap& env, const RegMap& dest, LeafCode* out) {
    const Formula& atom = node.formula;
    out->relation = InternRelation(p_, atom.relation());
    out->access = opt.access;
    out->key_positions = Relation::CanonicalPositions(opt.key_positions);
    out->full_scan = out->key_positions.empty();
    for (size_t pos : out->key_positions) {
      const Term& t = atom.args()[pos];
      Slot s;
      if (t.is_const()) {
        s.kind = Slot::Kind::kConst;
        s.index = InternConst(p_, t.constant());
      } else {
        auto it = env.find(t.var());
        if (it == env.end()) return UnboundError("key variable", t.var());
        s.kind = Slot::Kind::kReg;
        s.reg = it->second;
      }
      out->key.push_back(s);
    }

    // New variables in variable-id order fix the local slots, so sorting
    // the local chunks reproduces the extension set's order.
    std::map<Variable, uint16_t> local;
    for (const auto& [v, r] : dest) {
      local.emplace(v, static_cast<uint16_t>(local.size()));
      out->ext_regs.push_back(r);
    }
    out->ext_width = static_cast<uint16_t>(local.size());
    std::set<Variable> seen;
    for (const Term& t : atom.args()) {
      UnifyStep s;
      if (t.is_const()) {
        s.kind = UnifyStep::Kind::kCheckConst;
        s.index = InternConst(p_, t.constant());
      } else if (env.count(t.var())) {
        s.kind = UnifyStep::Kind::kCheckReg;
        s.reg = env.at(t.var());
      } else {
        auto slot = local.find(t.var());
        if (slot == local.end()) return UnboundError("atom variable", t.var());
        s.kind = seen.insert(t.var()).second ? UnifyStep::Kind::kBindLocal
                                             : UnifyStep::Kind::kCheckLocal;
        s.index = slot->second;
      }
      out->unify.push_back(s);
    }
    return Status::OK();
  }

  /// A Boolean combination of equalities whose unresolved variables are
  /// determined by condition_resolve pins/representatives.
  Status LowerCondition(const NodeAnalysis& node, const ControlOption& opt,
                        const RegMap& env, const RegMap& dest, LeafCode* out) {
    out->cond = node.formula;
    std::map<Variable, uint16_t> local;
    for (const auto& [v, t] : opt.condition_resolve) {
      if (env.count(v)) continue;
      Slot s;
      if (t.is_const()) {
        s.kind = Slot::Kind::kConst;
        s.index = InternConst(p_, t.constant());
      } else {
        auto rep = env.find(t.var());
        if (rep == env.end()) {
          return UnboundError("condition representative", t.var());
        }
        s.kind = Slot::Kind::kReg;
        s.reg = rep->second;
      }
      auto reg = dest.find(v);
      if (reg == dest.end()) return UnboundError("condition variable", v);
      local.emplace(v, static_cast<uint16_t>(out->cond_sources.size()));
      out->cond_sources.push_back(s);
      out->ext_regs.push_back(reg->second);
    }
    out->ext_width = static_cast<uint16_t>(out->cond_sources.size());
    for (const Variable& v : node.formula.FreeVariables()) {
      CondVar cv;
      cv.var_id = v.id();
      if (auto reg = env.find(v); reg != env.end()) {
        cv.reg = reg->second;
      } else if (auto loc = local.find(v); loc != local.end()) {
        cv.local = true;
        cv.index = loc->second;
      } else {
        return UnboundError("condition variable", v);
      }
      out->cond_vars.push_back(cv);
    }
    return Status::OK();
  }

  CompiledProgram* p_;
};

}  // namespace

Result<std::shared_ptr<const CompiledProgram>> CompilePlain(
    const FoQuery& q, std::shared_ptr<const ControllabilityAnalysis> analysis,
    const VarSet& param_vars) {
  const ControlOption* opt = analysis->BestOptionFor(param_vars);
  if (opt == nullptr) {
    return Status::FailedPrecondition(
        "query is not controlled by the given parameters " +
        VarSetToString(param_vars));
  }
  auto prog = std::make_shared<CompiledProgram>();
  CompiledProgram* p = prog.get();
  p->kind = CompiledProgram::Kind::kPlain;
  p->params = param_vars;
  p->static_bound = opt->fetch_bound;
  p->keepalive = analysis;

  RegMap env;
  for (const Variable& v : param_vars) {
    SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p));
    env.emplace(v, r);
    p->param_regs.emplace_back(v, r);
  }
  RegMap dest;
  for (const Variable& v : Unbound(analysis->root().formula.FreeVariables(),
                                   env)) {
    SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p));
    dest.emplace(v, r);
  }
  PlainLowering lowering(p);
  SI_RETURN_IF_ERROR(
      lowering.Lower(analysis->root(), *opt, env, dest, /*parent_op=*/-1)
          .status());

  for (const Variable& v : q.head) {
    if (param_vars.count(v)) continue;
    auto it = dest.find(v);
    if (it == dest.end()) return UnboundError("head variable", v);
    p->head_regs.push_back(it->second);
  }
  // The VM's flat frontier needs a row width of at least one Value even for
  // variable-free programs (a zero width would make every row buffer empty).
  if (p->num_regs == 0) p->num_regs = 1;
  return std::shared_ptr<const CompiledProgram>(std::move(prog));
}

Result<std::shared_ptr<const CompiledProgram>> CompileEmbedded(
    std::shared_ptr<const EmbeddedCqAnalysis> analysis) {
  if (!analysis->IsScaleIndependent()) {
    return Status::FailedPrecondition(
        "query has no embedded-controllability plan");
  }
  const Cq& q = analysis->query();
  const EmbeddedPlan& plan = analysis->plan();
  auto prog = std::make_shared<CompiledProgram>();
  CompiledProgram* p = prog.get();
  p->kind = CompiledProgram::Kind::kEmbedded;
  p->params = analysis->params();
  p->static_bound = plan.fetch_bound;
  p->keepalive = analysis;

  RegMap var_regs;
  for (const Variable& v : p->params) {
    SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p));
    var_regs.emplace(v, r);
    p->param_regs.emplace_back(v, r);
  }

  p->ops.push_back({"embedded-cq", -1, plan.fetch_bound});
  for (const AtomPlan& ap : plan.atom_plans) {
    p->ops.push_back({"chase(" + q.atoms()[ap.atom_index].relation + ")", 0,
                      ap.fetch_bound});
  }

  for (size_t ai = 0; ai < plan.atom_plans.size(); ++ai) {
    const AtomPlan& ap = plan.atom_plans[ai];
    const CqAtom& atom = q.atoms()[ap.atom_index];
    AtomCode ac;
    ac.relation = InternRelation(p, atom.relation);
    ac.op_idx = static_cast<int32_t>(ai) + 1;
    ac.arity = atom.args.size();

    // Which candidate positions are bound is the same for every candidate,
    // so each step's value columns split into checks and binds here.
    std::vector<bool> pos_bound(ac.arity, false);
    for (size_t pos = 0; pos < ac.arity; ++pos) {
      const Term& t = atom.args[pos];
      Slot s;
      if (t.is_const()) {
        s.kind = Slot::Kind::kConst;
        s.index = InternConst(p, t.constant());
        pos_bound[pos] = true;
      } else if (auto it = var_regs.find(t.var()); it != var_regs.end()) {
        s.kind = Slot::Kind::kReg;
        s.reg = it->second;
        pos_bound[pos] = true;
      }
      ac.seed.push_back(s);
    }
    for (const AtomChaseStep& step : ap.steps) {
      ChaseStepCode sc;
      sc.statement = step.statement;
      sc.key_positions = step.key_positions;
      sc.value_positions = step.value_positions;
      sc.key_layout = Relation::CanonicalPositions(step.key_positions);
      for (size_t pos : sc.key_layout) {
        if (pos >= ac.arity || !pos_bound[pos]) {
          return Status::Internal("chase step key position is not yet bound");
        }
      }
      const std::vector<size_t> value_layout =
          Relation::CanonicalPositions(step.value_positions);
      for (size_t i = 0; i < value_layout.size(); ++i) {
        const size_t pos = value_layout[i];
        if (pos >= ac.arity) {
          return Status::Internal("chase step value position out of range");
        }
        const ChaseColumn column{static_cast<uint32_t>(i),
                                 static_cast<uint32_t>(pos)};
        (pos_bound[pos] ? sc.checks : sc.binds).push_back(column);
        pos_bound[pos] = true;
      }
      ac.steps.push_back(std::move(sc));
    }
    for (size_t pos = 0; pos < ac.arity; ++pos) {
      if (!pos_bound[pos]) {
        return Status::Internal("chase leaves an atom position unbound");
      }
    }
    if (ap.needs_verification) {
      ac.needs_verification = true;
      ac.verify_statement = ap.verify_statement;
      ac.verify_positions = Relation::CanonicalPositions(ap.verify_key_positions);
    }

    for (size_t pos = 0; pos < ac.arity; ++pos) {
      const Term& t = atom.args[pos];
      UnifyStep s;
      if (t.is_const()) {
        s.kind = UnifyStep::Kind::kSkip;
      } else if (auto it = var_regs.find(t.var()); it != var_regs.end()) {
        s.kind = UnifyStep::Kind::kCheckReg;
        s.reg = it->second;
      } else {
        SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p));
        var_regs.emplace(t.var(), r);
        s.kind = UnifyStep::Kind::kBindReg;
        s.reg = r;
      }
      ac.unify.push_back(s);
    }
    p->atoms.push_back(std::move(ac));
  }

  for (const Term& h : q.head()) {
    if (h.is_const()) continue;
    if (p->params.count(h.var())) continue;
    auto it = var_regs.find(h.var());
    if (it == var_regs.end()) return UnboundError("head variable", h.var());
    p->head_regs.push_back(it->second);
  }
  if (p->num_regs == 0) p->num_regs = 1;
  return std::shared_ptr<const CompiledProgram>(std::move(prog));
}

std::shared_ptr<const CompiledProgram> CompiledPlanSet::GetOrCompilePlain(
    Mode mode, const FoQuery& q,
    const std::shared_ptr<const ControllabilityAnalysis>& analysis,
    const VarSet& param_vars, std::string* why) {
  (void)mode;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = programs_.find(param_vars);
  if (it == programs_.end()) {
    Result<std::shared_ptr<const CompiledProgram>> compiled =
        CompilePlain(q, analysis, param_vars);
    if (!compiled.ok()) {
      if (why != nullptr) *why = compiled.status().message();
      return nullptr;
    }
    it = programs_.emplace(param_vars, std::move(compiled).ValueOrDie()).first;
    ++compiles_;
  }
  if (why != nullptr) why->clear();
  return it->second;
}

uint64_t CompiledPlanSet::compiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compiles_;
}

}  // namespace scalein::exec
