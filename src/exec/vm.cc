#include "exec/vm.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/approx.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "par/worker_pool.h"
#include "relational/relation.h"
#include "util/failpoint.h"

namespace scalein::exec {
namespace {

#if defined(__GNUC__) || defined(__clang__)
#define SCALEIN_VM_COMPUTED_GOTO 1
#else
#define SCALEIN_VM_COMPUTED_GOTO 0
#endif

/// Per-evaluation immutable view of a program: relation pointers resolved
/// once, the op table registered once (table index == prototype index).
struct Shared {
  const CompiledProgram& p;
  bool enforce = false;
  std::vector<const Relation*> rels;
  std::vector<OpCounters*> ops;  ///< empty when ops are not captured
};

Shared MakeShared(const CompiledProgram& p, const Database* db, bool enforce) {
  Shared sh{p, enforce, {}, {}};
  sh.rels.reserve(p.relations.size());
  for (const std::string& name : p.relations) {
    sh.rels.push_back(db->FindRelation(name));
  }
  return sh;
}

/// Registers the program's op prototypes into `ctx` in table order —
/// reproducing the interpreter's RegisterOps pre-order, so op ids, labels,
/// parents, and static bounds match the interpreted run byte for byte.
void RegisterProgramOps(const CompiledProgram& p, ExecContext* ctx,
                        Shared* sh) {
  sh->ops.reserve(p.ops.size());
  for (const OpProto& proto : p.ops) {
    const int32_t parent =
        proto.parent < 0 ? -1 : sh->ops[proto.parent]->id;
    OpCounters* op = ctx->NewOp(proto.label, parent);
    op->static_bound = proto.static_bound;
    sh->ops.push_back(op);
  }
}

/// Scratch buffers reused across one plain evaluation's leaf visits.
struct PlainScratch {
  std::vector<Value> ext;     ///< distinct extensions, ext_width-wide chunks
  std::vector<Value> locals;  ///< one visit's local extension slots
  std::vector<Value> tmp;
  std::vector<uint32_t> idx;
  Tuple key;
};

/// Runs a leaf's per-position unify steps against a fetched row. The
/// computed-goto variant keeps the dispatch in one indirect branch per
/// position; the switch fallback is semantically identical.
bool UnifyLocal(const std::vector<UnifyStep>& steps,
                const std::vector<Value>& consts, const Value* row,
                TupleView r, Value* locals) {
#if SCALEIN_VM_COMPUTED_GOTO
  static const void* kJump[] = {&&lCheckConst, &&lCheckReg, &&lBindLocal,
                                &&lCheckLocal, &&lSkip,     &&lBindReg};
  const size_t n = steps.size();
  if (n == 0) return true;
  size_t p = 0;
#define SCALEIN_VM_NEXT()                                  \
  do {                                                     \
    if (++p == n) return true;                             \
    goto* kJump[static_cast<uint8_t>(steps[p].kind)];      \
  } while (0)
  goto* kJump[static_cast<uint8_t>(steps[0].kind)];
lCheckConst:
  if (!(consts[steps[p].index] == r[p])) return false;
  SCALEIN_VM_NEXT();
lCheckReg:
  if (!(row[steps[p].reg] == r[p])) return false;
  SCALEIN_VM_NEXT();
lBindLocal:
  locals[steps[p].index] = r[p];
  SCALEIN_VM_NEXT();
lCheckLocal:
  if (!(locals[steps[p].index] == r[p])) return false;
  SCALEIN_VM_NEXT();
lSkip:
  SCALEIN_VM_NEXT();
lBindReg:
  SI_CHECK_MSG(false, "embedded unify step in a plain leaf");
  return false;
#undef SCALEIN_VM_NEXT
#else
  for (size_t p = 0; p < steps.size(); ++p) {
    const UnifyStep& s = steps[p];
    switch (s.kind) {
      case UnifyStep::Kind::kCheckConst:
        if (!(consts[s.index] == r[p])) return false;
        break;
      case UnifyStep::Kind::kCheckReg:
        if (!(row[s.reg] == r[p])) return false;
        break;
      case UnifyStep::Kind::kBindLocal:
        locals[s.index] = r[p];
        break;
      case UnifyStep::Kind::kCheckLocal:
        if (!(locals[s.index] == r[p])) return false;
        break;
      case UnifyStep::Kind::kSkip:
        break;
      case UnifyStep::Kind::kBindReg:
        SI_CHECK_MSG(false, "embedded unify step in a plain leaf");
        break;
    }
  }
  return true;
#endif
}

/// Sorts `buf`'s w-wide chunks lexicographically and drops duplicates —
/// replicating std::set<Binding> order (locals are laid out in variable-id
/// order) and dedup over the leaf's extension domain. Returns the distinct
/// count, with `buf` rebuilt in sorted order.
size_t SortUniqueChunks(std::vector<Value>* buf, size_t w,
                        std::vector<uint32_t>* idx, std::vector<Value>* tmp) {
  const size_t m = w == 0 ? 0 : buf->size() / w;
  if (m <= 1) return m;
  idx->resize(m);
  for (size_t i = 0; i < m; ++i) (*idx)[i] = static_cast<uint32_t>(i);
  const Value* base = buf->data();
  std::sort(idx->begin(), idx->end(), [&](uint32_t a, uint32_t b) {
    const Value* ra = base + static_cast<size_t>(a) * w;
    const Value* rb = base + static_cast<size_t>(b) * w;
    for (size_t j = 0; j < w; ++j) {
      if (ra[j] < rb[j]) return true;
      if (rb[j] < ra[j]) return false;
    }
    return false;
  });
  tmp->clear();
  tmp->reserve(buf->size());
  size_t kept = 0;
  for (size_t i = 0; i < m; ++i) {
    if (i > 0) {
      const Value* a = base + static_cast<size_t>((*idx)[i]) * w;
      const Value* b = base + static_cast<size_t>((*idx)[i - 1]) * w;
      bool eq = true;
      for (size_t j = 0; j < w && eq; ++j) eq = a[j] == b[j];
      if (eq) continue;
    }
    const Value* src = base + static_cast<size_t>((*idx)[i]) * w;
    tmp->insert(tmp->end(), src, src + w);
    ++kept;
  }
  buf->swap(*tmp);
  return kept;
}

Value CondTermValue(const Term& t, const LeafCode& leaf, const Value* row,
                    const Value* locals) {
  if (t.is_const()) return t.constant();
  for (const CondVar& cv : leaf.cond_vars) {
    if (cv.var_id == t.var().id()) {
      return cv.local ? locals[cv.index] : row[cv.reg];
    }
  }
  SI_CHECK_MSG(false, "unbound variable in bounded evaluation");
  return Value();
}

/// Register-resolved twin of the interpreter's EvalConditionFormula.
bool EvalCondFormula(const Formula& f, const LeafCode& leaf, const Value* row,
                     const Value* locals) {
  switch (f.kind()) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kEq:
      return CondTermValue(f.eq_lhs(), leaf, row, locals) ==
             CondTermValue(f.eq_rhs(), leaf, row, locals);
    case FormulaKind::kNot:
      return !EvalCondFormula(f.child(), leaf, row, locals);
    case FormulaKind::kAnd:
      for (const Formula& c : f.operands()) {
        if (!EvalCondFormula(c, leaf, row, locals)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const Formula& c : f.operands()) {
        if (EvalCondFormula(c, leaf, row, locals)) return true;
      }
      return false;
    case FormulaKind::kImplies:
      return !EvalCondFormula(f.premise(), leaf, row, locals) ||
             EvalCondFormula(f.conclusion(), leaf, row, locals);
    default:
      SI_CHECK_MSG(false, "non-condition node in condition evaluation");
      return false;
  }
}

/// One leaf visit for one frontier row: the compiled body of the
/// interpreter's EvalImpl on an atom/condition leaf. Issues the identical
/// metered charges in the identical order and leaves the distinct
/// extensions (sorted, ext_width-wide) in `s->ext`. Returns the distinct
/// extension count — the visit's rows charge.
uint64_t VisitLeafImpl(const Shared& sh, const LeafCode& leaf,
                       ExecContext* ctx, const Value* row, OpCounters* op,
                       PlainScratch* s) {
  s->ext.clear();
  if (!ctx->ok()) return 0;
  const size_t w = leaf.ext_width;
  if (leaf.is_condition) {
    s->locals.resize(w);
    for (size_t i = 0; i < w; ++i) {
      const Slot& src = leaf.cond_sources[i];
      s->locals[i] = src.kind == Slot::Kind::kConst ? sh.p.consts[src.index]
                                                    : row[src.reg];
    }
    if (!EvalCondFormula(leaf.cond, leaf, row, s->locals.data())) return 0;
    s->ext.insert(s->ext.end(), s->locals.begin(), s->locals.end());
    return 1;
  }
  const Relation* rel = sh.rels[leaf.relation];
  if (rel == nullptr) return 0;
  const std::string& name = sh.p.relations[leaf.relation];
  s->locals.resize(w);
  uint64_t matched = 0;
  auto consume = [&](TupleView r) {
    if (!UnifyLocal(leaf.unify, sh.p.consts, row, r, s->locals.data())) return;
    ++matched;
    if (w > 0) s->ext.insert(s->ext.end(), s->locals.begin(), s->locals.end());
  };
  if (leaf.full_scan) {
    // (R, ∅, N, T): the whole relation is the access unit.
    ChargeFullAccess(ctx, name, *rel, op);
    if (!ctx->ok()) {
      s->ext.clear();
      return 0;
    }
    if (sh.enforce && rel->size() > leaf.access->max_tuples) {
      ctx->SetError(Status::ResourceExhausted("relation " + name +
                                              " exceeds declared N of " +
                                              leaf.access->ToString()));
      s->ext.clear();
      return 0;
    }
    for (size_t i = 0; i < rel->size(); ++i) consume(rel->TupleAt(i));
  } else {
    s->key.clear();
    for (const Slot& slot : leaf.key) {
      s->key.push_back(slot.kind == Slot::Kind::kConst
                           ? sh.p.consts[slot.index]
                           : row[slot.reg]);
    }
    const std::vector<uint32_t>* rows =
        MeteredIndexLookup(ctx, name, *rel, leaf.key_positions, s->key, op);
    if (!ctx->ok()) {
      s->ext.clear();
      return 0;
    }
    if (rows == nullptr) return 0;
    if (sh.enforce && rows->size() > leaf.access->max_tuples) {
      ctx->SetError(Status::ResourceExhausted("σ on " + name +
                                              " exceeds declared N of " +
                                              leaf.access->ToString()));
      s->ext.clear();
      return 0;
    }
    for (uint32_t r : *rows) consume(rel->TupleAt(r));
  }
  if (w == 0) return matched > 0 ? 1 : 0;
  return SortUniqueChunks(&s->ext, w, &s->idx, &s->tmp);
}

/// The interpreter's Eval wrapper: rows-charge (or timed direct bump) on
/// top of the leaf body.
uint64_t VisitLeaf(const Shared& sh, const LeafCode& leaf, ExecContext* ctx,
                   const Value* row, PlainScratch* s) {
  OpCounters* op =
      (leaf.op_idx >= 0 && !sh.ops.empty()) ? sh.ops[leaf.op_idx] : nullptr;
#if SCALEIN_OBS_ENABLE_TIMING
  if (op != nullptr && ctx->timing_enabled()) {
    const uint64_t start = obs::MonotonicNowNs();
    const uint64_t d = VisitLeafImpl(sh, leaf, ctx, row, op, s);
    op->next_ns += obs::MonotonicNowNs() - start;
    ++op->next_calls;
    op->rows_out += d;
    return d;
  }
#endif
  const uint64_t d = VisitLeafImpl(sh, leaf, ctx, row, op, s);
  if (op != nullptr) op->rows_out += d;
  return d;
}

/// Flat frontier of `width`-wide register rows.
struct Frontier {
  std::vector<Value> buf;
  size_t width = 0;
  size_t size() const { return width == 0 ? 0 : buf.size() / width; }
  const Value* row(size_t i) const { return buf.data() + i * width; }
};

/// Appends one output row per distinct extension: a copy of `row` with the
/// leaf's ext registers overwritten. Extension chunks are sorted, so rows
/// land in the interpreter's BindingSet iteration order.
void MergeExtensions(const LeafCode& leaf, const Value* row, size_t w,
                     const PlainScratch& s, uint64_t d,
                     std::vector<Value>* out) {
  const size_t ew = leaf.ext_width;
  if (ew == 0) {
    if (d > 0) out->insert(out->end(), row, row + w);
    return;
  }
  for (uint64_t k = 0; k < d; ++k) {
    const size_t base = out->size();
    out->insert(out->end(), row, row + w);
    const Value* chunk = s.ext.data() + k * ew;
    for (size_t j = 0; j < ew; ++j) {
      (*out)[base + leaf.ext_regs[j]] = chunk[j];
    }
  }
}

/// Expands every frontier row through one positive leaf. Returns false when
/// the context failed (the interpreter's EvalAnd `return {}`).
bool ExpandStage(const Shared& sh, const PlainStage& stage, ExecContext* ctx,
                 Frontier* rows, PlainScratch* s) {
  const size_t w = rows->width;
  const size_t n = rows->size();
  std::vector<Value> next;
  for (size_t i = 0; i < n; ++i) {
    const Value* row = rows->row(i);
    const uint64_t d = VisitLeaf(sh, stage.leaf, ctx, row, s);
    MergeExtensions(stage.leaf, row, w, *s, d, &next);
    if (!ctx->ok()) return false;
  }
  rows->buf = std::move(next);
  return true;
}

/// Filters the frontier through the safe negation leaves.
bool NegationStage(const Shared& sh, const PlainStage& stage, ExecContext* ctx,
                   Frontier* rows, PlainScratch* s) {
  const size_t w = rows->width;
  const size_t n = rows->size();
  std::vector<Value> next;
  for (size_t i = 0; i < n; ++i) {
    const Value* row = rows->row(i);
    bool keep = true;
    for (const LeafCode& neg : stage.negs) {
      if (VisitLeaf(sh, neg, ctx, row, s) > 0) {
        keep = false;
        break;
      }
      if (!ctx->ok()) return false;
    }
    if (keep) next.insert(next.end(), row, row + w);
  }
  rows->buf = std::move(next);
  return true;
}

/// Sorts + dedups the frontier on the stage's binding-domain layout
/// (variable-id order ⇒ std::set<Binding> order) and charges the owning
/// "and"/"exists" op with the distinct count — the interpreter's BindingSet
/// materialization. Rows equal on the layout are duplicates over every
/// register read downstream, so the unstable sort is observation-free.
void FinalizeStage(const Shared& sh, const PlainStage& stage, ExecContext* ctx,
                   Frontier* rows, PlainScratch* s, uint64_t eval_start) {
  (void)eval_start;
  const size_t w = rows->width;
  const size_t n = rows->size();
  const std::vector<Reg>& layout = stage.layout;
  uint64_t d = n;
  if (n > 1) {
    s->idx.resize(n);
    for (size_t i = 0; i < n; ++i) s->idx[i] = static_cast<uint32_t>(i);
    const Value* base = rows->buf.data();
    std::sort(s->idx.begin(), s->idx.end(), [&](uint32_t a, uint32_t b) {
      const Value* ra = base + static_cast<size_t>(a) * w;
      const Value* rb = base + static_cast<size_t>(b) * w;
      for (Reg rg : layout) {
        if (ra[rg] < rb[rg]) return true;
        if (rb[rg] < ra[rg]) return false;
      }
      return false;
    });
    s->tmp.clear();
    s->tmp.reserve(rows->buf.size());
    d = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) {
        const Value* a = base + static_cast<size_t>(s->idx[i]) * w;
        const Value* b = base + static_cast<size_t>(s->idx[i - 1]) * w;
        bool eq = true;
        for (size_t j = 0; j < layout.size() && eq; ++j) {
          eq = a[layout[j]] == b[layout[j]];
        }
        if (eq) continue;
      }
      const Value* src = base + static_cast<size_t>(s->idx[i]) * w;
      s->tmp.insert(s->tmp.end(), src, src + w);
      ++d;
    }
    rows->buf.swap(s->tmp);
  }
  OpCounters* op =
      (stage.op_idx >= 0 && !sh.ops.empty()) ? sh.ops[stage.op_idx] : nullptr;
#if SCALEIN_OBS_ENABLE_TIMING
  if (op != nullptr && ctx->timing_enabled()) {
    // Approximate: wrapper ops share the evaluation's start clock (vm.h).
    op->next_ns += obs::MonotonicNowNs() - eval_start;
    ++op->next_calls;
    op->rows_out += d;
    return;
  }
#endif
  if (op != nullptr) op->rows_out += d;
}

/// Straight-line stage loop over one frontier buffer. On a context failure
/// the remaining expand/negation stages are skipped entirely (the
/// interpreter abandons those subtree visits with no charges), but the
/// finalize/project stages still run — EvalAnd's `return {}` still flows
/// through the and/exists Eval wrappers, charging zero rows.
void RunPlainProgram(const Shared& sh, ExecContext* ctx, const Binding& params,
                     Frontier* rows, PlainScratch* s) {
  const CompiledProgram& p = sh.p;
  rows->width = p.num_regs;
  rows->buf.assign(p.num_regs, Value());
  for (const auto& [v, r] : p.param_regs) rows->buf[r] = params.at(v);
  uint64_t eval_start = 0;
#if SCALEIN_OBS_ENABLE_TIMING
  if (ctx->timing_enabled()) eval_start = obs::MonotonicNowNs();
#endif
  bool aborted = false;
  for (const PlainStage& stage : p.stages) {
    switch (stage.kind) {
      case PlainStage::Kind::kExpand:
        if (!aborted && !ExpandStage(sh, stage, ctx, rows, s)) {
          aborted = true;
          rows->buf.clear();
        }
        break;
      case PlainStage::Kind::kNegations:
        if (!aborted && !NegationStage(sh, stage, ctx, rows, s)) {
          aborted = true;
          rows->buf.clear();
        }
        break;
      case PlainStage::Kind::kFinalize:
      case PlainStage::Kind::kExistsFinalize:
        FinalizeStage(sh, stage, ctx, rows, s, eval_start);
        break;
    }
  }
}

Status CheckPlainParams(const CompiledProgram& p, const Binding& params) {
  VarSet vars;
  for (const auto& [v, val] : params) {
    (void)val;
    vars.insert(v);
  }
  if (vars != p.params) {
    return Status::InvalidArgument(
        "compiled program was built for parameters " +
        VarSetToString(p.params) + ", got " + VarSetToString(vars));
  }
  return Status::OK();
}

Status CheckEmbeddedParams(const CompiledProgram& p, const Binding& params) {
  for (const Variable& v : p.params) {
    if (!params.count(v)) {
      return Status::InvalidArgument("missing value for parameter '" +
                                     v.name() + "'");
    }
  }
  // Extra bindings would seed the interpreter's chase frontier but have no
  // registers here; reject so the caller falls back to interpretation.
  if (params.size() != p.params.size()) {
    return Status::InvalidArgument(
        "compiled program was built for parameters " +
        VarSetToString(p.params));
  }
  return Status::OK();
}

/// Scratch of the embedded chase: flat arity-wide candidate
/// buffers with one validity-mask word per candidate (arity ≤ 64, enforced
/// by the compiler).
struct EmbScratch {
  std::vector<Value> cand;
  std::vector<uint64_t> mask;
  std::vector<Value> ext;
  std::vector<uint64_t> ext_mask;
  Tuple key;
};

/// One frontier row through one compiled atom's chase — the register form
/// of the interpreter's process_assignment, with the identical metered
/// calls, error strings, and candidate/extension order.
Status ProcessRow(const Shared& sh, const AtomCode& ac, const Relation* rel,
                  const Value* row, ExecContext* actx, OpCounters* aop,
                  std::vector<Value>* out, size_t w, EmbScratch* s) {
  const CompiledProgram& p = sh.p;
  const std::string& name = p.relations[ac.relation];
  const size_t arity = ac.arity;
  // Seed partial tuple from constants and bound registers.
  s->cand.assign(arity, Value());
  uint64_t seed_mask = 0;
  for (size_t pos = 0; pos < arity; ++pos) {
    const Slot& slot = ac.seed[pos];
    if (slot.kind == Slot::Kind::kConst) {
      s->cand[pos] = p.consts[slot.index];
      seed_mask |= uint64_t{1} << pos;
    } else if (slot.kind == Slot::Kind::kReg) {
      s->cand[pos] = row[slot.reg];
      seed_mask |= uint64_t{1} << pos;
    }
  }
  s->mask.assign(1, seed_mask);
  for (const ChaseStepCode& step : ac.steps) {
    s->ext.clear();
    s->ext_mask.clear();
    const size_t m = s->mask.size();
    for (size_t ci = 0; ci < m; ++ci) {
      const Value* cand = s->cand.data() + ci * arity;
      const uint64_t cmask = s->mask[ci];
      s->key.clear();
      for (size_t pos : step.key_layout) {
        SI_CHECK(cmask >> pos & 1);
        s->key.push_back(cand[pos]);
      }
      std::vector<Tuple> projections =
          MeteredProjectionLookup(actx, name, *rel, step.key_positions,
                                  step.value_positions, s->key, aop);
      SI_RETURN_IF_ERROR(actx->status());
      if (sh.enforce && projections.size() > step.statement->max_tuples) {
        return Status::ResourceExhausted(
            "embedded access exceeds declared N of " +
            step.statement->ToString());
      }
      for (const Tuple& proj : projections) {
        const size_t base = s->ext.size();
        s->ext.insert(s->ext.end(), cand, cand + arity);
        uint64_t emask = cmask;
        bool ok = true;
        for (size_t i = 0; i < step.value_layout.size() && ok; ++i) {
          const size_t pos = step.value_layout[i];
          if (emask >> pos & 1) {
            ok = s->ext[base + pos] == proj[i];
          } else {
            s->ext[base + pos] = proj[i];
            emask |= uint64_t{1} << pos;
          }
        }
        if (ok) {
          s->ext_mask.push_back(emask);
        } else {
          s->ext.resize(base);
        }
      }
    }
    s->cand.swap(s->ext);
    s->mask.swap(s->ext_mask);
  }
  // All positions are now bound; verify if required, then unify.
  const size_t m = s->mask.size();
  for (size_t ci = 0; ci < m; ++ci) {
    const Value* cand = s->cand.data() + ci * arity;
    if (ac.needs_verification) {
      s->key.clear();
      for (size_t pos : ac.verify_positions) s->key.push_back(cand[pos]);
      const std::vector<uint32_t>* row_ids = MeteredIndexLookup(
          actx, name, *rel, ac.verify_positions, s->key, aop);
      SI_RETURN_IF_ERROR(actx->status());
      bool found = false;
      if (row_ids != nullptr) {
        if (sh.enforce && row_ids->size() > ac.verify_statement->max_tuples) {
          return Status::ResourceExhausted(
              "verification access exceeds declared N of " +
              ac.verify_statement->ToString());
        }
        for (uint32_t r : *row_ids) {
          if (TupleEquals(rel->TupleAt(r), TupleView(cand, arity))) {
            found = true;
            break;
          }
        }
      }
      if (!found) continue;
    }
    // Extend the frontier row with the atom's variables; kCheckReg reads
    // the mutable output row so same-atom kBindReg bindings are visible to
    // later repeated positions.
    const size_t base = out->size();
    out->insert(out->end(), row, row + w);
    Value* dst = out->data() + base;
    bool ok = true;
    for (size_t pos = 0; pos < arity && ok; ++pos) {
      const UnifyStep& u = ac.unify[pos];
      switch (u.kind) {
        case UnifyStep::Kind::kSkip:
          break;
        case UnifyStep::Kind::kCheckReg:
          ok = dst[u.reg] == cand[pos];
          break;
        case UnifyStep::Kind::kBindReg:
          dst[u.reg] = cand[pos];
          break;
        default:
          SI_CHECK_MSG(false, "plain unify step in an embedded atom");
      }
    }
    if (!ok) out->resize(base);
  }
  return Status::OK();
}

}  // namespace

Result<AnswerSet> CompiledEvaluator::Evaluate(const CompiledProgram& program,
                                              const Binding& params,
                                              BoundedEvalStats* stats) const {
  if (program.kind != CompiledProgram::Kind::kPlain) {
    return Status::InvalidArgument(
        "Evaluate requires a plain compiled program");
  }
  SI_RETURN_IF_ERROR(CheckPlainParams(program, params));
  ExecContext ctx(db_);
  ctx.set_limits(limits_);  // per-evaluation resource envelope
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate", "core");
  if (span.enabled() && par::CurrentLane() >= 0) {
    span.Arg("worker", static_cast<uint64_t>(par::CurrentLane()));
  }
  Shared sh = MakeShared(program, db_, enforce_bounds_);
  if (collect_timing_ || (stats != nullptr && stats->capture_ops)) {
    RegisterProgramOps(program, &ctx, &sh);
  }
  Frontier rows;
  PlainScratch scratch;
  RunPlainProgram(sh, &ctx, params, &rows, &scratch);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("static_bound", program.static_bound);
  }
  if (stats != nullptr) {
    stats->static_bound = program.static_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightNums(
        obs::EventKind::kQueryFinish, "bounded.eval",
        {{"fetched", static_cast<double>(ctx.base_tuples_fetched())},
         {"static_bound", program.static_bound},
         {"tripped", ctx.trip().tripped() ? 1.0 : 0.0}});
  }
  SI_RETURN_IF_ERROR(ctx.status());

  AnswerSet answers;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value* row = rows.row(i);
    Tuple t;
    t.reserve(program.head_regs.size());
    for (Reg r : program.head_regs) t.push_back(row[r]);
    auto [pos, inserted] = answers.insert(std::move(t));
    if (inserted && !ctx.ChargeOutput(1, nullptr)) {
      answers.erase(pos);
      break;
    }
  }
  SI_RETURN_IF_ERROR(ctx.status());
  return answers;
}

Result<Degraded<AnswerSet>> CompiledEvaluator::EvaluateDegraded(
    const CompiledProgram& program, const Binding& params,
    BoundedEvalStats* stats) const {
  if (program.kind != CompiledProgram::Kind::kPlain) {
    return Status::InvalidArgument(
        "EvaluateDegraded requires a plain compiled program");
  }
  SI_RETURN_IF_ERROR(CheckPlainParams(program, params));
  ExecContext ctx(db_);
  ctx.set_limits(limits_);
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate_degraded", "core");
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryStart, "bounded.evaluate_degraded",
        {obs::EventArg("static_bound", program.static_bound)});
  }
  Shared sh = MakeShared(program, db_, enforce_bounds_);
  // Ops are always registered here so that a trip's snapshot can name the
  // derivation node that was executing when the limit fired.
  RegisterProgramOps(program, &ctx, &sh);
  Frontier rows;
  PlainScratch scratch;
  RunPlainProgram(sh, &ctx, params, &rows, &scratch);
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

  Degraded<AnswerSet> out;
  // Projection runs before the trip check: the output-row cap trips here,
  // and the tripping answer is withdrawn (see the interpreter's
  // EvaluateDegraded for the full rationale).
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value* row = rows.row(i);
    Tuple t;
    t.reserve(program.head_regs.size());
    for (Reg r : program.head_regs) t.push_back(row[r]);
    auto [pos, inserted] = out.value.insert(std::move(t));
    if (inserted && !ctx.ChargeOutput(1, nullptr)) {
      out.value.erase(pos);
      break;
    }
  }
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

std::vector<Result<AnswerSet>> CompiledEvaluator::EvaluateBatch(
    const CompiledProgram& program, const std::vector<Binding>& batch,
    BoundedEvalStats* stats) const {
  PrebuildCompiledIndexes(*db_, program);
  std::vector<std::optional<Result<AnswerSet>>> slots(batch.size());
  std::vector<BoundedEvalStats> worker_stats(batch.size());
  const bool capture_ops = stats != nullptr && stats->capture_ops;
  par::WorkerPool::Global().ParallelFor(batch.size(), [&](size_t i) {
    worker_stats[i].capture_ops = capture_ops;
    slots[i].emplace(Evaluate(program, batch[i], &worker_stats[i]));
  });
  std::vector<Result<AnswerSet>> out;
  out.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (stats != nullptr) stats->Merge(worker_stats[i]);
    out.push_back(std::move(*slots[i]));
  }
  return out;
}

Result<AnswerSet> CompiledEvaluator::EvaluateEmbedded(
    const CompiledProgram& program, const Binding& params,
    BoundedEvalStats* stats) const {
  if (program.kind != CompiledProgram::Kind::kEmbedded) {
    return Status::InvalidArgument(
        "EvaluateEmbedded requires an embedded compiled program");
  }
  ExecContext ctx(db_);
  ctx.set_limits(limits_);  // per-evaluation resource envelope
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate_embedded", "core");
  if (span.enabled() && par::CurrentLane() >= 0) {
    span.Arg("worker", static_cast<uint64_t>(par::CurrentLane()));
  }
  const bool capture_ops =
      collect_timing_ || (stats != nullptr && stats->capture_ops);
  Result<AnswerSet> result =
      EvaluateEmbeddedImpl(program, params, &ctx, capture_ops);
  if (span.enabled()) span.Arg("fetched", ctx.base_tuples_fetched());
  if (stats != nullptr) {
    stats->static_bound = program.static_bound;
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

std::vector<Result<AnswerSet>> CompiledEvaluator::EvaluateEmbeddedBatch(
    const CompiledProgram& program, const std::vector<Binding>& batch,
    BoundedEvalStats* stats) const {
  PrebuildCompiledIndexes(*db_, program);
  std::vector<std::optional<Result<AnswerSet>>> slots(batch.size());
  std::vector<BoundedEvalStats> worker_stats(batch.size());
  const bool capture_ops = stats != nullptr && stats->capture_ops;
  par::WorkerPool::Global().ParallelFor(batch.size(), [&](size_t i) {
    worker_stats[i].capture_ops = capture_ops;
    slots[i].emplace(EvaluateEmbedded(program, batch[i], &worker_stats[i]));
  });
  std::vector<Result<AnswerSet>> out;
  out.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (stats != nullptr) stats->Merge(worker_stats[i]);
    out.push_back(std::move(*slots[i]));
  }
  return out;
}

Result<AnswerSet> CompiledEvaluator::EvaluateEmbeddedImpl(
    const CompiledProgram& program, const Binding& params, ExecContext* ctx,
    bool capture_ops) const {
  SI_RETURN_IF_ERROR(CheckEmbeddedParams(program, params));
  Shared sh = MakeShared(program, db_, enforce_bounds_);
  if (capture_ops) RegisterProgramOps(program, ctx, &sh);
  OpCounters* root_op = capture_ops ? sh.ops[0] : nullptr;

  const size_t w = program.num_regs;
  std::vector<Value> rows(w, Value());
  for (const auto& [v, r] : program.param_regs) rows[r] = params.at(v);
  size_t n_rows = 1;

  EmbScratch scratch;
  for (size_t ai = 0; ai < program.atoms.size(); ++ai) {
    const AtomCode& ac = program.atoms[ai];
    OpCounters* op = capture_ops ? sh.ops[ac.op_idx] : nullptr;
#if SCALEIN_OBS_ENABLE_TIMING
    const bool timed = op != nullptr && ctx->timing_enabled();
    const uint64_t atom_start = timed ? obs::MonotonicNowNs() : 0;
#endif
    // One chase step of the Proposition 4.5 plan: extend every frontier
    // row through this atom's access statements.
    if (Status s = SCALEIN_FAILPOINT("chase_step"); !s.ok()) return s;
    obs::ScopedSpan chase_span(ctx->tracer(), "bounded.chase_step", "core");
    if (chase_span.enabled()) {
      chase_span.Arg("relation", program.relations[ac.relation]);
      chase_span.Arg("step", static_cast<uint64_t>(ai));
      chase_span.Arg("frontier", static_cast<uint64_t>(n_rows));
    }
    if (obs::FlightRecorderEnabled()) {
      obs::RecordFlightEvent(
          obs::EventKind::kChaseStep, program.relations[ac.relation],
          {obs::EventArg("step", static_cast<uint64_t>(ai)),
           obs::EventArg("frontier", static_cast<uint64_t>(n_rows))});
    }
    const Relation* rel = sh.rels[ac.relation];
    std::vector<Value> next;
    // Unknown relation: the frontier dies here, matching a lookup miss.
    if (rel != nullptr) {
      for (size_t i = 0; i < n_rows; ++i) {
        SI_RETURN_IF_ERROR(ProcessRow(sh, ac, rel, rows.data() + i * w, ctx,
                                      op, &next, w, &scratch));
      }
    }
    const size_t next_n = w == 0 ? 0 : next.size() / w;
    if (op != nullptr) {
      op->rows_out += next_n;
#if SCALEIN_OBS_ENABLE_TIMING
      if (timed) {
        op->next_ns += obs::MonotonicNowNs() - atom_start;
        ++op->next_calls;
      }
#endif
    }
    rows = std::move(next);
    n_rows = next_n;
  }

  // Project to the open head positions; distinct answers charge the
  // output-row cap.
  AnswerSet answers;
  for (size_t i = 0; i < n_rows; ++i) {
    const Value* row = rows.data() + i * w;
    Tuple t;
    t.reserve(program.embed_head_regs.size());
    for (Reg r : program.embed_head_regs) t.push_back(row[r]);
    auto [pos, inserted] = answers.insert(std::move(t));
    if (inserted && !ctx->ChargeOutput(1, root_op)) {
      answers.erase(pos);
      break;
    }
  }
  SI_RETURN_IF_ERROR(ctx->status());
  if (root_op != nullptr) root_op->rows_out += answers.size();
  return answers;
}

Result<Degraded<AnswerSet>> CompiledEvaluator::EvaluateEmbeddedDegraded(
    const CompiledProgram& program, const Binding& params,
    BoundedEvalStats* stats, bool fallback_to_approx) const {
  if (program.kind != CompiledProgram::Kind::kEmbedded) {
    return Status::InvalidArgument(
        "EvaluateEmbeddedDegraded requires an embedded compiled program");
  }
  ExecContext ctx(db_);
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
      EvaluateEmbeddedImpl(program, params, &ctx, /*capture_ops=*/true);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("tripped", ctx.trip().tripped());
  }
  if (stats != nullptr) {
    stats->static_bound = program.static_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryFinish, "bounded.evaluate_embedded_degraded",
        {obs::EventArg("fetched", ctx.base_tuples_fetched()),
         obs::EventArg("tripped", ctx.trip().tripped())});
  }

  Degraded<AnswerSet> out;
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
  if (fallback_to_approx && limits_.fetch_budget > 0) {
    // PIQL-style success tolerance, identical to the interpreter: re-answer
    // the parameter-substituted CQ with the greedy budgeted engine.
    const Cq& q = program.embed_query;
    std::map<Variable, Term> subst;
    for (const auto& [v, val] : params) subst.emplace(v, Term::Const(val));
    ApproxResult approx =
        ApproximateCqAnswers(q.Substitute(subst), *db_, limits_.fetch_budget);
    std::vector<size_t> keep;
    for (size_t i = 0; i < q.head().size(); ++i) {
      const Term& h = q.head()[i];
      if (h.is_const() || program.params.count(h.var())) continue;
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

void PrebuildCompiledIndexes(const Database& db,
                             const CompiledProgram& program) {
  if (program.kind == CompiledProgram::Kind::kPlain) {
    for (const PrebuildIndex& pb : program.prebuilds) {
      const Relation* rel = db.FindRelation(program.relations[pb.relation]);
      if (rel == nullptr || pb.positions.empty()) continue;
      rel->EnsureIndex(pb.positions);
    }
    return;
  }
  for (const AtomCode& ac : program.atoms) {
    const Relation* rel = db.FindRelation(program.relations[ac.relation]);
    if (rel == nullptr) continue;
    for (const ChaseStepCode& step : ac.steps) {
      rel->EnsureProjectionIndex(step.key_positions, step.value_positions);
    }
    if (ac.needs_verification) rel->EnsureIndex(ac.verify_positions);
  }
}

}  // namespace scalein::exec
