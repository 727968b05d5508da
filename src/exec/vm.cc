#include "exec/vm.h"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "relational/relation.h"
#include "util/failpoint.h"

namespace scalein::exec {
namespace {

/// Per-evaluation view of a program: relation pointers resolved once, the
/// op table registered once (table index == prototype index), and one
/// access path per access site, bound at its first probe. A plain program
/// has one path per node (an atom leaf's); an embedded one, per atom, one
/// per chase step and then its verification path.
struct Shared {
  const CompiledProgram& p;
  bool enforce = false;
  std::vector<const Relation*> rels;
  std::vector<OpCounters*> ops;  ///< empty when ops are not captured
  std::vector<AccessPath> paths;

  OpCounters* op(int32_t idx) const {
    return idx >= 0 && !ops.empty() ? ops[idx] : nullptr;
  }
};

/// Resolves the program's relations, names its access paths and, with
/// `register_ops`, registers its op prototypes into `ctx` in table order
/// (derivation pre-order).
Shared MakeShared(const CompiledProgram& p, const Database& db, bool enforce,
                  bool register_ops, ExecContext* ctx) {
  Shared sh{p, enforce, {}, {}, {}};
  sh.rels.reserve(p.relations.size());
  for (const std::string& name : p.relations) {
    sh.rels.push_back(db.FindRelation(name));
  }
  if (p.kind == CompiledProgram::Kind::kPlain) {
    sh.paths.resize(p.nodes.size());
    for (size_t n = 0; n < p.nodes.size(); ++n) {
      const PlainNode& node = p.nodes[n];
      if (node.rule != ControlRule::kAtom) continue;
      const uint32_t r = node.leaf.relation;
      sh.paths[n] =
          AccessPath::Index(p.relations[r], sh.rels[r], node.leaf.key_positions);
    }
  } else {
    for (const AtomCode& ac : p.atoms) {
      const std::string& name = p.relations[ac.relation];
      const Relation* rel = sh.rels[ac.relation];
      for (const ChaseStepCode& step : ac.steps) {
        sh.paths.push_back(AccessPath::Projection(
            name, rel, step.key_positions, step.value_positions));
      }
      sh.paths.push_back(AccessPath::Index(name, rel, ac.verify_positions));
    }
  }
  if (register_ops) {
    sh.ops.reserve(p.ops.size());
    for (const OpProto& proto : p.ops) {
      const int32_t parent = proto.parent < 0 ? -1 : sh.ops[proto.parent]->id;
      OpCounters* op = ctx->NewOp(proto.label, parent);
      op->static_bound = proto.static_bound;
      sh.ops.push_back(op);
    }
  }
  return sh;
}

/// Scratch buffers reused across one plain evaluation's leaf visits (a
/// leaf visit never nests another visit).
struct LeafScratch {
  std::vector<Value> ext;     ///< distinct extensions, ext_width-wide chunks
  std::vector<Value> locals;  ///< one visit's local extension slots
  std::vector<Value> tmp;
  std::vector<uint32_t> idx;
  Tuple key;
};

/// Runs an atom's per-position unify steps against a fetched row, with one
/// indirect branch (computed goto) per position.
bool UnifyLocal(const std::vector<UnifyStep>& steps,
                const std::vector<Value>& consts, const Value* row,
                TupleView r, Value* locals) {
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
}

/// Sorts `buf`'s w-wide chunks lexicographically and drops duplicates: the
/// leaf's extension set in binding-set order (locals are laid out in
/// variable-id order). Returns the distinct count, with `buf` rebuilt in
/// sorted order.
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

/// Evaluates an equality condition over registers and local slots.
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

/// Sorts the `width`-wide rows of `rows` on `layout` and appends the
/// distinct ones to `out`: a node's result set in binding-set order. Rows
/// equal on the layout agree on every register read downstream (the others
/// belong to variables the node's scope already projected away), so which
/// duplicate survives is unobservable. With `sorted`, `rows` is already
/// sorted on `layout` and only adjacent duplicates are dropped. Returns the
/// distinct count.
uint64_t UniqueRows(const std::vector<Value>& rows, size_t width,
                    const std::vector<Reg>& layout, bool sorted,
                    std::vector<uint32_t>* idx, std::vector<Value>* out) {
  const size_t n = width == 0 ? 0 : rows.size() / width;
  if (n <= 1) {
    out->insert(out->end(), rows.begin(), rows.end());
    return n;
  }
  const Value* base = rows.data();
  if (!sorted) {
    idx->resize(n);
    for (size_t i = 0; i < n; ++i) (*idx)[i] = static_cast<uint32_t>(i);
    std::sort(idx->begin(), idx->end(), [&](uint32_t a, uint32_t b) {
      const Value* ra = base + static_cast<size_t>(a) * width;
      const Value* rb = base + static_cast<size_t>(b) * width;
      for (Reg rg : layout) {
        if (ra[rg] < rb[rg]) return true;
        if (rb[rg] < ra[rg]) return false;
      }
      return false;
    });
  }
  // Room for every row at once, growing geometrically: `out` may collect the
  // results of many visits.
  if (const size_t need = out->size() + rows.size(); need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->capacity()));
  }
  uint64_t d = 0;
  const Value* prev = nullptr;
  for (size_t i = 0; i < n; ++i) {
    const Value* src =
        base + static_cast<size_t>(sorted ? i : (*idx)[i]) * width;
    if (prev != nullptr) {
      bool eq = true;
      for (size_t j = 0; j < layout.size() && eq; ++j) {
        eq = src[layout[j]] == prev[layout[j]];
      }
      if (eq) continue;
    }
    out->insert(out->end(), src, src + width);
    prev = src;
    ++d;
  }
  return d;
}

/// One plain-program evaluation: Visit(n, row) evaluates node n under the
/// environment held in `row` and appends the node's distinct result rows
/// (row plus the node's new bindings) to `out`.
class PlainVm {
 public:
  PlainVm(Shared& sh, ExecContext* ctx)
      : sh_(sh), p_(sh.p), ctx_(ctx), w_(sh.p.num_regs),
        scratch_(sh.p.nodes.size()) {}

  /// One node visit: the result count charges the node's op; with timing
  /// enabled the visit's inclusive wall time does too.
  uint64_t Visit(uint32_t n, const Value* row, std::vector<Value>* out) {
    const PlainNode& node = p_.nodes[n];
    OpCounters* op = sh_.op(node.op_idx);
    if (op != nullptr && ctx_->timing_enabled()) {
      const uint64_t start = obs::MonotonicNowNs();
      const uint64_t d = VisitImpl(n, node, row, op, out);
      op->next_ns += obs::MonotonicNowNs() - start;
      ++op->next_calls;
      op->rows_out += d;
      return d;
    }
    const uint64_t d = VisitImpl(n, node, row, op, out);
    if (op != nullptr) op->rows_out += d;
    return d;
  }

 private:
  /// Buffers owned by one node, reused across its visits (the derivation is
  /// a tree, so a node never re-enters itself).
  struct NodeScratch {
    std::vector<Value> rows;  ///< partials / collected child rows
    std::vector<Value> next;  ///< the next conjunct's partials
    std::vector<Value> probe;  ///< discarded rows of negations/conclusions
  };

  uint64_t VisitImpl(uint32_t n, const PlainNode& node, const Value* row,
                     OpCounters* op, std::vector<Value>* out) {
    if (!ctx_->ok()) return 0;
    switch (node.rule) {
      case ControlRule::kAtom:
      case ControlRule::kCondition:
        return VisitLeaf(n, node, row, op, out);
      case ControlRule::kAnd:
        return VisitAnd(n, node, row, out);
      case ControlRule::kOr:
        return VisitOr(n, node, row, out);
      case ControlRule::kExists:
        return VisitExists(n, node, row, out);
      case ControlRule::kForall:
        return VisitForall(n, node, row, out);
    }
    return 0;
  }

  /// An atom probe or a condition: appends one row per distinct extension.
  uint64_t VisitLeaf(uint32_t n, const PlainNode& node, const Value* row,
                     OpCounters* op, std::vector<Value>* out) {
    const LeafCode& leaf = node.leaf;
    const uint64_t d = node.rule == ControlRule::kCondition
                           ? LeafCondition(leaf, row)
                           : LeafAtom(n, leaf, row, op);
    const size_t ew = leaf.ext_width;
    if (ew == 0) {
      if (d > 0) out->insert(out->end(), row, row + w_);
      return d;
    }
    for (uint64_t k = 0; k < d; ++k) {
      const size_t base = out->size();
      out->insert(out->end(), row, row + w_);
      const Value* chunk = leaf_.ext.data() + k * ew;
      for (size_t j = 0; j < ew; ++j) {
        (*out)[base + leaf.ext_regs[j]] = chunk[j];
      }
    }
    return d;
  }

  uint64_t LeafCondition(const LeafCode& leaf, const Value* row) {
    const size_t w = leaf.ext_width;
    leaf_.ext.clear();
    leaf_.locals.resize(w);
    for (size_t i = 0; i < w; ++i) {
      const Slot& src = leaf.cond_sources[i];
      leaf_.locals[i] =
          src.kind == Slot::Kind::kConst ? p_.consts[src.index] : row[src.reg];
    }
    if (!EvalCondFormula(leaf.cond, leaf, row, leaf_.locals.data())) return 0;
    leaf_.ext.insert(leaf_.ext.end(), leaf_.locals.begin(), leaf_.locals.end());
    return 1;
  }

  /// A PROBE leaf's key under the environment in `row`, into `key`.
  void BuildKey(const LeafCode& leaf, const Value* row, Tuple* key) const {
    key->clear();
    for (const Slot& slot : leaf.key) {
      key->push_back(slot.kind == Slot::Kind::kConst ? p_.consts[slot.index]
                                                     : row[slot.reg]);
    }
  }

  /// One metered probe (or full scan) through the leaf's access path; leaves
  /// the distinct extensions, sorted, in leaf_.ext and returns their count.
  uint64_t LeafAtom(uint32_t n, const LeafCode& leaf, const Value* row,
                    OpCounters* op) {
    LeafScratch* s = &leaf_;
    s->ext.clear();
    const size_t w = leaf.ext_width;
    const Relation* rel = sh_.rels[leaf.relation];
    if (rel == nullptr) return 0;
    const std::string& name = p_.relations[leaf.relation];
    AccessPath* path = &sh_.paths[n];
    s->locals.resize(w);
    uint64_t matched = 0;
    auto consume = [&](TupleView r) {
      if (!UnifyLocal(leaf.unify, p_.consts, row, r, s->locals.data())) return;
      ++matched;
      if (w > 0) {
        s->ext.insert(s->ext.end(), s->locals.begin(), s->locals.end());
      }
    };
    if (leaf.full_scan) {
      // (R, ∅, N, T): the whole relation is the access unit.
      ctx_->ChargeWholeRelation(path, op);
      if (!ctx_->ok()) return 0;
      if (sh_.enforce && rel->size() > leaf.access->max_tuples) {
        ctx_->SetError(Status::ResourceExhausted("relation " + name +
                                                 " exceeds declared N of " +
                                                 leaf.access->ToString()));
        return 0;
      }
      for (size_t i = 0; i < rel->size(); ++i) consume(rel->TupleAt(i));
    } else {
      BuildKey(leaf, row, &s->key);
      const std::vector<uint32_t>* rows = ctx_->Probe(path, s->key, op);
      if (!ctx_->ok() || rows == nullptr) return 0;
      if (sh_.enforce && rows->size() > leaf.access->max_tuples) {
        ctx_->SetError(Status::ResourceExhausted("σ on " + name +
                                                 " exceeds declared N of " +
                                                 leaf.access->ToString()));
        return 0;
      }
      for (uint32_t r : *rows) consume(rel->TupleAt(r));
    }
    if (w == 0) return matched > 0 ? 1 : 0;
    return SortUniqueChunks(&s->ext, w, &s->idx, &s->tmp);
  }

  /// Issues the loads of PROBE leaf `child`'s probes for the partial rows
  /// [begin, end) of `rows`, one pass per dependent load: table slot, entry
  /// key and row-id vector, row ids, first row. A hint only: it builds no
  /// index, binds no access path and charges nothing, and it is skipped when
  /// the index does not exist yet.
  void PrefetchProbes(uint32_t child, const std::vector<Value>& rows,
                      size_t begin, size_t end) {
    const PlainNode& node = p_.nodes[child];
    if (node.rule != ControlRule::kAtom || node.leaf.full_scan) return;
    const Relation* rel = sh_.rels[node.leaf.relation];
    if (rel == nullptr) return;
    const HashIndex* index = sh_.paths[child].index;
    if (index == nullptr) index = rel->FindIndex(node.leaf.key_positions);
    if (index == nullptr) return;
    std::vector<uint32_t>& tags = prefetch_;
    tags.clear();
    for (size_t i = begin; i < end; ++i) {
      BuildKey(node.leaf, rows.data() + i * w_, &leaf_.key);
      tags.push_back(HashIndex::KeyTag(leaf_.key));
      index->PrefetchSlot(tags.back());
    }
    for (uint32_t& t : tags) t = index->PrefetchEntry(t);  // tag -> entry
    ids_.clear();
    for (uint32_t e : tags) {
      if (e != IdTable::kNone) ids_.push_back(index->PrefetchRowIds(e));
    }
    for (const uint32_t* ids : ids_) {
      PrefetchForRead(rel->TupleAt(ids[0]).data());
    }
  }

  /// Conjunction: positives extend every partial in conjunct order, then
  /// each safe negation must come back empty for the partial to survive. A
  /// PROBE conjunct's probes are prefetched a batch of partials ahead of
  /// their visits, which still run, and charge, one at a time in order.
  uint64_t VisitAnd(uint32_t n, const PlainNode& node, const Value* row,
                    std::vector<Value>* out) {
    NodeScratch& s = scratch_[n];
    s.rows.assign(row, row + w_);
    for (uint32_t k = 0; k < node.n_positive; ++k) {
      s.next.clear();
      const size_t m = s.rows.size() / w_;
      for (size_t i = 0; i < m; ++i) {
        if (m >= 2 && i % kPrefetchBatch == 0) {
          PrefetchProbes(node.children[k], s.rows, i,
                         std::min(m, i + kPrefetchBatch));
        }
        Visit(node.children[k], s.rows.data() + i * w_, &s.next);
        if (!ctx_->ok()) return 0;
      }
      s.rows.swap(s.next);
    }
    if (node.children.size() > node.n_positive) {
      s.next.clear();
      const size_t m = s.rows.size() / w_;
      for (size_t i = 0; i < m; ++i) {
        const Value* partial = s.rows.data() + i * w_;
        bool keep = true;
        for (size_t k = node.n_positive; k < node.children.size(); ++k) {
          s.probe.clear();
          if (Visit(node.children[k], partial, &s.probe) > 0) {
            keep = false;
            break;
          }
          if (!ctx_->ok()) return 0;
        }
        if (keep) s.next.insert(s.next.end(), partial, partial + w_);
      }
      s.rows.swap(s.next);
    }
    return UniqueRows(s.rows, w_, node.layout, /*sorted=*/false, &idx_, out);
  }

  /// Disjunction: the union of every operand's rows.
  uint64_t VisitOr(uint32_t n, const PlainNode& node, const Value* row,
                   std::vector<Value>* out) {
    NodeScratch& s = scratch_[n];
    s.rows.clear();
    for (uint32_t child : node.children) {
      Visit(child, row, &s.rows);
      if (!ctx_->ok()) return 0;
    }
    return UniqueRows(s.rows, w_, node.layout, /*sorted=*/false, &idx_, out);
  }

  /// ∃: the body's rows, deduplicated once the quantified registers drop
  /// out of the layout. The body's rows come sorted on its layout, so when
  /// this layout is a prefix of it they are sorted on this one too.
  uint64_t VisitExists(uint32_t n, const PlainNode& node, const Value* row,
                       std::vector<Value>* out) {
    NodeScratch& s = scratch_[n];
    s.rows.clear();
    Visit(node.children[0], row, &s.rows);
    return UniqueRows(s.rows, w_, node.layout, node.dedup_adjacent, &idx_,
                      out);
  }

  /// ∀(Q → Q'): one row iff the conclusion holds for every premise row.
  uint64_t VisitForall(uint32_t n, const PlainNode& node, const Value* row,
                       std::vector<Value>* out) {
    NodeScratch& s = scratch_[n];
    s.rows.clear();
    Visit(node.children[0], row, &s.rows);
    if (!ctx_->ok()) return 0;
    const size_t m = s.rows.size() / w_;
    for (size_t i = 0; i < m; ++i) {
      s.probe.clear();
      if (Visit(node.children[1], s.rows.data() + i * w_, &s.probe) == 0) {
        return 0;
      }
      if (!ctx_->ok()) return 0;
    }
    out->insert(out->end(), row, row + w_);
    return 1;
  }

  /// Partial rows whose probes one prefetch pass covers: enough to overlap
  /// many loads, few enough that their lines stay cached until the visits.
  static constexpr size_t kPrefetchBatch = 128;

  Shared& sh_;
  const CompiledProgram& p_;
  ExecContext* ctx_;
  const size_t w_;
  std::vector<NodeScratch> scratch_;
  LeafScratch leaf_;
  std::vector<uint32_t> idx_;
  std::vector<uint32_t> prefetch_;    ///< one batch's tags, then entries
  std::vector<const uint32_t*> ids_;  ///< one batch's row-id arrays
};

/// Scratch of the embedded chase: flat arity-wide candidate buffers.
struct EmbScratch {
  std::vector<Value> cand;
  std::vector<Value> ext;
  Tuple key;
};

/// One frontier row through one compiled atom's chase: seed, chase steps,
/// optional verification, then unification into a copy of the row. The
/// atom's access paths are `paths[0, steps)` for its chase steps and
/// `paths[steps]` for its verification. A failure fails `ctx`.
void ProcessRow(const Shared& sh, const AtomCode& ac, const Relation* rel,
                AccessPath* paths, const Value* row, ExecContext* ctx,
                OpCounters* aop, std::vector<Value>* out, size_t w,
                EmbScratch* s) {
  const CompiledProgram& p = sh.p;
  const size_t arity = ac.arity;
  // Seed partial tuple from constants and bound registers.
  s->cand.assign(arity, Value());
  for (size_t pos = 0; pos < arity; ++pos) {
    const Slot& slot = ac.seed[pos];
    if (slot.kind == Slot::Kind::kConst) {
      s->cand[pos] = p.consts[slot.index];
    } else if (slot.kind == Slot::Kind::kReg) {
      s->cand[pos] = row[slot.reg];
    }
  }
  for (size_t si = 0; si < ac.steps.size(); ++si) {
    const ChaseStepCode& step = ac.steps[si];
    s->ext.clear();
    const size_t m = s->cand.size() / arity;
    for (size_t ci = 0; ci < m; ++ci) {
      const Value* cand = s->cand.data() + ci * arity;
      s->key.clear();
      for (size_t pos : step.key_layout) s->key.push_back(cand[pos]);
      const ProjectionIndex::Group* projections =
          ctx->ProbeProjection(&paths[si], s->key, aop);
      if (!ctx->ok()) return;
      if (projections == nullptr) continue;
      if (sh.enforce && projections->size() > step.statement->max_tuples) {
        ctx->SetError(Status::ResourceExhausted(
            "embedded access exceeds declared N of " +
            step.statement->ToString()));
        return;
      }
      for (const auto& entry : *projections) {
        const Tuple& proj = entry.first;
        bool ok = true;
        for (const ChaseColumn& c : step.checks) {
          if (!(cand[c.position] == proj[c.column])) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        const size_t base = s->ext.size();
        s->ext.insert(s->ext.end(), cand, cand + arity);
        for (const ChaseColumn& c : step.binds) {
          s->ext[base + c.position] = proj[c.column];
        }
      }
    }
    s->cand.swap(s->ext);
  }
  // All positions are now bound; verify if required, then unify.
  AccessPath* verify = &paths[ac.steps.size()];
  const size_t m = s->cand.size() / arity;
  for (size_t ci = 0; ci < m; ++ci) {
    const Value* cand = s->cand.data() + ci * arity;
    if (ac.needs_verification) {
      s->key.clear();
      for (size_t pos : ac.verify_positions) s->key.push_back(cand[pos]);
      const std::vector<uint32_t>* row_ids = ctx->Probe(verify, s->key, aop);
      if (!ctx->ok()) return;
      bool found = false;
      if (row_ids != nullptr) {
        if (sh.enforce && row_ids->size() > ac.verify_statement->max_tuples) {
          ctx->SetError(Status::ResourceExhausted(
              "verification access exceeds declared N of " +
              ac.verify_statement->ToString()));
          return;
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
    // the output row so same-atom kBindReg bindings are visible to later
    // repeated positions.
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
}

/// The Proposition 4.5 chase: extends the frontier in `rows` (the seed row
/// on entry) through every compiled atom in plan order. A failure fails
/// `ctx` and leaves the frontier incomplete.
void Chase(Shared& sh, ExecContext* ctx, std::vector<Value>* rows) {
  const CompiledProgram& program = sh.p;
  const size_t w = program.num_regs;
  size_t n_rows = 1;
  EmbScratch scratch;
  AccessPath* paths = sh.paths.data();
  for (size_t ai = 0; ai < program.atoms.size(); ++ai) {
    const AtomCode& ac = program.atoms[ai];
    OpCounters* op = sh.op(ac.op_idx);
    const bool timed = op != nullptr && ctx->timing_enabled();
    const uint64_t atom_start = timed ? obs::MonotonicNowNs() : 0;
    // One chase step of the Proposition 4.5 plan: extend every frontier
    // row through this atom's access statements.
    if (Status s = SCALEIN_FAILPOINT("chase_step"); !s.ok()) {
      ctx->SetError(std::move(s));
      return;
    }
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
        ProcessRow(sh, ac, rel, paths, rows->data() + i * w, ctx, op, &next,
                   w, &scratch);
        if (!ctx->ok()) return;
      }
    }
    paths += ac.steps.size() + 1;
    const size_t next_n = next.size() / w;
    if (op != nullptr) {
      op->rows_out += next_n;
      if (timed) {
        op->next_ns += obs::MonotonicNowNs() - atom_start;
        ++op->next_calls;
      }
    }
    *rows = std::move(next);
    n_rows = next_n;
  }
}

/// Projects `n` rows of `w` registers onto the open head registers. Each
/// distinct answer charges the output-row cap (to `op`); the tripping answer
/// is withdrawn, so exactly `cap` answers survive. Each answer is inserted
/// with the end as its hint: when the head is the root's layout the rows
/// arrive in AnswerSet order and that costs one comparison; otherwise the
/// hint is wrong and costs one comparison before the usual search.
void ProjectHead(const CompiledProgram& p, const Value* rows, size_t n,
                 size_t w, ExecContext* ctx, OpCounters* op,
                 AnswerSet* answers) {
  for (size_t i = 0; i < n; ++i) {
    const Value* row = rows + i * w;
    Tuple t;
    t.reserve(p.head_regs.size());
    for (Reg r : p.head_regs) t.push_back(row[r]);
    const size_t before = answers->size();
    const auto pos = answers->emplace_hint(answers->end(), std::move(t));
    if (answers->size() != before && !ctx->ChargeOutput(1, op)) {
      answers->erase(pos);
      break;
    }
  }
}

}  // namespace

Status CheckProgramParams(const CompiledProgram& program,
                          const Binding& params) {
  if (program.kind == CompiledProgram::Kind::kEmbedded) {
    for (const Variable& v : program.params) {
      if (!params.count(v)) {
        return Status::InvalidArgument("missing value for parameter '" +
                                       v.name() + "'");
      }
    }
  }
  const VarSet vars = BoundVariables(params);
  if (vars != program.params) {
    return Status::InvalidArgument(
        "compiled program was built for parameters " +
        VarSetToString(program.params) + ", got " + VarSetToString(vars));
  }
  return Status::OK();
}

void Run(const CompiledProgram& program, const Database& db,
         bool enforce_bounds, const Binding& params, bool register_ops,
         ExecContext* ctx, AnswerSet* answers) {
  Shared sh = MakeShared(program, db, enforce_bounds, register_ops, ctx);
  const size_t w = program.num_regs;
  std::vector<Value> seed(w, Value());
  for (const auto& [v, r] : program.param_regs) seed[r] = params.at(v);
  if (program.kind == CompiledProgram::Kind::kPlain) {
    // The root's rows survived the whole derivation, so they are sound
    // answers even when the walk was cut short.
    std::vector<Value> rows;
    PlainVm(sh, ctx).Visit(0, seed.data(), &rows);
    ProjectHead(program, rows.data(), w == 0 ? 0 : rows.size() / w, w, ctx,
                /*op=*/nullptr, answers);
    return;
  }
  // A chase yields answers only when it completes: a cut-short frontier
  // holds unverified partial matches.
  OpCounters* root_op = sh.op(0);
  Chase(sh, ctx, &seed);
  if (!ctx->ok()) return;
  ProjectHead(program, seed.data(), seed.size() / w, w, ctx, root_op, answers);
  if (!ctx->ok()) {
    answers->clear();
    return;
  }
  if (root_op != nullptr) root_op->rows_out += answers->size();
}

}  // namespace scalein::exec
