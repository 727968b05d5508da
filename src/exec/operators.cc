#include "exec/operators.h"

#include <algorithm>
#include <utility>

#include "util/failpoint.h"

namespace scalein::exec {
namespace {

size_t PositionOf(const std::vector<std::string>& attrs,
                  const std::string& name) {
  auto it = std::find(attrs.begin(), attrs.end(), name);
  SI_CHECK_MSG(it != attrs.end(), name.c_str());
  return static_cast<size_t>(it - attrs.begin());
}

}  // namespace

void Operator::RecordOpOpen() {
  next_since_event_ = 0;
  fetched_at_event_ = op_->tuples_fetched;
  close_recorded_ = false;
  obs::RecordFlightNums(
      obs::EventKind::kOpOpen, op_->label.c_str(),
      {{"op", static_cast<double>(op_->id)}});
}

void Operator::RecordOpBatch() {
  const uint64_t delta = op_->tuples_fetched - fetched_at_event_;
  next_since_event_ = 0;
  fetched_at_event_ = op_->tuples_fetched;
  obs::RecordFlightNums(
      obs::EventKind::kOpNext, op_->label.c_str(),
      {{"op", static_cast<double>(op_->id)},
       {"rows", static_cast<double>(op_->rows_out)},
       {"fetched_delta", static_cast<double>(delta)}});
}

void Operator::RecordOpClose() {
  close_recorded_ = true;
  obs::RecordFlightNums(
      obs::EventKind::kOpClose, op_->label.c_str(),
      {{"op", static_cast<double>(op_->id)},
       {"rows", static_cast<double>(op_->rows_out)},
       {"fetched", static_cast<double>(op_->tuples_fetched)},
       {"lookups", static_cast<double>(op_->index_lookups)}});
}

void Operator::TimedOpen() {
  const uint64_t start = obs::MonotonicNowNs();
  DoOpen();
  op_->open_ns += obs::MonotonicNowNs() - start;
}

bool Operator::TimedNext(Tuple* out) {
  const uint64_t start = obs::MonotonicNowNs();
  bool produced = DoNext(out);
  op_->next_ns += obs::MonotonicNowNs() - start;
  ++op_->next_calls;
  if (produced) ++op_->rows_out;
  return produced;
}

CompiledCondition CompiledCondition::Compile(
    const SelectionCondition& cond, const std::vector<std::string>& attrs) {
  CompiledCondition out;
  out.atoms.reserve(cond.conjuncts.size());
  for (const SelectionAtom& c : cond.conjuncts) {
    CompiledAtom a;
    a.lhs = PositionOf(attrs, c.lhs);
    if (c.rhs_kind == SelectionAtom::Rhs::kAttribute) {
      a.rhs_is_attr = true;
      a.rhs_pos = PositionOf(attrs, c.rhs_attr);
    } else {
      a.rhs_const = c.rhs_const;
    }
    a.negated = c.negated;
    out.atoms.push_back(std::move(a));
  }
  return out;
}

ScanOp::ScanOp(ExecContext* ctx, std::string name, const Relation* rel)
    : Operator(ctx, "scan(" + name + ")"),
      rel_(rel),
      slot_(ctx->RelationSlot(name)) {}

bool ScanOp::DoNext(Tuple* out) {
  if (!ctx_->ok() || rel_ == nullptr || next_row_ >= rel_->size()) return false;
  if (Status s = SCALEIN_FAILPOINT("scan_next"); !s.ok()) {
    ctx_->SetError(std::move(s));
    return false;
  }
  TupleView row = rel_->TupleAt(next_row_++);
  ctx_->ChargeRows(slot_, 1, op_);
  // The fetch that trips the budget must not be emitted: stop right here.
  if (!ctx_->ok()) return false;
  out->assign(row.begin(), row.end());
  return true;
}

IndexLookupOp::IndexLookupOp(ExecContext* ctx, std::string name,
                             const Relation* rel,
                             std::vector<size_t> positions, Tuple key)
    : Operator(ctx, "idx-lookup(" + name + ")"),
      rel_(rel),
      name_(std::move(name)),
      positions_(std::move(positions)),
      key_(std::move(key)),
      path_(AccessPath::Index(name_, rel_, positions_)) {}

void IndexLookupOp::DoOpen() {
  rows_ = rel_ == nullptr ? nullptr : ctx_->Probe(&path_, key_, op_);
  next_ = 0;
}

bool IndexLookupOp::DoNext(Tuple* out) {
  if (!ctx_->ok() || rows_ == nullptr || next_ >= rows_->size()) return false;
  TupleView row = rel_->TupleAt((*rows_)[next_++]);
  out->assign(row.begin(), row.end());
  return true;
}

ProjectionLookupOp::ProjectionLookupOp(ExecContext* ctx, std::string name,
                                       const Relation* rel,
                                       std::vector<size_t> key_positions,
                                       std::vector<size_t> value_positions,
                                       Tuple key, std::vector<size_t> remap)
    : Operator(ctx, "proj-lookup(" + name + ")"),
      rel_(rel),
      name_(std::move(name)),
      key_positions_(std::move(key_positions)),
      value_positions_(std::move(value_positions)),
      key_(std::move(key)),
      remap_(std::move(remap)),
      path_(AccessPath::Projection(name_, rel_, key_positions_,
                                   value_positions_)) {}

void ProjectionLookupOp::DoOpen() {
  group_ = rel_ == nullptr ? nullptr
                           : ctx_->ProbeProjection(&path_, key_, op_);
  if (group_ != nullptr) next_ = group_->begin();
}

bool ProjectionLookupOp::DoNext(Tuple* out) {
  if (!ctx_->ok() || group_ == nullptr || next_ == group_->end()) return false;
  const Tuple& proj = (next_++)->first;
  out->clear();
  out->reserve(remap_.size());
  for (size_t i : remap_) out->push_back(proj[i]);
  return true;
}

bool FilterOp::DoNext(Tuple* out) {
  while (child_->Next(out)) {
    if (condition_.Eval(*out)) return true;
  }
  return false;
}

bool ProjectOp::DoNext(Tuple* out) {
  if (!child_->Next(&scratch_)) return false;
  out->clear();
  out->reserve(positions_.size());
  for (size_t p : positions_) out->push_back(scratch_[p]);
  return true;
}

void UnionOp::DoOpen() {
  left_->Open();
  right_->Open();
  on_right_ = false;
}

bool UnionOp::DoNext(Tuple* out) {
  if (!on_right_) {
    if (left_->Next(out)) return true;
    on_right_ = true;
  }
  if (!right_->Next(&scratch_)) return false;
  out->clear();
  out->reserve(align_.size());
  for (size_t p : align_) out->push_back(scratch_[p]);
  return true;
}

void DiffOp::DoOpen() {
  right_rows_.clear();
  right_->Open();
  Tuple row;
  Tuple aligned;
  while (right_->Next(&row)) {
    aligned.clear();
    aligned.reserve(align_.size());
    for (size_t p : align_) aligned.push_back(row[p]);
    right_rows_.insert(aligned);
  }
  left_->Open();
}

bool DiffOp::DoNext(Tuple* out) {
  while (left_->Next(out)) {
    if (right_rows_.find(*out) == right_rows_.end()) return true;
  }
  return false;
}

void HashJoinOp::DoOpen() {
  table_.clear();
  right_->Open();
  Tuple row;
  while (right_->Next(&row)) {
    table_[ProjectTuple(row, r_key_)].push_back(row);
  }
  left_->Open();
  matches_ = nullptr;
  match_next_ = 0;
}

bool HashJoinOp::DoNext(Tuple* out) {
  for (;;) {
    if (matches_ != nullptr && match_next_ < matches_->size()) {
      const Tuple& rrow = (*matches_)[match_next_++];
      *out = left_row_;
      for (size_t rp : r_extra_) out->push_back(rrow[rp]);
      return true;
    }
    if (!left_->Next(&left_row_)) return false;
    auto it = table_.find(ProjectTuple(left_row_, l_key_));
    matches_ = it == table_.end() ? nullptr : &it->second;
    match_next_ = 0;
  }
}

IndexJoinOp::IndexJoinOp(ExecContext* ctx, std::string name,
                         const Relation* rel, std::unique_ptr<Operator> left,
                         std::vector<size_t> index_positions,
                         std::vector<KeySource> key_sources,
                         CompiledCondition residual,
                         std::vector<size_t> emit_positions)
    : Operator(ctx, "idx-join(" + name + ")"),
      name_(std::move(name)),
      rel_(rel),
      left_(std::move(left)),
      index_positions_(std::move(index_positions)),
      key_sources_(std::move(key_sources)),
      residual_(std::move(residual)),
      emit_positions_(std::move(emit_positions)),
      slot_(ctx->RelationSlot(name_)),
      path_(AccessPath::Index(name_, rel_, index_positions_)) {
  Adopt(*left_);
  key_.resize(key_sources_.size());
}

void IndexJoinOp::DoOpen() {
  left_->Open();
  left_valid_ = false;
  matches_ = nullptr;
  match_next_ = 0;
  scan_next_ = 0;
}

bool IndexJoinOp::AdvanceLeft() {
  if (!left_->Next(&left_row_)) return false;
  if (index_positions_.empty()) {
    scan_next_ = 0;
  } else {
    for (size_t i = 0; i < key_sources_.size(); ++i) {
      const KeySource& s = key_sources_[i];
      key_[i] = s.from_left ? left_row_[s.left_col] : s.constant;
    }
    matches_ = ctx_->Probe(&path_, key_, op_);
    match_next_ = 0;
  }
  return true;
}

bool IndexJoinOp::DoNext(Tuple* out) {
  if (rel_ == nullptr) return false;
  for (;;) {
    if (!ctx_->ok()) return false;
    if (!left_valid_) {
      if (!AdvanceLeft()) return false;
      left_valid_ = true;
    }
    if (index_positions_.empty()) {
      // Probe-less atom: a metered nested-loop pass over the base relation
      // per left row (the (R, ∅, N, T) access unit).
      while (scan_next_ < rel_->size()) {
        TupleView row = rel_->TupleAt(scan_next_++);
        ctx_->ChargeRows(slot_, 1, op_);
        if (!ctx_->ok()) return false;
        if (!residual_.Eval(row)) continue;
        *out = left_row_;
        for (size_t p : emit_positions_) out->push_back(row[p]);
        return true;
      }
    } else {
      while (matches_ != nullptr && match_next_ < matches_->size()) {
        TupleView row = rel_->TupleAt((*matches_)[match_next_++]);
        if (!residual_.Eval(row)) continue;
        *out = left_row_;
        for (size_t p : emit_positions_) out->push_back(row[p]);
        return true;
      }
    }
    left_valid_ = false;
  }
}

}  // namespace scalein::exec
