#include "relational/relation.h"

#include <algorithm>
#include <functional>

namespace scalein {

std::vector<size_t> Relation::CanonicalPositions(
    const std::vector<size_t>& positions) {
  std::vector<size_t> c = positions;
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  return c;
}

bool Relation::Insert(TupleView t) {
  SI_CHECK_EQ(t.size(), arity_);
  const uint32_t tag = RowTag(t);
  if (FindRow(t, tag) != IdTable::kNone) return false;
  SI_CHECK_LT(num_rows_, size_t{IdTable::kNone});
  data_.insert(data_.end(), t.begin(), t.end());
  uint32_t id = static_cast<uint32_t>(num_rows_);
  ++num_rows_;
  set_.Insert(tag, id);
  TupleView row = TupleAt(id);
  for (auto& [positions, idx] : indexes_) idx->AddRow(row, id);
  for (auto& [key, pidx] : projection_indexes_) pidx->AddRow(row);
  return true;
}

bool Relation::Remove(TupleView t) {
  SI_CHECK_EQ(t.size(), arity_);
  const uint32_t tag = RowTag(t);
  const uint32_t victim = FindRow(t, tag);
  if (victim == IdTable::kNone) return false;
  const uint32_t last = static_cast<uint32_t>(num_rows_ - 1);

  set_.Erase(tag, victim);
  const TupleView victim_row = TupleAt(victim);
  for (auto& [positions, idx] : indexes_) idx->RemoveRow(victim_row, victim);
  for (auto& [key, pidx] : projection_indexes_) pidx->RemoveRow(victim_row);

  if (victim != last) {
    const TupleView moved = TupleAt(last);
    set_.Repoint(RowTag(moved), last, victim);
    for (auto& [positions, idx] : indexes_) idx->MoveRow(moved, last, victim);
    std::copy(moved.begin(), moved.end(), data_.begin() + victim * arity_);
  }
  data_.resize(data_.size() - arity_);
  --num_rows_;
  return true;
}

bool Relation::Contains(TupleView t) const {
  SI_CHECK_EQ(t.size(), arity_);
  return FindRow(t, RowTag(t)) != IdTable::kNone;
}

namespace {

/// True when `positions` is already sorted and free of duplicates, so it
/// can key the index registry without a canonical copy.
bool IsCanonical(const std::vector<size_t>& positions) {
  return std::adjacent_find(positions.begin(), positions.end(),
                            std::greater_equal<size_t>()) == positions.end();
}

}  // namespace

const HashIndex& Relation::EnsureIndex(
    const std::vector<size_t>& positions) const {
  if (IsCanonical(positions)) {
    auto it = indexes_.find(positions);
    if (it != indexes_.end()) return *it->second;
  }
  std::vector<size_t> c = CanonicalPositions(positions);
  for (size_t p : c) SI_CHECK_LT(p, arity_);
  auto it = indexes_.find(c);
  if (it != indexes_.end()) return *it->second;
  auto idx = std::make_unique<HashIndex>(c);
  for (size_t i = 0; i < num_rows_; ++i) {
    idx->AddRow(TupleAt(i), static_cast<uint32_t>(i));
  }
  const HashIndex& ref = *idx;
  indexes_.emplace(std::move(c), std::move(idx));
  return ref;
}

const HashIndex* Relation::FindIndex(
    const std::vector<size_t>& positions) const {
  auto it = IsCanonical(positions)
                ? indexes_.find(positions)
                : indexes_.find(CanonicalPositions(positions));
  return it == indexes_.end() ? nullptr : it->second.get();
}

const ProjectionIndex& Relation::EnsureProjectionIndex(
    const std::vector<size_t>& key_positions,
    const std::vector<size_t>& value_positions) const {
  std::vector<size_t> ck = CanonicalPositions(key_positions);
  std::vector<size_t> cv = CanonicalPositions(value_positions);
  for (size_t p : ck) SI_CHECK_LT(p, arity_);
  for (size_t p : cv) SI_CHECK_LT(p, arity_);
  auto key = std::make_pair(ck, cv);
  auto it = projection_indexes_.find(key);
  if (it != projection_indexes_.end()) return *it->second;
  auto idx = std::make_unique<ProjectionIndex>(ck, cv);
  for (size_t i = 0; i < num_rows_; ++i) idx->AddRow(TupleAt(i));
  const ProjectionIndex& ref = *idx;
  projection_indexes_.emplace(std::move(key), std::move(idx));
  return ref;
}

const ProjectionIndex* Relation::FindProjectionIndex(
    const std::vector<size_t>& key_positions,
    const std::vector<size_t>& value_positions) const {
  auto it = projection_indexes_.find(std::make_pair(
      CanonicalPositions(key_positions), CanonicalPositions(value_positions)));
  return it == projection_indexes_.end() ? nullptr : it->second.get();
}

Relation Relation::Clone() const {
  Relation copy(arity_);
  copy.data_ = data_;
  copy.num_rows_ = num_rows_;
  copy.set_ = set_;
  return copy;
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out;
  out.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) out.push_back(ToTuple(TupleAt(i)));
  std::sort(out.begin(), out.end(),
            [](const Tuple& a, const Tuple& b) { return TupleLess(a, b); });
  return out;
}

bool Relation::SetEquals(const Relation& other) const {
  if (arity_ != other.arity_ || num_rows_ != other.num_rows_) return false;
  return IsSubsetOf(other);
}

bool Relation::IsSubsetOf(const Relation& other) const {
  if (arity_ != other.arity_) return false;
  for (size_t i = 0; i < num_rows_; ++i) {
    if (!other.Contains(TupleAt(i))) return false;
  }
  return true;
}

void Relation::CollectActiveDomain(std::vector<Value>* out) const {
  out->insert(out->end(), data_.begin(), data_.end());
}

std::string Relation::ToString(size_t max_rows) const {
  std::string out = "{";
  size_t shown = std::min(num_rows_, max_rows);
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) out += ", ";
    out += TupleToString(TupleAt(i));
  }
  if (shown < num_rows_) {
    out += ", ... (" + std::to_string(num_rows_ - shown) + " more)";
  }
  out += "}";
  return out;
}

}  // namespace scalein
