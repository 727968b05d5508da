#include "relational/index.h"

#include <algorithm>
#include <bit>

namespace scalein {

size_t IdTable::SlotOf(uint32_t tag, uint32_t id) const {
  SI_CHECK_GT(size_, 0u);
  for (size_t i = Home(tag);; i = (i + 1) & mask_) {
    SI_CHECK_NE(slots_[i].id, kNone);
    if (slots_[i].id == id) return i;
  }
}

void IdTable::Rehash(size_t capacity) {
  SI_CHECK_LE(capacity, size_t{1} << 32);
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  shift_ = 32 - static_cast<unsigned>(std::countr_zero(capacity));
  for (const Slot& s : old) {
    if (s.id == kNone) continue;
    size_t i = Home(s.tag);
    while (slots_[i].id != kNone) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

void IdTable::Reserve(size_t n) {
  size_t capacity = 8;
  while (capacity * 3 < n * 4) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
}

void IdTable::Insert(uint32_t tag, uint32_t id) {
  SI_CHECK_NE(id, kNone);
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    Rehash(slots_.empty() ? 8 : slots_.size() * 2);
  }
  size_t i = Home(tag);
  while (slots_[i].id != kNone) i = (i + 1) & mask_;
  slots_[i] = Slot{id, tag};
  ++size_;
}

void IdTable::Erase(uint32_t tag, uint32_t id) {
  size_t hole = SlotOf(tag, id);
  // Backward shift: pull each later slot of the run into the hole unless
  // its home lies strictly between the hole and where it sits.
  for (size_t j = (hole + 1) & mask_; slots_[j].id != kNone;
       j = (j + 1) & mask_) {
    const size_t home = Home(slots_[j].tag);
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

void IdTable::Repoint(uint32_t tag, uint32_t old_id, uint32_t new_id) {
  slots_[SlotOf(tag, old_id)].id = new_id;
}

size_t HashIndex::MaxBucketSize() const {
  size_t best = 0;
  for (const std::vector<uint32_t>& rows : rows_) {
    best = std::max(best, rows.size());
  }
  return best;
}

const Tuple& HashIndex::ScratchKey(TupleView row) const {
  scratch_.resize(positions_.size());
  for (size_t i = 0; i < positions_.size(); ++i) scratch_[i] = row[positions_[i]];
  return scratch_;
}

void HashIndex::AddRow(TupleView row, uint32_t row_id) {
  const Tuple& key = ScratchKey(row);
  const uint32_t tag = IdTable::Tag(HashTuple(key));
  uint32_t entry = FindEntry(key, tag);
  if (entry == IdTable::kNone) {
    entry = static_cast<uint32_t>(rows_.size());
    keys_.insert(keys_.end(), key.begin(), key.end());
    rows_.emplace_back();
    table_.Insert(tag, entry);
  }
  rows_[entry].push_back(row_id);
}

void HashIndex::RemoveRow(TupleView row, uint32_t row_id) {
  const Tuple& key = ScratchKey(row);
  const uint32_t tag = IdTable::Tag(HashTuple(key));
  const uint32_t entry = FindEntry(key, tag);
  SI_CHECK_NE(entry, IdTable::kNone);
  std::vector<uint32_t>& rows = rows_[entry];
  auto pos = std::find(rows.begin(), rows.end(), row_id);
  SI_CHECK(pos != rows.end());
  *pos = rows.back();
  rows.pop_back();
  if (!rows.empty()) return;
  // The key is gone: the last entry takes its place in the dense array.
  table_.Erase(tag, entry);
  const uint32_t last = static_cast<uint32_t>(rows_.size() - 1);
  const size_t w = positions_.size();
  if (entry != last) {
    const TupleView moved = KeyAt(last);
    table_.Repoint(IdTable::Tag(HashTuple(moved)), last, entry);
    std::copy(moved.begin(), moved.end(), keys_.begin() + entry * w);
    rows_[entry] = std::move(rows_[last]);
  }
  rows_.pop_back();
  keys_.resize(keys_.size() - w);
}

void HashIndex::MoveRow(TupleView row, uint32_t old_id, uint32_t new_id) {
  const Tuple& key = ScratchKey(row);
  const uint32_t entry = FindEntry(key, IdTable::Tag(HashTuple(key)));
  SI_CHECK_NE(entry, IdTable::kNone);
  std::vector<uint32_t>& rows = rows_[entry];
  auto pos = std::find(rows.begin(), rows.end(), old_id);
  SI_CHECK(pos != rows.end());
  *pos = new_id;
}

std::vector<Tuple> ProjectionIndex::Lookup(const Tuple& key) const {
  std::vector<Tuple> out;
  auto it = groups_.find(key);
  if (it == groups_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [proj, count] : it->second) {
    (void)count;
    out.push_back(proj);
  }
  return out;
}

size_t ProjectionIndex::GroupSize(const Tuple& key) const {
  auto it = groups_.find(key);
  return it == groups_.end() ? 0 : it->second.size();
}

size_t ProjectionIndex::MaxGroupSize() const {
  size_t best = 0;
  for (const auto& [key, group] : groups_) {
    best = std::max(best, group.size());
  }
  return best;
}

void ProjectionIndex::AddRow(TupleView row) {
  Tuple key = ProjectTuple(row, key_positions_);
  Tuple proj = ProjectTuple(row, value_positions_);
  groups_[std::move(key)][std::move(proj)]++;
}

void ProjectionIndex::RemoveRow(TupleView row) {
  Tuple key = ProjectTuple(row, key_positions_);
  auto git = groups_.find(key);
  SI_CHECK(git != groups_.end());
  Tuple proj = ProjectTuple(row, value_positions_);
  auto pit = git->second.find(proj);
  SI_CHECK(pit != git->second.end());
  if (--pit->second == 0) git->second.erase(pit);
  if (git->second.empty()) groups_.erase(git);
}

}  // namespace scalein
