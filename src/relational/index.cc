#include "relational/index.h"

#include <algorithm>

namespace scalein {

size_t HashIndex::MaxBucketSize() const {
  size_t best = 0;
  for (const auto& [key, rows] : buckets_) {
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
  auto it = buckets_.find(key);
  if (it == buckets_.end()) {
    buckets_.emplace(key, std::vector<uint32_t>{row_id});
  } else {
    it->second.push_back(row_id);
  }
}

void HashIndex::RemoveRow(TupleView row, uint32_t row_id) {
  auto it = buckets_.find(ScratchKey(row));
  SI_CHECK(it != buckets_.end());
  std::vector<uint32_t>& rows = it->second;
  auto pos = std::find(rows.begin(), rows.end(), row_id);
  SI_CHECK(pos != rows.end());
  *pos = rows.back();
  rows.pop_back();
  if (rows.empty()) buckets_.erase(it);
}

void HashIndex::MoveRow(TupleView row, uint32_t old_id, uint32_t new_id) {
  auto it = buckets_.find(ScratchKey(row));
  SI_CHECK(it != buckets_.end());
  std::vector<uint32_t>& rows = it->second;
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
