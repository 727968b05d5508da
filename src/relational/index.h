#ifndef SCALEIN_RELATIONAL_INDEX_H_
#define SCALEIN_RELATIONAL_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "relational/tuple.h"

namespace scalein {

/// Exact-match hash index over a subset of a relation's attribute positions.
///
/// This is the physical realization of an access-schema entry (R, X, N, T):
/// given values ā for X, `Lookup` returns the row ids of σ_{X=ā}(R) in O(1)
/// expected time (the paper's retrieval-time guarantee T). The index is
/// maintained incrementally by the owning Relation on insert/remove.
class HashIndex {
 public:
  /// `positions`: attribute positions forming the key, in key order.
  explicit HashIndex(std::vector<size_t> positions)
      : positions_(std::move(positions)) {}

  const std::vector<size_t>& positions() const { return positions_; }

  /// Row ids whose key equals `key` (values in `positions()` order), or
  /// nullptr when no row matches. Accepts any tuple representation without
  /// materializing (transparent lookup).
  const std::vector<uint32_t>* Lookup(TupleView key) const {
    auto it = buckets_.find(key);
    if (it == buckets_.end()) return nullptr;
    return &it->second;
  }

  /// Number of distinct key values present.
  size_t NumKeys() const { return buckets_.size(); }

  /// Pre-sizes the bucket table for an upper bound of `rows` distinct keys.
  /// Call before bulk builds (EnsureIndex) so loading a large relation is
  /// one allocation instead of a rehash storm.
  void ReserveRows(size_t rows) { buckets_.reserve(rows); }

  /// Size of the largest bucket: the empirical N of (R, X, N, T).
  size_t MaxBucketSize() const;

  /// Extracts this index's key from a full row.
  Tuple KeyOf(TupleView row) const { return ProjectTuple(row, positions_); }

  // Maintenance hooks, called by Relation.
  void AddRow(TupleView row, uint32_t row_id);
  void RemoveRow(TupleView row, uint32_t row_id);
  /// Re-points the entry for `row` from `old_id` to `new_id` (swap-remove).
  void MoveRow(TupleView row, uint32_t old_id, uint32_t new_id);

 private:
  /// Projects `row` onto the key positions into a reused buffer, so the
  /// maintenance hooks don't allocate a fresh key per maintained index on
  /// every insert/remove.
  const Tuple& ScratchKey(TupleView row) const;

  std::vector<size_t> positions_;
  std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash, TupleEq> buckets_;
  mutable Tuple scratch_;
};

/// Index supporting embedded access-schema statements (R, X[Y], N, T):
/// given values ā for X, enumerates the *distinct* tuples of π_Y(σ_{X=ā}(R)).
///
/// Entries are reference-counted so deletions keep distinctness exact.
class ProjectionIndex {
 public:
  ProjectionIndex(std::vector<size_t> key_positions,
                  std::vector<size_t> value_positions)
      : key_positions_(std::move(key_positions)),
        value_positions_(std::move(value_positions)) {}

  const std::vector<size_t>& key_positions() const { return key_positions_; }
  const std::vector<size_t>& value_positions() const { return value_positions_; }

  /// Distinct Y-projections for key ā; empty when none.
  std::vector<Tuple> Lookup(const Tuple& key) const;

  /// Number of distinct Y-projections for key ā (the quantity the N bound of
  /// an embedded statement constrains).
  size_t GroupSize(const Tuple& key) const;

  /// Largest group across all keys: the empirical N.
  size_t MaxGroupSize() const;

  // Maintenance hooks, called by Relation.
  void AddRow(TupleView row);
  void RemoveRow(TupleView row);

 private:
  using Group = std::unordered_map<Tuple, uint32_t, TupleHash, TupleEq>;
  std::vector<size_t> key_positions_;
  std::vector<size_t> value_positions_;
  std::unordered_map<Tuple, Group, TupleHash, TupleEq> groups_;
};

}  // namespace scalein

#endif  // SCALEIN_RELATIONAL_INDEX_H_
