#ifndef SCALEIN_RELATIONAL_RELATION_H_
#define SCALEIN_RELATIONAL_RELATION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relational/index.h"
#include "relational/tuple.h"
#include "util/strings.h"

namespace scalein {

/// Hash functor for index descriptors (canonicalized attribute-position
/// vectors). The index registries are probed on every metered index lookup,
/// so they live in hashed containers rather than ordered maps.
struct PositionsHash {
  size_t operator()(const std::vector<size_t>& positions) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t p : positions) h = HashCombine(h, static_cast<uint64_t>(p));
    return static_cast<size_t>(h);
  }
};

struct PositionsPairHash {
  size_t operator()(const std::pair<std::vector<size_t>,
                                    std::vector<size_t>>& key) const {
    PositionsHash h;
    return static_cast<size_t>(
        HashCombine(static_cast<uint64_t>(h(key.first)),
                    static_cast<uint64_t>(h(key.second))));
  }
};

/// A finite relation instance: a *set* of tuples of fixed arity (§2).
///
/// Storage is flat row-major. Set semantics come from an IdTable of row ids
/// that hashes and compares rows in place in that storage, so a row costs
/// one 8-byte slot and no copy of its values. Secondary indexes over
/// arbitrary attribute-position subsets (`EnsureIndex`, including the one on
/// every position, built on first use like any other)
/// and projection indexes for embedded access statements
/// (`EnsureProjectionIndex`) are likewise maintained across inserts/removes,
/// so applying a small update to a large indexed relation costs O(|update|),
/// which the incremental-scale-independence benchmarks rely on.
///
/// Thread-safety: all mutating members (including the const-but-caching
/// Ensure* index builders) require exclusive access. Concurrent readers are
/// safe once the indexes they probe exist; the server builds every
/// access-schema index before it accepts queries.
class Relation {
 public:
  explicit Relation(size_t arity) : arity_(arity) {}

  // Movable, not copyable (indexes can be large); use Clone() to copy.
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  size_t arity() const { return arity_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Row `i` as a non-owning view; invalidated by any mutation.
  TupleView TupleAt(size_t i) const {
    SI_CHECK_LT(i, num_rows_);
    return TupleView(data_.data() + i * arity_, arity_);
  }

  /// Pre-sizes row storage and the set table for `rows` total tuples. Call
  /// before bulk loads to avoid repeated reallocation and rehashing. Growth
  /// at least doubles the storage, as appending would, so many small
  /// reserves (one `row` command each) stay amortized O(1) per row.
  void Reserve(size_t rows) {
    if (rows * arity_ > data_.capacity()) {
      data_.reserve(std::max(rows * arity_, 2 * data_.capacity()));
    }
    set_.Reserve(rows);
  }

  /// Inserts `t` if not already present; returns true if inserted.
  bool Insert(TupleView t);

  /// Removes `t` if present; returns true if removed. The last row moves into
  /// the hole, so only that row's id changes.
  bool Remove(TupleView t);

  /// Set membership.
  bool Contains(TupleView t) const;

  /// Ensures a hash index on `positions` exists and returns it. Positions are
  /// canonicalized (sorted + deduplicated) so logically equal indexes are
  /// shared; positions that are already canonical find an existing index
  /// without allocating. Const: building an index is a caching concern, not
  /// a logical mutation, and read-only evaluation paths build indexes on
  /// demand.
  const HashIndex& EnsureIndex(const std::vector<size_t>& positions) const;

  /// The index on `positions` if it exists, else nullptr. Never builds one.
  const HashIndex* FindIndex(const std::vector<size_t>& positions) const;

  /// Ensures a projection index keyed on `key_positions` returning distinct
  /// projections onto `value_positions`.
  const ProjectionIndex& EnsureProjectionIndex(
      const std::vector<size_t>& key_positions,
      const std::vector<size_t>& value_positions) const;

  const ProjectionIndex* FindProjectionIndex(
      const std::vector<size_t>& key_positions,
      const std::vector<size_t>& value_positions) const;

  /// Sorted + deduplicated copy of `positions` — the canonical index
  /// descriptor every index registry is keyed by. Exposed so evaluation
  /// plans can compute an index's key layout without forcing a build.
  static std::vector<size_t> CanonicalPositions(
      const std::vector<size_t>& positions);

  /// Deep copy of content (indexes are NOT copied; they rebuild on demand).
  Relation Clone() const;

  /// All tuples, materialized and sorted — canonical form for comparisons.
  std::vector<Tuple> SortedTuples() const;

  /// Set equality with `other`.
  bool SetEquals(const Relation& other) const;

  /// True if every tuple of *this is in `other`.
  bool IsSubsetOf(const Relation& other) const;

  /// Appends every distinct value in this relation to `out`.
  void CollectActiveDomain(std::vector<Value>* out) const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  /// The set table's tag for a row, and the row id holding `t` (kNone when
  /// absent).
  static uint32_t RowTag(TupleView t) { return IdTable::Tag(HashTuple(t)); }
  uint32_t FindRow(TupleView t, uint32_t tag) const {
    return set_.Find(tag,
                     [&](uint32_t id) { return TupleEquals(TupleAt(id), t); });
  }

  size_t arity_;
  size_t num_rows_ = 0;
  std::vector<Value> data_;
  IdTable set_;  ///< every row id, placed by the row's content
  // Keyed by canonicalized positions. unique_ptr for pointer stability.
  mutable std::unordered_map<std::vector<size_t>, std::unique_ptr<HashIndex>,
                             PositionsHash>
      indexes_;
  mutable std::unordered_map<
      std::pair<std::vector<size_t>, std::vector<size_t>>,
      std::unique_ptr<ProjectionIndex>, PositionsPairHash>
      projection_indexes_;
};

}  // namespace scalein

#endif  // SCALEIN_RELATIONAL_RELATION_H_
