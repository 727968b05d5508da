#ifndef SCALEIN_RELATIONAL_INDEX_H_
#define SCALEIN_RELATIONAL_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "relational/tuple.h"

namespace scalein {

/// Asks the CPU to start loading `p`'s cache line. A hint: it reads nothing
/// the program can observe and never faults.
inline void PrefetchForRead(const void* p) { __builtin_prefetch(p, 0, 3); }

/// Linear-probing hash table of 32-bit ids whose keys live outside it: a
/// relation's set of rows, a HashIndex's entries. A slot holds an id and a
/// 32-bit tag of its key's hash. The tag alone places a slot, so growing
/// never reads a key, and a probe compares a key only on a tag match. Erase
/// shifts the rest of the probe run back instead of leaving tombstones.
class IdTable {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// The tag of a key hash. HashTuple's combine is weak in the bits a
  /// power-of-two table would use, so the hash is mixed (the fmix64
  /// finalizer) here rather than changed for every hashed container.
  static uint32_t Tag(uint64_t hash) {
    hash ^= hash >> 33;
    hash *= 0xff51afd7ed558ccdULL;
    hash ^= hash >> 33;
    hash *= 0xc4ceb9fe1a85ec53ULL;
    hash ^= hash >> 33;
    return static_cast<uint32_t>(hash >> 32);
  }

  /// The id stored under `tag` for which `same(id)` holds, or kNone.
  template <typename Same>
  uint32_t Find(uint32_t tag, const Same& same) const {
    if (size_ == 0) return kNone;
    for (size_t i = Home(tag);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.tag == tag && same(s.id)) return s.id;
    }
  }

  /// Prefetches the slot a Find for `tag` starts at.
  void PrefetchHome(uint32_t tag) const {
    if (size_ != 0) PrefetchForRead(&slots_[Home(tag)]);
  }

  /// The first id stored under `tag`, or kNone: the id a Find for a key
  /// with that tag most likely returns. A guess for prefetching; it compares
  /// no key.
  uint32_t FirstWithTag(uint32_t tag) const {
    if (size_ == 0) return kNone;
    for (size_t i = Home(tag);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone || s.tag == tag) return s.id;
    }
  }

  /// Stores `id` under `tag`; the caller has checked its key is absent.
  void Insert(uint32_t tag, uint32_t id);
  /// Removes `id`, stored under `tag`.
  void Erase(uint32_t tag, uint32_t id);
  /// Replaces `old_id`, stored under `tag`, by `new_id` in the same slot.
  void Repoint(uint32_t tag, uint32_t old_id, uint32_t new_id);
  /// Sizes the table so `n` ids fit without growing.
  void Reserve(size_t n);

 private:
  struct Slot {
    uint32_t id = kNone;
    uint32_t tag = 0;
  };

  /// A tag's first slot: its top log2(capacity) bits.
  size_t Home(uint32_t tag) const { return tag >> shift_; }
  /// The slot holding `id`, stored under `tag`.
  size_t SlotOf(uint32_t tag, uint32_t id) const;
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;  ///< power-of-two capacity, at most 3/4 full
  size_t mask_ = 0;
  unsigned shift_ = 32;
  size_t size_ = 0;
};

/// Exact-match hash index over a subset of a relation's attribute positions.
///
/// This is the physical realization of an access-schema entry (R, X, N, T):
/// given values ā for X, `Lookup` returns the row ids of σ_{X=ā}(R) in O(1)
/// expected time (the paper's retrieval-time guarantee T). The index is
/// maintained incrementally by the owning Relation on insert/remove.
///
/// Layout: one entry per distinct key, in a dense array. Entry e's key
/// values sit inline at `keys_[e*w, e*w + w)` and its row ids in `rows_[e]`;
/// an IdTable of entry ids finds the entry for a key. A key's row ids keep
/// the order of AddRow, RemoveRow swaps the key's last row id into the hole,
/// and MoveRow re-points one in place, so answers and fetch counts replay
/// byte for byte. An entry whose last row goes is swapped with the last
/// entry.
class HashIndex {
 public:
  /// `positions`: attribute positions forming the key, in key order.
  explicit HashIndex(std::vector<size_t> positions)
      : positions_(std::move(positions)) {}

  const std::vector<size_t>& positions() const { return positions_; }

  /// Row ids whose key equals `key` (values in `positions()` order), or
  /// nullptr when no row matches. Accepts any tuple representation without
  /// materializing. Like a `Relation::TupleAt` view, the result is
  /// invalidated by any mutation of the owning relation: a new key may move
  /// the entry array.
  const std::vector<uint32_t>* Lookup(TupleView key) const {
    const uint32_t entry = FindEntry(key, IdTable::Tag(HashTuple(key)));
    return entry == IdTable::kNone ? nullptr : &rows_[entry];
  }

  /// Size of the largest bucket: the empirical N of (R, X, N, T).
  size_t MaxBucketSize() const;

  // Prefetch hints for a batch of probes. A caller about to probe many keys
  // issues one pass per dependent load, so the loads of different keys
  // overlap instead of queueing behind each other. They read only index
  // memory, build nothing and change no result.

  /// The tag a probe for `key` hashes to.
  static uint32_t KeyTag(TupleView key) { return IdTable::Tag(HashTuple(key)); }
  /// Pass 1: the table slot a probe for `tag` starts at.
  void PrefetchSlot(uint32_t tag) const { table_.PrefetchHome(tag); }
  /// Pass 2: the entry a probe for `tag` most likely finds (kNone when none
  /// is stored under it); prefetches its key and its row-id vector.
  uint32_t PrefetchEntry(uint32_t tag) const {
    const uint32_t entry = table_.FirstWithTag(tag);
    if (entry != IdTable::kNone) {
      PrefetchForRead(keys_.data() + entry * positions_.size());
      PrefetchForRead(&rows_[entry]);
    }
    return entry;
  }
  /// Pass 3: prefetches `entry`'s row ids and returns them (never empty).
  const uint32_t* PrefetchRowIds(uint32_t entry) const {
    const uint32_t* ids = rows_[entry].data();
    PrefetchForRead(ids);
    return ids;
  }

  // Maintenance hooks, called by Relation.
  void AddRow(TupleView row, uint32_t row_id);
  void RemoveRow(TupleView row, uint32_t row_id);
  /// Re-points the entry for `row` from `old_id` to `new_id` (swap-remove).
  void MoveRow(TupleView row, uint32_t old_id, uint32_t new_id);

 private:
  TupleView KeyAt(uint32_t entry) const {
    const size_t w = positions_.size();
    return TupleView(keys_.data() + entry * w, w);
  }

  /// The entry holding `key`, whose tag is `tag`, or kNone.
  uint32_t FindEntry(TupleView key, uint32_t tag) const {
    return table_.Find(
        tag, [&](uint32_t e) { return TupleEquals(KeyAt(e), key); });
  }

  /// Projects `row` onto the key positions into a reused buffer, so the
  /// maintenance hooks don't allocate a fresh key per maintained index on
  /// every insert/remove.
  const Tuple& ScratchKey(TupleView row) const;

  std::vector<size_t> positions_;
  IdTable table_;                            ///< entry ids, placed by key
  std::vector<Value> keys_;                  ///< entry keys, inline
  std::vector<std::vector<uint32_t>> rows_;  ///< row ids per entry
  mutable Tuple scratch_;
};

/// Index supporting embedded access-schema statements (R, X[Y], N, T):
/// given values ā for X, enumerates the *distinct* tuples of π_Y(σ_{X=ā}(R)).
///
/// Entries are reference-counted so deletions keep distinctness exact.
class ProjectionIndex {
 public:
  /// One key's distinct Y-projections, each with the number of rows that
  /// project onto it.
  using Group = std::unordered_map<Tuple, uint32_t, TupleHash, TupleEq>;

  ProjectionIndex(std::vector<size_t> key_positions,
                  std::vector<size_t> value_positions)
      : key_positions_(std::move(key_positions)),
        value_positions_(std::move(value_positions)) {}

  const std::vector<size_t>& key_positions() const { return key_positions_; }
  const std::vector<size_t>& value_positions() const { return value_positions_; }

  /// The distinct Y-projections for key ā, or nullptr when none. Like a
  /// HashIndex lookup, the result is invalidated by any mutation of the
  /// owning relation.
  const Group* Find(const Tuple& key) const {
    auto it = groups_.find(key);
    return it == groups_.end() ? nullptr : &it->second;
  }

  /// Number of distinct Y-projections for key ā (the quantity the N bound of
  /// an embedded statement constrains).
  size_t GroupSize(const Tuple& key) const;

  /// Largest group across all keys: the empirical N.
  size_t MaxGroupSize() const;

  // Maintenance hooks, called by Relation.
  void AddRow(TupleView row);
  void RemoveRow(TupleView row);

 private:
  std::vector<size_t> key_positions_;
  std::vector<size_t> value_positions_;
  std::unordered_map<Tuple, Group, TupleHash, TupleEq> groups_;
};

}  // namespace scalein

#endif  // SCALEIN_RELATIONAL_INDEX_H_
