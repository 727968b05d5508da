#include "relational/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "util/rng.h"

namespace scalein {
namespace {

Tuple T2(int64_t a, int64_t b) { return Tuple{Value::Int(a), Value::Int(b)}; }

TEST(RelationTest, InsertDeduplicates) {
  Relation r(2);
  EXPECT_TRUE(r.Insert(T2(1, 2)));
  EXPECT_FALSE(r.Insert(T2(1, 2)));
  EXPECT_TRUE(r.Insert(T2(1, 3)));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T2(1, 2)));
  EXPECT_FALSE(r.Contains(T2(2, 1)));
}

TEST(RelationTest, RemoveSwapsAndKeepsContent) {
  Relation r(2);
  for (int64_t i = 0; i < 10; ++i) r.Insert(T2(i, i * i));
  EXPECT_TRUE(r.Remove(T2(3, 9)));
  EXPECT_FALSE(r.Remove(T2(3, 9)));
  EXPECT_EQ(r.size(), 9u);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(r.Contains(T2(i, i * i)), i != 3);
  }
}

TEST(RelationTest, IndexLookupAfterBulkLoad) {
  Relation r(2);
  for (int64_t i = 0; i < 100; ++i) r.Insert(T2(i % 10, i));
  const HashIndex& idx = r.EnsureIndex({0});
  const std::vector<uint32_t>* rows = idx.Lookup(Tuple{Value::Int(3)});
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->size(), 10u);
  for (uint32_t row : *rows) {
    EXPECT_EQ(r.TupleAt(row)[0], Value::Int(3));
  }
  EXPECT_EQ(idx.MaxBucketSize(), 10u);
}

TEST(RelationTest, IndexMaintainedAcrossInsertAndRemove) {
  Relation r(2);
  r.EnsureIndex({0});  // index exists before any data
  Rng rng(123);
  std::set<Tuple> reference;
  for (int step = 0; step < 2000; ++step) {
    Tuple t = T2(static_cast<int64_t>(rng.Uniform(20)),
                 static_cast<int64_t>(rng.Uniform(20)));
    if (rng.Bernoulli(0.6)) {
      r.Insert(t);
      reference.insert(t);
    } else {
      r.Remove(t);
      reference.erase(t);
    }
  }
  EXPECT_EQ(r.size(), reference.size());
  // Every key's bucket must match the reference exactly.
  const HashIndex* idx = r.FindIndex({0});
  ASSERT_NE(idx, nullptr);
  for (int64_t key = 0; key < 20; ++key) {
    std::set<Tuple> expected;
    for (const Tuple& t : reference) {
      if (t[0] == Value::Int(key)) expected.insert(t);
    }
    const std::vector<uint32_t>* rows = idx->Lookup(Tuple{Value::Int(key)});
    std::set<Tuple> actual;
    if (rows != nullptr) {
      for (uint32_t row : *rows) actual.insert(ToTuple(r.TupleAt(row)));
    }
    EXPECT_EQ(actual, expected) << "key " << key;
  }
}

TEST(RelationTest, IndexPositionsCanonicalized) {
  Relation r(3);
  r.Insert(Tuple{Value::Int(1), Value::Int(2), Value::Int(3)});
  const HashIndex& a = r.EnsureIndex({2, 0});
  const HashIndex* b = r.FindIndex({0, 2});
  EXPECT_EQ(&a, b);
  // Key order follows sorted positions: (pos0, pos2).
  EXPECT_NE(a.Lookup(Tuple{Value::Int(1), Value::Int(3)}), nullptr);
}

TEST(RelationTest, ProjectionIndexDistinctness) {
  Relation r(3);
  // Rows sharing key 7 with duplicate (b) projections.
  r.Insert(Tuple{Value::Int(7), Value::Int(1), Value::Int(10)});
  r.Insert(Tuple{Value::Int(7), Value::Int(1), Value::Int(20)});
  r.Insert(Tuple{Value::Int(7), Value::Int(2), Value::Int(30)});
  r.Insert(Tuple{Value::Int(8), Value::Int(9), Value::Int(40)});
  const ProjectionIndex& p = r.EnsureProjectionIndex({0}, {1});
  EXPECT_EQ(p.GroupSize(Tuple{Value::Int(7)}), 2u);
  EXPECT_EQ(p.GroupSize(Tuple{Value::Int(8)}), 1u);
  EXPECT_EQ(p.MaxGroupSize(), 2u);

  // Removing one of the duplicates keeps the projection present.
  r.Remove(Tuple{Value::Int(7), Value::Int(1), Value::Int(10)});
  EXPECT_EQ(p.GroupSize(Tuple{Value::Int(7)}), 2u);
  r.Remove(Tuple{Value::Int(7), Value::Int(1), Value::Int(20)});
  EXPECT_EQ(p.GroupSize(Tuple{Value::Int(7)}), 1u);
}

TEST(RelationTest, CloneIsIndependent) {
  Relation r(1);
  r.Insert(Tuple{Value::Int(1)});
  Relation copy = r.Clone();
  copy.Insert(Tuple{Value::Int(2)});
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_TRUE(r.IsSubsetOf(copy));
  EXPECT_FALSE(copy.IsSubsetOf(r));
}

TEST(RelationTest, SetEqualsIgnoresInsertionOrder) {
  Relation a(1);
  Relation b(1);
  a.Insert(Tuple{Value::Int(1)});
  a.Insert(Tuple{Value::Int(2)});
  b.Insert(Tuple{Value::Int(2)});
  b.Insert(Tuple{Value::Int(1)});
  EXPECT_TRUE(a.SetEquals(b));
  b.Remove(Tuple{Value::Int(1)});
  EXPECT_FALSE(a.SetEquals(b));
}

TEST(RelationTest, SortedTuplesDeterministic) {
  Relation r(2);
  r.Insert(T2(2, 1));
  r.Insert(T2(1, 2));
  r.Insert(T2(1, 1));
  std::vector<Tuple> sorted = r.SortedTuples();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], T2(1, 1));
  EXPECT_EQ(sorted[1], T2(1, 2));
  EXPECT_EQ(sorted[2], T2(2, 1));
}

// Reference model of a Relation and its indexes: rows by id, a std::set for
// membership and, per index, each key's row-id list. It replays the
// relation's rules: append on insert; on remove, swap-pop the victim within
// its key's list, then the last row moves into the victim's id and is
// re-pointed in place in its own key's list.
struct Model {
  using Lists = std::map<Tuple, std::vector<uint32_t>>;

  std::vector<std::vector<size_t>> index_positions;
  std::vector<Tuple> rows;
  std::set<Tuple> members;
  std::vector<Lists> lists;  // one per index, maintained op by op

  bool Insert(const Tuple& t) {
    if (!members.insert(t).second) return false;
    const uint32_t id = static_cast<uint32_t>(rows.size());
    rows.push_back(t);
    for (size_t i = 0; i < lists.size(); ++i) {
      lists[i][ProjectTuple(t, index_positions[i])].push_back(id);
    }
    return true;
  }

  bool Remove(const Tuple& t) {
    if (members.erase(t) == 0) return false;
    const uint32_t victim = static_cast<uint32_t>(
        std::find(rows.begin(), rows.end(), t) - rows.begin());
    const uint32_t last = static_cast<uint32_t>(rows.size() - 1);
    for (size_t i = 0; i < lists.size(); ++i) {
      const Tuple key = ProjectTuple(t, index_positions[i]);
      std::vector<uint32_t>& ids = lists[i][key];
      *std::find(ids.begin(), ids.end(), victim) = ids.back();
      ids.pop_back();
      if (ids.empty()) lists[i].erase(key);
    }
    if (victim != last) {
      for (size_t i = 0; i < lists.size(); ++i) {
        std::vector<uint32_t>& ids =
            lists[i][ProjectTuple(rows[last], index_positions[i])];
        *std::find(ids.begin(), ids.end(), last) = victim;
      }
      rows[victim] = rows[last];
    }
    rows.pop_back();
    return true;
  }

  /// The lists of an index on `positions` built now, by a scan in id order.
  Lists Built(const std::vector<size_t>& positions) const {
    Lists out;
    for (uint32_t id = 0; id < rows.size(); ++id) {
      out[ProjectTuple(rows[id], positions)].push_back(id);
    }
    return out;
  }
};

/// The first difference between `r` and the model (rows by id, membership,
/// and for each index on `positions[i]` every key's row-id list in order and
/// MaxBucketSize), or "" when they agree.
std::string Mismatch(const Relation& r, const Model& m,
                     const std::vector<std::vector<size_t>>& positions,
                     const std::vector<Model::Lists>& lists,
                     const std::vector<Tuple>& probes) {
  if (r.size() != m.rows.size()) {
    return "size " + std::to_string(r.size()) + " vs " +
           std::to_string(m.rows.size());
  }
  for (size_t id = 0; id < m.rows.size(); ++id) {
    if (!TupleEquals(r.TupleAt(id), m.rows[id])) {
      return "row " + std::to_string(id) + " is " +
             TupleToString(r.TupleAt(id)) + ", model " +
             TupleToString(m.rows[id]);
    }
  }
  for (const Tuple& t : probes) {
    if (r.Contains(t) != (m.members.count(t) > 0)) {
      return "Contains" + TupleToString(t);
    }
  }
  for (size_t i = 0; i < positions.size(); ++i) {
    const HashIndex* idx = r.FindIndex(positions[i]);
    if (idx == nullptr) return "index " + std::to_string(i) + " missing";
    size_t largest = 0;
    for (const auto& [key, ids] : lists[i]) {
      const std::vector<uint32_t>* got = idx->Lookup(key);
      if (got == nullptr || *got != ids) {
        return "index " + std::to_string(i) + " key " + TupleToString(key);
      }
      largest = std::max(largest, ids.size());
    }
    for (const Tuple& t : probes) {
      const Tuple key = ProjectTuple(t, positions[i]);
      if ((idx->Lookup(key) != nullptr) != (lists[i].count(key) > 0)) {
        return "index " + std::to_string(i) + " presence of " +
               TupleToString(key);
      }
    }
    if (idx->MaxBucketSize() != largest) {
      return "index " + std::to_string(i) + " MaxBucketSize " +
             std::to_string(idx->MaxBucketSize()) + " vs " +
             std::to_string(largest);
    }
  }
  return "";
}

// Differential test of the set table and HashIndex against the model, over
// seeded churn: duplicate inserts, present and absent removes, clones,
// growth across many rehashes, a hot key with hundreds of rows, removing
// everything and re-inserting. `eager` has every index from the start;
// `lazy` builds them after the churn (and rebuilds `eager`'s after a clone).
void RunDifferential(size_t arity, uint64_t seed) {
  SCOPED_TRACE("arity " + std::to_string(arity) + " seed " +
               std::to_string(seed));
  std::vector<std::vector<size_t>> positions = {{0}, {1}, {0, 1}};
  if (arity > 2) {
    std::vector<size_t> all(arity);
    for (size_t p = 0; p < arity; ++p) all[p] = p;
    positions.push_back(all);
  }
  Rng rng(seed);
  // Column 0 is a hot key (0..2) half the time; other columns follow from
  // the first two, so rows stay distinct by (col0, col1).
  auto draw = [&]() {
    const int64_t a = rng.Bernoulli(0.5)
                          ? static_cast<int64_t>(rng.Uniform(3))
                          : static_cast<int64_t>(rng.Uniform(200));
    const int64_t b = static_cast<int64_t>(rng.Uniform(600));
    Tuple t(arity);
    t[0] = Value::Int(a);
    t[1] = Value::Int(b);
    for (size_t p = 2; p < arity; ++p) {
      t[p] = Value::Int(a * 1000 + b + static_cast<int64_t>(p));
    }
    return t;
  };
  std::vector<Tuple> probes;
  for (int i = 0; i < 300; ++i) probes.push_back(draw());

  Model model;
  model.index_positions = positions;
  model.lists.resize(positions.size());
  Relation eager(arity);
  Relation lazy(arity);
  for (const std::vector<size_t>& p : positions) eager.EnsureIndex(p);

  auto step = [&](double insert_p, double remove_p) {
    const double u = rng.NextDouble();
    if (u < insert_p) {
      // A quarter of the inserts repeat a present row.
      const Tuple t = !model.rows.empty() && rng.Bernoulli(0.25)
                          ? model.rows[rng.Uniform(model.rows.size())]
                          : draw();
      const bool inserted = model.Insert(t);
      EXPECT_EQ(eager.Insert(t), inserted);
      EXPECT_EQ(lazy.Insert(t), inserted);
    } else if (u < insert_p + remove_p) {
      const Tuple t = !model.rows.empty() && rng.Bernoulli(0.7)
                          ? model.rows[rng.Uniform(model.rows.size())]
                          : draw();
      const bool removed = model.Remove(t);
      EXPECT_EQ(eager.Remove(t), removed);
      EXPECT_EQ(lazy.Remove(t), removed);
    } else if (u < insert_p + remove_p + 0.002) {
      eager = eager.Clone();
      lazy = lazy.Clone();
      for (size_t i = 0; i < positions.size(); ++i) {
        eager.EnsureIndex(positions[i]);
        model.lists[i] = model.Built(positions[i]);
      }
    } else {
      const Tuple t = draw();
      EXPECT_EQ(eager.Contains(t), model.members.count(t) > 0);
    }
  };
  auto check = [&](const char* phase) {
    ASSERT_EQ(Mismatch(eager, model, positions, model.lists, probes), "")
        << phase;
  };

  for (int i = 0; i < 5000; ++i) {
    step(0.7, 0.15);
    if (i % 500 == 499) check("growth");
  }
  check("grown");
  ASSERT_GT(model.rows.size(), 1000u);  // several rehashes past 8 slots
  size_t hot = 0;
  for (const auto& [key, ids] : model.lists[0]) hot = std::max(hot, ids.size());
  ASSERT_GT(hot, 200u);  // one key with hundreds of rows

  while (!model.rows.empty()) {
    const Tuple t = model.rows[rng.Uniform(model.rows.size())];
    model.Remove(t);
    EXPECT_TRUE(eager.Remove(t));
    EXPECT_TRUE(lazy.Remove(t));
    EXPECT_FALSE(lazy.Remove(t));
  }
  check("emptied");
  for (const Tuple& t : probes) EXPECT_FALSE(lazy.Contains(t));

  for (int i = 0; i < 2000; ++i) step(0.6, 0.3);
  check("refilled");

  std::vector<Model::Lists> built;
  for (const std::vector<size_t>& p : positions) {
    lazy.EnsureIndex(p);
    built.push_back(model.Built(p));
  }
  ASSERT_EQ(Mismatch(lazy, model, positions, built, probes), "");
}

TEST(RelationTest, TablesMatchReferenceModelUnderChurn) {
  for (uint64_t seed : {1, 2, 3}) RunDifferential(2, seed);
  RunDifferential(65, 4);
}

// Arity 0: the one empty tuple is in or out, and the index on no positions
// holds it under the empty key.
TEST(RelationTest, NullaryRelationHoldsAtMostTheEmptyTuple) {
  Relation r(0);
  const HashIndex& idx = r.EnsureIndex({});
  EXPECT_EQ(idx.Lookup(Tuple{}), nullptr);
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(r.Insert(Tuple{}));
    EXPECT_FALSE(r.Insert(Tuple{}));
    EXPECT_TRUE(r.Contains(Tuple{}));
    EXPECT_EQ(r.size(), 1u);
    const std::vector<uint32_t>* rows = idx.Lookup(Tuple{});
    ASSERT_NE(rows, nullptr);
    EXPECT_EQ(*rows, std::vector<uint32_t>{0});
    EXPECT_EQ(idx.MaxBucketSize(), 1u);
    Relation copy = r.Clone();
    EXPECT_TRUE(copy.Contains(Tuple{}));
    EXPECT_TRUE(r.Remove(Tuple{}));
    EXPECT_FALSE(r.Remove(Tuple{}));
    EXPECT_FALSE(r.Contains(Tuple{}));
    EXPECT_EQ(idx.Lookup(Tuple{}), nullptr);
    EXPECT_EQ(idx.MaxBucketSize(), 0u);
    EXPECT_TRUE(copy.Contains(Tuple{}));
  }
}

TEST(TupleTest, ProjectAndHash) {
  Tuple t{Value::Int(1), Value::Str("a"), Value::Int(3)};
  Tuple p = ProjectTuple(t, {2, 0});
  EXPECT_EQ(p, (Tuple{Value::Int(3), Value::Int(1)}));
  EXPECT_EQ(HashTuple(t), HashTuple(ToTuple(TupleView(t))));
  EXPECT_NE(HashTuple(t), HashTuple(p));
  EXPECT_EQ(TupleToString(p), "(3, 1)");
}

}  // namespace
}  // namespace scalein
