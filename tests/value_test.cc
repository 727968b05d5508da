#include "relational/value.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

namespace scalein {
namespace {

TEST(ValueTest, IntBasics) {
  Value v = Value::Int(42);
  EXPECT_TRUE(v.is_int());
  EXPECT_FALSE(v.is_string());
  EXPECT_EQ(v.AsInt(), 42);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(ValueTest, NegativeInt) {
  Value v = Value::Int(-7);
  EXPECT_EQ(v.AsInt(), -7);
  EXPECT_EQ(v.ToString(), "-7");
}

TEST(ValueTest, DefaultIsIntZero) {
  Value v;
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 0);
}

TEST(ValueTest, StringBasics) {
  Value v = Value::Str("NYC");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "NYC");
  EXPECT_EQ(v.ToString(), "\"NYC\"");
}

TEST(ValueTest, StringInterningGivesEquality) {
  Value a = Value::Str("hello");
  Value b = Value::Str("hello");
  Value c = Value::Str("world");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ValueTest, IntAndStringNeverEqual) {
  // Interned string ids could collide numerically with int payloads; the kind
  // tag must keep them apart.
  Value s = Value::Str("zero-ish");
  Value i = Value::Int(0);
  EXPECT_NE(s, i);
}

TEST(ValueTest, OrderingIntsBeforeStringsAndLexicographic) {
  Value i1 = Value::Int(5);
  Value i2 = Value::Int(9);
  Value s1 = Value::Str("abc");
  Value s2 = Value::Str("abd");
  EXPECT_LT(i1, i2);
  EXPECT_LT(i2, s1);
  EXPECT_LT(s1, s2);
  EXPECT_FALSE(s2 < s1);
}

TEST(ValueTest, OrderingIsByContentNotInternId) {
  // Intern "zzz" before "aaa": order must still be lexicographic.
  Value z = Value::Str("zzz$order");
  Value a = Value::Str("aaa$order");
  EXPECT_LT(a, z);
}

TEST(ValueTest, UsableInOrderedAndUnorderedContainers) {
  std::set<Value> ordered{Value::Int(3), Value::Int(1), Value::Str("x")};
  EXPECT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered.begin()->AsInt(), 1);

  std::unordered_set<Value, ValueHash> hashed;
  for (int i = 0; i < 100; ++i) hashed.insert(Value::Int(i % 10));
  EXPECT_EQ(hashed.size(), 10u);
}

TEST(ValueTest, ConcurrentInterningKeepsLockFreeReadsExact) {
  // Writers intern fresh strings while readers intern, compare and render
  // values of the writers' texts: each AsString must give back the text it
  // was interned from, and the order must follow the texts, while the pool
  // grows new segments under the readers. Under TSan this checks the pool's
  // segment growth against concurrent lock-free reads. It does not isolate
  // the release/acquire publish of the pool's size: every reader gets its
  // ids through Value::Str, whose lock already orders the writer's string
  // before the read.
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kPerWriter = 20000;
  auto text = [](int writer, int i) {
    return "w" + std::to_string(writer) + "/" + std::to_string(i) + "$tsan";
  };
  std::atomic<int> progress[kWriters] = {};
  std::atomic<int> writers_left{kWriters};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string t = text(w, i);
        if (Value::Str(t).AsString() != t) ++bad;
        progress[w].store(i + 1, std::memory_order_release);
      }
      --writers_left;
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t state = 0x9e3779b97f4a7c15ULL * (r + 1);
      std::string prev_text = text(0, 0);
      Value prev = Value::Str(prev_text);
      while (writers_left.load() > 0) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const int w = static_cast<int>((state >> 33) % kWriters);
        const int done = progress[w].load(std::memory_order_acquire);
        if (done == 0) continue;
        const int i = static_cast<int>((state >> 40) %
                                       static_cast<uint64_t>(done));
        const std::string t = text(w, i);
        const Value v = Value::Str(t);  // already interned by writer w
        if (v.AsString() != t || v.ToString() != "\"" + t + "\"") ++bad;
        if ((v < prev) != (t < prev_text) || (prev < v) != (prev_text < t)) {
          ++bad;
        }
        prev = v;
        prev_text = t;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(Value::Str(text(1, kPerWriter - 1)).AsString(),
            text(1, kPerWriter - 1));
}

TEST(ValueTest, EmptyStringIsValid) {
  Value v = Value::Str("");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "");
  EXPECT_EQ(v, Value::Str(""));
}

}  // namespace
}  // namespace scalein
