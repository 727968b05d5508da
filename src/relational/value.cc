#include "relational/value.h"

#include <atomic>
#include <bit>
#include <mutex>
#include <new>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

namespace scalein {
namespace {

/// Process-wide append-only string pool. Leaked intentionally: static storage
/// objects must be trivially destructible, so we hold it by pointer.
///
/// Strings live in segments that never move. Segment k holds kFirst << k
/// strings and is allocated when the first string lands in it, so memory
/// grows geometrically with use, and a reference handed out by Lookup stays
/// valid for the life of the process.
///
/// Interning takes a lock (shared to find, exclusive to add). Lookup takes
/// none: a writer constructs the string, then publishes it with a release
/// store of the count, and a reader's acquire load of the count makes every
/// string below it, and the segment holding it, visible.
class StringInterner {
 public:
  static StringInterner& Global() {
    static StringInterner& pool = *new StringInterner();
    return pool;
  }

  int64_t Intern(std::string_view s) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = ids_.find(s);
      if (it != ids_.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;  // raced with another interner
    const size_t id = size_.load(std::memory_order_relaxed);
    const auto [seg, off] = Locate(id);
    std::string* segment = segments_[seg].load(std::memory_order_relaxed);
    if (segment == nullptr) {
      // Raw storage: a page is touched only when a string lands on it.
      segment = static_cast<std::string*>(
          ::operator new(sizeof(std::string) * (kFirst << seg)));
      segments_[seg].store(segment, std::memory_order_relaxed);
    }
    const std::string* str = new (segment + off) std::string(s);
    ids_.emplace(std::string_view(*str), static_cast<int64_t>(id));
    size_.store(id + 1, std::memory_order_release);  // publishes str
    return static_cast<int64_t>(id);
  }

  const std::string& Lookup(int64_t id) const {
    SI_CHECK_GE(id, 0);
    SI_CHECK_LT(static_cast<size_t>(id),
                size_.load(std::memory_order_acquire));
    const auto [seg, off] = Locate(static_cast<size_t>(id));
    return segments_[seg].load(std::memory_order_relaxed)[off];
  }

 private:
  static constexpr unsigned kFirstBits = 10;
  static constexpr size_t kFirst = size_t{1} << kFirstBits;
  static constexpr size_t kMaxSegments = 64 - kFirstBits;

  /// The segment holding string `id`, and its offset there.
  static std::pair<size_t, size_t> Locate(size_t id) {
    const size_t i = id + kFirst;
    const size_t seg = static_cast<size_t>(std::bit_width(i)) - 1 - kFirstBits;
    SI_CHECK_LT(seg, kMaxSegments);
    return {seg, i - (kFirst << seg)};
  }

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string_view, int64_t> ids_;  ///< views into segments
  std::atomic<std::string*> segments_[kMaxSegments] = {};
  std::atomic<size_t> size_{0};
};

}  // namespace

Value Value::Str(std::string_view s) {
  return Value(StringInterner::Global().Intern(s), Kind::kString);
}

const std::string& Value::AsString() const {
  SI_CHECK(is_string());
  return StringInterner::Global().Lookup(payload_);
}

std::string Value::ToString() const {
  if (is_int()) return std::to_string(payload_);
  return "\"" + AsString() + "\"";
}

bool Value::StringLess(int64_t a, int64_t b) {
  const StringInterner& pool = StringInterner::Global();
  return pool.Lookup(a) < pool.Lookup(b);
}

}  // namespace scalein
