#include "relational/value.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace scalein {
namespace {

/// Process-wide append-only string pool. Leaked intentionally: static storage
/// objects must be trivially destructible, so we hold it by pointer.
///
/// Thread-safe: concurrent evaluations compare/render string values (shared
/// lock) while loaders may intern new ones (exclusive lock). Strings live in a deque so the references handed
/// out by Lookup stay stable across later interning.
class StringInterner {
 public:
  static StringInterner& Global() {
    static StringInterner& pool = *new StringInterner();
    return pool;
  }

  int64_t Intern(std::string_view s) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = ids_.find(std::string(s));
      if (it != ids_.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = ids_.find(std::string(s));
    if (it != ids_.end()) return it->second;  // raced with another interner
    int64_t id = static_cast<int64_t>(strings_.size());
    strings_.emplace_back(s);
    ids_.emplace(strings_.back(), id);
    return id;
  }

  const std::string& Lookup(int64_t id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    SI_CHECK_GE(id, 0);
    SI_CHECK_LT(static_cast<size_t>(id), strings_.size());
    return strings_[static_cast<size_t>(id)];
  }

 private:
  mutable std::shared_mutex mu_;
  std::deque<std::string> strings_;
  std::unordered_map<std::string, int64_t> ids_;
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

bool Value::operator<(const Value& o) const {
  if (kind_ != o.kind_) return kind_ < o.kind_;
  if (is_int()) return payload_ < o.payload_;
  return AsString() < o.AsString();
}

}  // namespace scalein
