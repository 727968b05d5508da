#ifndef SCALEIN_RELATIONAL_VALUE_H_
#define SCALEIN_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/check.h"
#include "util/strings.h"

namespace scalein {

/// A database constant drawn from the countably infinite domain U of the
/// paper (§2). Two kinds are supported: 64-bit integers and interned strings.
///
/// Values are 16 bytes, trivially copyable, and hash in O(1): string payloads
/// are ids into a process-wide interner, so equality never touches character
/// data. The interner is append-only and leaked at shutdown (Google-style
/// static storage). Interning takes its lock; reading an interned string
/// (`AsString`, ordering) takes none, so concurrent server evaluations
/// compare and render values while another thread interns.
class Value {
 public:
  enum class Kind : uint8_t { kInt = 0, kString = 1 };

  /// Default-constructs the integer 0.
  Value() : payload_(0), kind_(Kind::kInt) {}

  /// Creates an integer value.
  static Value Int(int64_t v) { return Value(v, Kind::kInt); }

  /// Creates a string value, interning `s`.
  static Value Str(std::string_view s);

  Kind kind() const { return kind_; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// The integer payload; requires `is_int()`.
  int64_t AsInt() const {
    SI_CHECK(is_int());
    return payload_;
  }

  /// The interned string; requires `is_string()`. The reference is stable for
  /// the life of the process.
  const std::string& AsString() const;

  /// Renders the value for display: integers as decimal, strings quoted.
  std::string ToString() const;

  /// Total order: all ints before all strings; ints by value, strings
  /// lexicographically (not by intern id, so ordering is deterministic).
  /// Inline for ints, mixed kinds and equal strings (same id); only two
  /// distinct strings read characters.
  bool operator<(const Value& o) const {
    if (kind_ != o.kind_) return kind_ < o.kind_;
    if (kind_ == Kind::kInt || payload_ == o.payload_) {
      return payload_ < o.payload_;
    }
    return StringLess(payload_, o.payload_);
  }
  bool operator==(const Value& o) const {
    return kind_ == o.kind_ && payload_ == o.payload_;
  }
  bool operator!=(const Value& o) const { return !(*this == o); }

  /// O(1) hash suitable for unordered containers.
  uint64_t Hash() const {
    return HashCombine(static_cast<uint64_t>(kind_),
                       static_cast<uint64_t>(payload_) * 0x9e3779b97f4a7c15ULL);
  }

 private:
  Value(int64_t payload, Kind kind) : payload_(payload), kind_(kind) {}

  /// Lexicographic order of two interned strings, by id.
  static bool StringLess(int64_t a, int64_t b);

  int64_t payload_;
  Kind kind_;
};

struct ValueHash {
  uint64_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace scalein

#endif  // SCALEIN_RELATIONAL_VALUE_H_
