#include "util/strings.h"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace scalein {
namespace {

template <typename T>
Result<T> FromChars(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("number out of range: '" +
                                   std::string(text) + "'");
  }
  if (ec != std::errc() || ptr != end) {
    if (text.empty()) return Status::InvalidArgument("expected a number");
    return Status::InvalidArgument("expected a number, got '" +
                                   std::string(text) + "'");
  }
  return value;
}

}  // namespace

template <typename Int>
Result<Int> ParseInteger(std::string_view text) {
  return FromChars<Int>(text);
}
template Result<int64_t> ParseInteger<int64_t>(std::string_view text);
template Result<uint64_t> ParseInteger<uint64_t>(std::string_view text);

Result<double> ParseDouble(std::string_view text) {
  SI_ASSIGN_OR_RETURN(double value, FromChars<double>(text));
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("expected a finite number, got '" +
                                   std::string(text) + "'");
  }
  return value;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' ||
                   s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(StripWhitespace(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace scalein
