#ifndef WIREBENCH_COMMON_H_
#define WIREBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace wirebench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile, `p` in [0, 100]; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double Median(const std::vector<double>& v) {
  return Percentile(v, 50);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Pass/fail bookkeeping of one run: every attempted operation counts, and
/// the first few failure reasons are kept for stderr.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> reasons;

  void Ok() { ++attempted; }
  void Fail(std::string why) {
    ++attempted;
    ++failed;
    if (reasons.size() < 8) reasons.push_back(std::move(why));
  }
  /// A failure that is not an operation (a bad exit status, a broken check).
  void Broken(std::string why) {
    ++failed;
    if (reasons.size() < 8) reasons.push_back(std::move(why));
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& r : o.reasons) {
      if (reasons.size() < 8) reasons.push_back(r);
    }
  }
};

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& entry : entries_) {
      if (entry.first == name) {
        entry.second = {value, unit};
        return;
      }
    }
    entries_.push_back({name, {value, unit}});
  }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// What a server response frame for an eval says about itself.
struct EvalReply {
  bool admitted = false;
  bool partial = false;
  int64_t answers = -1;
  int64_t fetched = -1;
};

/// Parses "q<N> admit bound=...\n<rows>\n(A answers, F base tuples
/// fetched)\n".
inline EvalReply ParseEvalReply(const std::string& body) {
  EvalReply r;
  const size_t sp = body.find(' ');
  r.admitted = sp != std::string::npos && body.compare(sp + 1, 6, "admit ") == 0;
  const size_t tail = body.rfind(" answers, ");
  if (tail == std::string::npos) return r;
  const size_t open = body.rfind('(', tail);
  if (open == std::string::npos) return r;
  r.answers = std::strtoll(body.c_str() + open + 1, nullptr, 10);
  r.fetched = std::strtoll(body.c_str() + tail + 10, nullptr, 10);
  r.partial = body.find(", partial)", tail) != std::string::npos;
  return r;
}

}  // namespace wirebench

#endif  // WIREBENCH_COMMON_H_
