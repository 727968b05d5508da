#ifndef SCALEIN_BENCH_BENCH_UTIL_H_
#define SCALEIN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace scalein::bench {

/// Machine-readable sidecar for a benchmark run: collects flat key → value
/// metrics and writes them as BENCH_<name>.json in the working directory.
/// Keys keep insertion order so the file diffs cleanly between runs; values
/// are numbers or strings. Intended for plotting scripts and regression
/// checks that should not scrape the human-readable tables.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { Write(); }

  void Add(const std::string& key, uint64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    entries_.emplace_back(key, buf);
  }
  void Add(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + Escape(value) + "\"");
  }

  /// Writes BENCH_<name>.json; called automatically from the destructor
  /// (subsequent calls are no-ops).
  void Write() {
    if (written_) return;
    written_ = true;
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot open %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": {",
                 Escape(name_).c_str());
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %s", i == 0 ? "" : ",",
                   Escape(entries_[i].first).c_str(),
                   entries_[i].second.c_str());
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\r':
          out += "\\r";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          // JSON forbids raw control characters inside strings.
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out.push_back(c);
          }
      }
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
  bool written_ = false;
};

/// Wall-clock stopwatch in milliseconds.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Repeats `fn` until at least `min_ms` of wall time has elapsed (at least
/// once); returns the mean per-iteration time in milliseconds.
template <typename Fn>
double MeasureMs(Fn&& fn, double min_ms = 20.0) {
  // Warmup.
  fn();
  Timer timer;
  int iters = 0;
  do {
    fn();
    ++iters;
  } while (timer.ElapsedMs() < min_ms);
  return timer.ElapsedMs() / iters;
}

/// Median of `v` (0 when empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  return (v[mid] + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
}

/// An interleaved A/B comparison: per pair, B's time over A's; their median
/// and a 95% percentile-bootstrap confidence interval of that median.
struct Comparison {
  std::vector<double> ratios;  ///< B/A, one per pair
  double a_ms = 0;             ///< median A sample
  double b_ms = 0;             ///< median B sample
  double median = 0;
  double ci_low = 0;
  double ci_high = 0;

  /// Recomputes median and CI from `ratios`: 2,000 resamples with a fixed
  /// seed, so the same ratios always give the same interval.
  void Summarize() {
    median = Median(ratios);
    const size_t n = ratios.size();
    if (n == 0) return;
    uint64_t state = 0x5eedULL;
    auto next = [&state] {  // SplitMix64
      uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    constexpr size_t kResamples = 2000;
    std::vector<double> medians(kResamples);
    std::vector<double> sample(n);
    for (double& m : medians) {
      for (double& x : sample) x = ratios[next() % n];
      m = Median(sample);
    }
    std::sort(medians.begin(), medians.end());
    ci_low = medians[kResamples * 25 / 1000];
    ci_high = medians[kResamples * 975 / 1000 - 1];
  }
};

/// Repeat-and-compare in one process: takes `pairs` samples of each side,
/// A B, B A, A B, … (each pair alternates which side runs first), and
/// compares each B sample with the A sample it was paired with. Clock-speed
/// drift and neighbour load change slowly next to one pair, so they cancel
/// in the pair's ratio instead of landing on whichever side ran in a slow
/// phase. `a()` and `b()` each return one timed sample, e.g. MeasureMs over
/// a short window.
template <typename SampleA, typename SampleB>
Comparison CompareInterleaved(SampleA&& a, SampleB&& b, size_t pairs) {
  Comparison c;
  std::vector<double> as, bs;
  for (size_t i = 0; i < pairs; ++i) {
    double ta = 0, tb = 0;
    if (i % 2 == 0) {
      ta = a();
      tb = b();
    } else {
      tb = b();
      ta = a();
    }
    as.push_back(ta);
    bs.push_back(tb);
    if (ta > 0) c.ratios.push_back(tb / ta);
  }
  c.a_ms = Median(as);
  c.b_ms = Median(bs);
  c.Summarize();
  return c;
}

/// Measured parallelism of this host: a spin loop calibrated to ~40 ms on
/// one thread is run once alone, then once on every hardware thread at the
/// same time; returns N * t1 / tN. Unlike hardware_concurrency(), this sees
/// CPU quotas and busy neighbours, so a timing gate's failure can be told
/// apart from a host that could not run its threads at once.
inline double EffectiveCpus() {
  auto spin = [](uint64_t iters) {
    volatile uint64_t x = 1;  // keeps the loop from being folded away
    for (uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ULL + i;
  };
  uint64_t iters = uint64_t{1} << 20;
  for (;;) {
    Timer t;
    spin(iters);
    if (t.ElapsedMs() > 40.0 || iters > (uint64_t{1} << 34)) break;
    iters *= 2;
  }
  Timer one;
  spin(iters);
  const double t1 = one.ElapsedMs();
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  Timer all;
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) threads.emplace_back(spin, iters);
  for (std::thread& t : threads) t.join();
  const double tn = all.ElapsedMs();
  return tn > 0 ? n * t1 / tn : 1.0;
}

inline void Header(const char* experiment, const char* paper_artifact,
                   const char* expectation) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper artifact : %s\n", paper_artifact);
  std::printf("expected shape : %s\n", expectation);
  std::printf("================================================================\n");
}

}  // namespace scalein::bench

#endif  // SCALEIN_BENCH_BENCH_UTIL_H_
