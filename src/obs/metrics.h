#ifndef SCALEIN_OBS_METRICS_H_
#define SCALEIN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace scalein::obs {

/// Monotonically increasing counter (e.g. queries executed, tuples fetched).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. relation sizes, budget left).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// The one bucket-placement rule: the index of the first edge in `edges`
/// (ascending, inclusive upper bounds) that covers `value`, or edges.size()
/// for the implicit +inf overflow bucket. Histogram::Observe and the
/// workload aggregator's plain-vector histograms both place through this
/// helper, so online metrics and offline reports can never disagree on
/// which bucket an observation landed in.
size_t HistogramBucketIndex(const std::vector<double>& edges, double value);

/// Fixed-bucket histogram: `upper_bounds` are inclusive bucket upper edges
/// in ascending order, with an implicit final +inf bucket. Observations also
/// feed a running count and sum, so means are recoverable from a snapshot.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket counts; one longer than `upper_bounds()` (+inf bucket last).
  std::vector<uint64_t> bucket_counts() const;

 private:
  std::vector<double> upper_bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Power-of-ten latency edges in milliseconds (1µs .. 10s), the default for
/// query-latency histograms.
std::vector<double> DefaultLatencyBucketsMs();

/// Named metric container. Instruments are created on first use and live for
/// the registry's lifetime (pointers stay valid), so hot paths can resolve a
/// metric once and increment a raw pointer afterwards. Scopes: construct one
/// per component/evaluation for isolated accounting, or use `Global()` for
/// process-wide totals. All methods are thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// The counter named `name` if it already exists, else nullptr. Read-only
  /// probes use this so probing never mints empty metrics.
  const Counter* FindCounter(const std::string& name) const;
  /// First call fixes the bucket layout; later calls with a different layout
  /// return the existing histogram unchanged.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds = {});

  /// JSON snapshot:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  ///  buckets:[{le,count},...]}}} — keys sorted, so output is deterministic.
  std::string ToJson() const;

  /// Prometheus text exposition format (version 0.0.4): every metric gets a
  /// `# HELP x <original dotted name>` line (the registry's dotted name is
  /// the description — it survives sanitization, so a scraper can map the
  /// series back to `stats` output) followed by `# TYPE`; counters as
  /// `# TYPE x counter`, gauges as gauge, histograms as the conventional
  /// `x_bucket{le="..."}` series with *cumulative* bucket counts plus
  /// `x_sum`/`x_count` (`le="+Inf"` last). Metric names are sanitized ('.'
  /// and any other non-[a-zA-Z0-9_:] byte become '_') since the registry's
  /// dotted names are not legal Prometheus identifiers. Deterministic (keys
  /// sorted).
  std::string ToPrometheusText() const;

  /// Process-wide registry.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// One fixed-name series of a registry, looked up at its first use and kept:
/// the registry never drops a series, so the pointer stays valid. The series
/// appears in the registry exactly when an uncached lookup would create it,
/// and later uses skip the registry's lock and map. Thread-safe: racing
/// first uses find the same series.
template <typename T>
class Series {
 public:
  Series(MetricsRegistry* registry, std::string name)
      : registry_(registry), name_(std::move(name)) {}
  Series(const Series&) = delete;
  Series& operator=(const Series&) = delete;

  T& Get() {
    T* series = cached_.load(std::memory_order_acquire);
    if (series == nullptr) {
      if constexpr (std::is_same_v<T, Counter>) {
        series = &registry_->GetCounter(name_);
      } else if constexpr (std::is_same_v<T, Gauge>) {
        series = &registry_->GetGauge(name_);
      } else {
        series = &registry_->GetHistogram(name_);
      }
      cached_.store(series, std::memory_order_release);
    }
    return *series;
  }

 private:
  MetricsRegistry* const registry_;
  const std::string name_;
  std::atomic<T*> cached_{nullptr};
};

/// RAII latency probe: observes elapsed milliseconds into a histogram on
/// destruction (no-op when `histogram` is nullptr).
class ScopedLatencyMs {
 public:
  explicit ScopedLatencyMs(Histogram* histogram);
  ~ScopedLatencyMs();
  ScopedLatencyMs(const ScopedLatencyMs&) = delete;
  ScopedLatencyMs& operator=(const ScopedLatencyMs&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_ns_ = 0;
};

}  // namespace scalein::obs

#endif  // SCALEIN_OBS_METRICS_H_
