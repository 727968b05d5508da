#ifndef SCALEIN_OBS_WORKLOAD_H_
#define SCALEIN_OBS_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"

namespace scalein::obs {

/// Per-query-fingerprint workload telemetry: everything the view advisor and
/// bound-based admission control need to know about a recurring query
/// class — how often it runs, how its static Theorem 4.2 bound compares to
/// what it actually fetched, how often it tripped the governor or turned out
/// non-controllable.
struct WorkloadFingerprintStats {
  std::string fingerprint;
  std::string sample_query;    ///< first query text seen for this class
  std::string last_query_id;   ///< correlation id of the latest observation

  uint64_t count = 0;          ///< observations (including non-controllable)
  uint64_t within = 0;         ///< verdict tallies …
  uint64_t exceeded = 0;
  uint64_t tripped = 0;
  uint64_t no_bound = 0;
  uint64_t noncontrollable = 0;  ///< evaluations rejected by Thm 4.2 analysis

  uint64_t total_fetches = 0;
  uint64_t min_fetches = 0;
  uint64_t max_fetches = 0;

  /// Bound accuracy: Σ actual/bound over bounded (bound > 0) observations.
  /// A mean near 1 means the static bound is tight; near 0 means huge slack
  /// (an FD-aware bound would admit this class under a smaller SLA budget).
  double accuracy_sum = 0;
  uint64_t accuracy_count = 0;

  /// Bound slack: Σ bound/max(actual,1) over the same observations.
  double slack_sum = 0;

  /// Histogram counts per DefaultLatencyBucketsMs() edge + overflow.
  std::vector<uint64_t> latency_buckets;
  /// Histogram counts per FetchBucketEdges() edge + overflow.
  std::vector<uint64_t> fetch_buckets;
  double latency_sum_ms = 0;
  uint64_t latency_count = 0;

  /// Mean actual/bound; negative when no bounded observation exists.
  double MeanAccuracy() const {
    return accuracy_count > 0
               ? accuracy_sum / static_cast<double>(accuracy_count)
               : -1.0;
  }
  /// Mean bound/actual ("how many times over-provisioned"); negative when
  /// no bounded observation exists.
  double MeanSlack() const {
    return accuracy_count > 0 ? slack_sum / static_cast<double>(accuracy_count)
                              : -1.0;
  }
};

/// Bucket edges for the per-fingerprint fetch-count histogram.
const std::vector<double>& FetchBucketEdges();

/// Aggregates sealed certificates (live evals and journal replays alike)
/// into per-fingerprint statistics. Thread-safe; deterministic given the
/// same observation sequence — `RenderTop` deliberately excludes wall-clock
/// numbers so its bytes are identical across thread counts and reruns.
class WorkloadAggregator {
 public:
  WorkloadAggregator() = default;
  WorkloadAggregator(const WorkloadAggregator&) = delete;
  WorkloadAggregator& operator=(const WorkloadAggregator&) = delete;

  /// Folds one evaluation in. `latency_ms < 0` skips the latency histogram
  /// (journal entries written before latency tracking). `noncontrollable`
  /// marks an evaluation the Thm 4.2 analysis rejected outright.
  void Observe(const AccessCertificate& cert, double latency_ms,
               bool noncontrollable);

  size_t fingerprints() const;
  uint64_t observations() const;
  uint64_t noncontrollable_total() const;

  /// Top `k` classes by (count desc, fingerprint asc).
  std::vector<WorkloadFingerprintStats> Top(size_t k) const;
  /// Looks one class up; false when the fingerprint was never observed.
  bool Find(const std::string& fingerprint,
            WorkloadFingerprintStats* out) const;

  /// The `workload [top K]` shell rendering: a summary header plus one line
  /// per class. scripts/workload_report.py emits the identical lines, so
  /// online and offline views are byte-comparable.
  std::string RenderTop(size_t k) const;
  /// The `workload fingerprint <fp>` detail rendering (adds latency, which
  /// is why it is *not* part of the deterministic surface).
  std::string RenderFingerprint(const std::string& fingerprint) const;

  /// Nearest-rank percentile of bound-slack percent (100*bound/max(actual,1))
  /// across every bounded observation, at bucket resolution: the upper edge
  /// of the slack bucket that holds the nearest rank; 0 when none. The edges
  /// are 10, 12, 15, 20, 25, 30, 40, 50, 60 and 80 % times 10^0 through
  /// 10^13, then 10^15, which slack past it also reads as; neighbouring
  /// edges are at most a third apart. `p` in (0, 100].
  int64_t SlackPercentilePercent(double p) const;

  /// Publishes workload.fingerprints, workload.observations,
  /// workload.noncontrollable_total, and workload.bound_slack_p50/p99
  /// gauges — visible in `stats prom` for bench sidecars.
  void ExportMetrics(MetricsRegistry* registry) const;

  void Clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, WorkloadFingerprintStats> by_fingerprint_;
  /// Global bound-slack counts per slack bucket edge + overflow: a fixed
  /// size, however many requests are observed.
  std::vector<uint64_t> slack_buckets_;
  uint64_t observations_ = 0;
  uint64_t noncontrollable_ = 0;
};

}  // namespace scalein::obs

#endif  // SCALEIN_OBS_WORKLOAD_H_
