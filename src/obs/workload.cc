#include "obs/workload.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace scalein::obs {
namespace {

/// Bumps the bucket covering `value`, kept as plain vectors so snapshots
/// need no atomics. Placement delegates to obs::HistogramBucketIndex — the
/// one rule shared with obs::Histogram, so the aggregator's buckets and the
/// metrics registry's can never drift apart.
void ObserveBucket(std::vector<uint64_t>* buckets,
                   const std::vector<double>& edges, double value) {
  if (buckets->empty()) buckets->assign(edges.size() + 1, 0);
  ++(*buckets)[HistogramBucketIndex(edges, value)];
}

/// The canonical per-class line. scripts/workload_report.py emits byte-for-
/// byte identical lines from the journal, so the online `workload top` view
/// and the offline report can be diffed directly; keep the two in sync.
std::string FormatFingerprintLine(const WorkloadFingerprintStats& s) {
  std::string accuracy = s.accuracy_count > 0
                             ? StrFormat("%.4f", s.MeanAccuracy())
                             : std::string("-");
  return StrFormat(
      "  %s n=%llu within=%llu exceeded=%llu tripped=%llu nobound=%llu "
      "nonctrl=%llu fetches=%llu accuracy=%s\n",
      s.fingerprint.c_str(), static_cast<unsigned long long>(s.count),
      static_cast<unsigned long long>(s.within),
      static_cast<unsigned long long>(s.exceeded),
      static_cast<unsigned long long>(s.tripped),
      static_cast<unsigned long long>(s.no_bound),
      static_cast<unsigned long long>(s.noncontrollable),
      static_cast<unsigned long long>(s.total_fetches), accuracy.c_str());
}

std::string RenderBuckets(const std::vector<uint64_t>& buckets,
                          const std::vector<double>& edges) {
  std::string out;
  if (buckets.empty()) return out;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (!out.empty()) out += " ";
    if (i < edges.size()) {
      out += StrFormat("le_%g=%llu", edges[i],
                       static_cast<unsigned long long>(buckets[i]));
    } else {
      out += StrFormat("inf=%llu", static_cast<unsigned long long>(buckets[i]));
    }
  }
  return out;
}

/// Upper edges, in percent, of the global bound-slack histogram (see
/// WorkloadAggregator::SlackPercentilePercent).
const std::vector<double>& SlackBucketEdges() {
  static const std::vector<double>* edges = [] {
    auto* out = new std::vector<double>;
    for (double decade = 1; decade < 1e14; decade *= 10) {
      for (double m : {10, 12, 15, 20, 25, 30, 40, 50, 60, 80}) {
        out->push_back(m * decade);
      }
    }
    out->push_back(1e15);
    return out;
  }();
  return *edges;
}

}  // namespace

const std::vector<double>& FetchBucketEdges() {
  static const std::vector<double>* edges = new std::vector<double>{
      1, 10, 100, 1000, 10000, 100000, 1000000};
  return *edges;
}

void WorkloadAggregator::Observe(const AccessCertificate& cert,
                                 double latency_ms, bool noncontrollable) {
  std::lock_guard<std::mutex> lock(mu_);
  WorkloadFingerprintStats& s = by_fingerprint_[cert.query_fingerprint];
  if (s.count == 0) {
    s.fingerprint = cert.query_fingerprint;
    s.sample_query = cert.query_text;
    s.min_fetches = cert.actual_fetches;
  }
  if (!cert.query_id.empty()) s.last_query_id = cert.query_id;
  ++s.count;
  ++observations_;
  switch (cert.verdict) {
    case CertVerdict::kWithinBound:
      ++s.within;
      break;
    case CertVerdict::kExceeded:
      ++s.exceeded;
      break;
    case CertVerdict::kTripped:
      ++s.tripped;
      break;
    case CertVerdict::kNoStaticBound:
      ++s.no_bound;
      break;
  }
  if (noncontrollable) {
    ++s.noncontrollable;
    ++noncontrollable_;
  }
  s.total_fetches += cert.actual_fetches;
  s.min_fetches = std::min(s.min_fetches, cert.actual_fetches);
  s.max_fetches = std::max(s.max_fetches, cert.actual_fetches);
  ObserveBucket(&s.fetch_buckets, FetchBucketEdges(),
                static_cast<double>(cert.actual_fetches));
  if (latency_ms >= 0) {
    static const std::vector<double>* latency_edges =
        new std::vector<double>(DefaultLatencyBucketsMs());
    ObserveBucket(&s.latency_buckets, *latency_edges, latency_ms);
    s.latency_sum_ms += latency_ms;
    ++s.latency_count;
  }
  // Accuracy/slack only make sense against a positive finite static bound
  // (tripped runs have partial accounting — their ratio would slander the
  // bound, so they are excluded).
  if (cert.static_bound > 0 && !cert.tripped) {
    const double actual =
        static_cast<double>(cert.actual_fetches > 0 ? cert.actual_fetches : 1);
    s.accuracy_sum +=
        static_cast<double>(cert.actual_fetches) / cert.static_bound;
    s.slack_sum += cert.static_bound / actual;
    ++s.accuracy_count;
    ObserveBucket(&slack_buckets_, SlackBucketEdges(),
                  100.0 * cert.static_bound / actual);
  }
}

size_t WorkloadAggregator::fingerprints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_fingerprint_.size();
}

uint64_t WorkloadAggregator::observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observations_;
}

uint64_t WorkloadAggregator::noncontrollable_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return noncontrollable_;
}

std::vector<WorkloadFingerprintStats> WorkloadAggregator::Top(size_t k) const {
  std::vector<WorkloadFingerprintStats> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(by_fingerprint_.size());
    for (const auto& [fp, s] : by_fingerprint_) all.push_back(s);
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const WorkloadFingerprintStats& a,
                      const WorkloadFingerprintStats& b) {
                     if (a.count != b.count) return a.count > b.count;
                     return a.fingerprint < b.fingerprint;
                   });
  if (all.size() > k) all.resize(k);
  return all;
}

bool WorkloadAggregator::Find(const std::string& fingerprint,
                              WorkloadFingerprintStats* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_fingerprint_.find(fingerprint);
  if (it == by_fingerprint_.end()) return false;
  *out = it->second;
  return true;
}

std::string WorkloadAggregator::RenderTop(size_t k) const {
  uint64_t obs;
  uint64_t nonctrl;
  size_t classes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    obs = observations_;
    nonctrl = noncontrollable_;
    classes = by_fingerprint_.size();
  }
  std::string out = StrFormat(
      "workload: %zu fingerprint(s), %llu observation(s), %llu "
      "non-controllable\n",
      classes, static_cast<unsigned long long>(obs),
      static_cast<unsigned long long>(nonctrl));
  for (const WorkloadFingerprintStats& s : Top(k)) {
    out += FormatFingerprintLine(s);
  }
  return out;
}

std::string WorkloadAggregator::RenderFingerprint(
    const std::string& fingerprint) const {
  WorkloadFingerprintStats s;
  if (!Find(fingerprint, &s)) {
    return "fingerprint " + fingerprint + " not observed\n";
  }
  std::string out = "fingerprint " + s.fingerprint + "\n";
  out += "  query: " + s.sample_query + "\n";
  out += "  last query id: " +
         (s.last_query_id.empty() ? std::string("-") : s.last_query_id) + "\n";
  out += FormatFingerprintLine(s);
  out += StrFormat("  fetches: min=%llu mean=%.1f max=%llu\n",
                   static_cast<unsigned long long>(s.min_fetches),
                   s.count > 0 ? static_cast<double>(s.total_fetches) /
                                     static_cast<double>(s.count)
                               : 0.0,
                   static_cast<unsigned long long>(s.max_fetches));
  if (s.accuracy_count > 0) {
    out += StrFormat(
        "  bound accuracy: mean actual/bound=%.4f, mean slack=%.1fx over "
        "%llu bounded run(s)\n",
        s.MeanAccuracy(), s.MeanSlack(),
        static_cast<unsigned long long>(s.accuracy_count));
  }
  if (s.latency_count > 0) {
    out += StrFormat("  latency: mean=%.3f ms over %llu run(s)\n",
                     s.latency_sum_ms / static_cast<double>(s.latency_count),
                     static_cast<unsigned long long>(s.latency_count));
  }
  static const std::vector<double>* latency_edges =
      new std::vector<double>(DefaultLatencyBucketsMs());
  const std::string latency_hist =
      RenderBuckets(s.latency_buckets, *latency_edges);
  if (!latency_hist.empty()) out += "  latency_ms: " + latency_hist + "\n";
  const std::string fetch_hist = RenderBuckets(s.fetch_buckets,
                                               FetchBucketEdges());
  if (!fetch_hist.empty()) out += "  fetch_hist: " + fetch_hist + "\n";
  return out;
}

int64_t WorkloadAggregator::SlackPercentilePercent(double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (uint64_t n : slack_buckets_) total += n;
  if (total == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(total));
  const uint64_t target = rank <= 1 ? 1 : static_cast<uint64_t>(rank);
  const std::vector<double>& edges = SlackBucketEdges();
  uint64_t seen = 0;
  for (size_t i = 0; i < edges.size(); ++i) {
    seen += slack_buckets_[i];
    if (seen >= target) return static_cast<int64_t>(edges[i]);
  }
  return static_cast<int64_t>(edges.back());  // the overflow bucket
}

void WorkloadAggregator::ExportMetrics(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->GetGauge("workload.fingerprints")
      .Set(static_cast<int64_t>(fingerprints()));
  registry->GetGauge("workload.observations")
      .Set(static_cast<int64_t>(observations()));
  registry->GetGauge("workload.noncontrollable_total")
      .Set(static_cast<int64_t>(noncontrollable_total()));
  registry->GetGauge("workload.bound_slack_p50")
      .Set(SlackPercentilePercent(50));
  registry->GetGauge("workload.bound_slack_p99")
      .Set(SlackPercentilePercent(99));
}

void WorkloadAggregator::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  by_fingerprint_.clear();
  slack_buckets_.clear();
  observations_ = 0;
  noncontrollable_ = 0;
}

}  // namespace scalein::obs
