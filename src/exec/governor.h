#ifndef SCALEIN_EXEC_GOVERNOR_H_
#define SCALEIN_EXEC_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/status.h"

namespace scalein::exec {

struct OpCounters;

/// Which run-time limit stopped an evaluation.
enum class LimitKind {
  kNone = 0,
  kFetchBudget,  ///< the paper's M: base tuples fetched exceeded the cap
  kDeadline,     ///< wall-clock deadline passed
  kOutputRows,   ///< emitted answer/row cap reached
  kCancelled,    ///< cooperative cancellation token fired
};

/// Canonical lowercase name ("fetch-budget", "deadline", ...).
const char* LimitKindName(LimitKind kind);

/// Cooperative cancellation handle. Copies share one flag, so a caller keeps
/// a token, hands copies to GovernorLimits, and flips it from any thread;
/// every engine checkpoint observes the flip at its next (amortized) check.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The run-time resource envelope of one evaluation — the operational form of
/// the paper's "capacity of our available resources". Zero values disable a
/// limit. `deadline_ns` (absolute, MonotonicNowNs clock) wins over
/// `deadline_ms` (relative to Arm time) when both are set; multi-evaluation
/// engines (incremental maintainers) pin an absolute deadline once so the
/// whole batch shares one clock.
struct GovernorLimits {
  uint64_t fetch_budget = 0;    ///< max base tuples fetched
  uint64_t deadline_ms = 0;     ///< wall-clock budget from Arm()
  uint64_t deadline_ns = 0;     ///< absolute monotonic deadline
  uint64_t output_row_cap = 0;  ///< max rows/answers emitted
  bool has_cancel = false;
  CancellationToken cancel;     ///< observed only when has_cancel

  bool any() const {
    return fetch_budget != 0 || deadline_ms != 0 || deadline_ns != 0 ||
           output_row_cap != 0 || has_cancel;
  }

  /// Resolves a relative deadline into an absolute one against the current
  /// clock (no-op when already absolute or unset). Call once before fanning
  /// the same limits out to several evaluations.
  GovernorLimits Pinned() const;
};

/// What tripped, where, and how far the evaluation got — the structured
/// payload a degraded (partial) result carries instead of a bare error.
struct TripInfo {
  LimitKind kind = LimitKind::kNone;
  std::string detail;        ///< human-readable limit description
  int32_t op_id = -1;        ///< tripping operator's ExecContext::ops() id
  std::string op_label;      ///< tripping operator's label, when known
  uint64_t fetched_at_trip = 0;

  bool tripped() const { return kind != LimitKind::kNone; }
  /// "deadline: wall-clock deadline of 50ms exceeded (at op scan(friend),
  /// 123 tuples fetched)"
  std::string ToString() const;
  /// The typed Status a tripped evaluation propagates on its error path:
  /// kFetchBudget/kOutputRows → ResourceExhausted, kDeadline →
  /// DeadlineExceeded, kCancelled → Cancelled.
  Status ToStatus() const;
};

/// Unified run-time limit enforcement, owned by ExecContext and consulted by
/// every engine: exec operators and the bounded derivation walk charge
/// fetches through ExecContext (which forwards here), drains charge emitted
/// rows, and non-fetching search loops (QDSI subset search, witness
/// branch-and-bound, ∆QSI update enumeration) call Checkpoint() directly.
///
/// Cost model: with no limits armed every probe is one predicted branch.
/// With limits armed, fetch/output caps are an integer compare; the clock
/// and the cancellation flag are only consulted every kCheckInterval probes
/// (amortized — a trip is detected at most 64 events late, never early).
/// The first limit to trip is recorded in trip() and sticks; all later
/// probes return false immediately.
class ResourceGovernor {
 public:
  static constexpr uint32_t kCheckInterval = 64;

  /// Installs `limits` and starts the deadline clock. Re-arming clears any
  /// recorded trip and emitted-row count.
  void Arm(const GovernorLimits& limits);

  const GovernorLimits& limits() const { return limits_; }
  bool tripped() const { return trip_.kind != LimitKind::kNone; }
  const TripInfo& trip() const { return trip_; }
  uint64_t rows_emitted() const { return rows_emitted_; }

  /// Probe after a fetch charge; `total_fetched` is the context's running
  /// total. Returns false when tripped (now or earlier).
  bool OnFetch(uint64_t total_fetched, OpCounters* op) {
    if (trip_.kind != LimitKind::kNone) return false;
    if (limits_.fetch_budget != 0 && total_fetched > limits_.fetch_budget) {
      last_fetched_ = total_fetched;
      return Trip(LimitKind::kFetchBudget, op);
    }
    last_fetched_ = total_fetched;
    return TimeOk(op);
  }

  /// Probe after emitting `n` rows from a drain/root. Returns false when
  /// tripped.
  bool OnOutput(uint64_t n, OpCounters* op) {
    if (trip_.kind != LimitKind::kNone) return false;
    rows_emitted_ += n;
    if (limits_.output_row_cap != 0 && rows_emitted_ > limits_.output_row_cap) {
      return Trip(LimitKind::kOutputRows, op);
    }
    return TimeOk(op);
  }

  /// Pure progress probe for loops that do work without fetching (witness
  /// search nodes, QDSI subset enumeration, chase steps). Returns false when
  /// tripped.
  bool Checkpoint(OpCounters* op = nullptr) {
    if (trip_.kind != LimitKind::kNone) return false;
    return TimeOk(op);
  }

 private:
  bool TimeOk(OpCounters* op) {
    if (!has_time_limits_) return true;
    if (--check_countdown_ != 0) return true;
    check_countdown_ = kCheckInterval;
    return TimeOkSlow(op);
  }
  /// Reads the monotonic clock / cancellation flag; trips when past due.
  bool TimeOkSlow(OpCounters* op);
  /// Records the first trip (kind, detail, tripping op); returns false.
  bool Trip(LimitKind kind, OpCounters* op);

  GovernorLimits limits_;
  TripInfo trip_;
  uint64_t deadline_ns_ = 0;  ///< resolved absolute deadline; 0 = none
  uint64_t rows_emitted_ = 0;
  uint64_t last_fetched_ = 0;
  uint32_t check_countdown_ = kCheckInterval;
  bool has_time_limits_ = false;
};

/// A fetch capacity shared by concurrent holders: the server-wide pool that
/// serve session envelopes carve their leases from (serve/session.h). Each
/// holder Acquire()s up front and Release()s what it did not spend, so the
/// sum of live reservations never exceeds the capacity. Thread-safe: one
/// atomic reservation counter.
class SharedLedger {
 public:
  /// Installs a finite capacity of `capacity` units, none reserved.
  void Init(uint64_t capacity) {
    capacity_ = capacity;
    reserved_.store(0, std::memory_order_relaxed);
    unlimited_ = false;
  }

  /// True until Init() installs a finite capacity (every Acquire is then
  /// granted in full).
  bool unlimited() const { return unlimited_; }

  /// Grants up to `want` units; returns the amount granted, 0 when the
  /// ledger is exhausted.
  uint64_t Acquire(uint64_t want) {
    if (unlimited_) return want;
    uint64_t cur = reserved_.load(std::memory_order_relaxed);
    while (true) {
      if (cur >= capacity_) return 0;
      const uint64_t grant = want < capacity_ - cur ? want : capacity_ - cur;
      if (reserved_.compare_exchange_weak(cur, cur + grant,
                                          std::memory_order_relaxed)) {
        return grant;
      }
    }
  }

  /// Returns `n` previously Acquire()d units so later callers can reserve
  /// them — the envelope-lease refund path: a serve session reserves a
  /// query's static bound at admission and releases the unspent remainder
  /// at completion. No-op on an unlimited ledger; clamps at zero so a
  /// mismatched release can never underflow into a huge reservation.
  void Release(uint64_t n) {
    if (unlimited_ || n == 0) return;
    uint64_t cur = reserved_.load(std::memory_order_relaxed);
    while (true) {
      const uint64_t give = n < cur ? n : cur;
      if (reserved_.compare_exchange_weak(cur, cur - give,
                                          std::memory_order_relaxed)) {
        return;
      }
    }
  }

  /// Units currently reserved (for gauges; racy by nature).
  uint64_t Reserved() const { return reserved_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> reserved_{0};
  uint64_t capacity_ = 0;
  bool unlimited_ = true;
};

/// A structured partial result: what an engine produced before a governor
/// limit tripped (PIQL-style success tolerance — degrade, don't discard).
/// `complete` is true on a clean run (trip is then kNone and the value is
/// the full answer). For monotone engines the partial value is a genuine
/// subset of the full answer.
template <typename T>
struct Degraded {
  /// Default-constructible only when T is (answer sets are; Relation needs
  /// the value constructor below).
  Degraded() = default;
  explicit Degraded(T v) : value(std::move(v)) {}

  T value;
  bool complete = true;
  TripInfo trip;
  /// Per-operator counter snapshot at the trip (EXPLAIN ANALYZE input);
  /// captured on degraded results so the tripping operator is identifiable.
  std::vector<OpCounters> ops;
  uint64_t base_tuples_fetched = 0;
  uint64_t index_lookups = 0;
  /// Non-empty when a fallback engine produced `value` after the primary
  /// tripped (e.g. "approx" for the greedy budgeted CQ engine).
  std::string fallback;
};

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_GOVERNOR_H_
