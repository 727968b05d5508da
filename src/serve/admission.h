#ifndef SCALEIN_SERVE_ADMISSION_H_
#define SCALEIN_SERVE_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace scalein::serve {

/// What the admission controller decided to do with an arriving query.
/// The decision is made *before* execution from the query's static
/// Theorem 4.2 bound — the PIQL-style trick scale independence enables: a
/// conventional optimizer can only estimate what a query will touch, but
/// here the bound is a theorem, so admit/queue/degrade/reject is a sound
/// contract rather than a guess.
enum class AdmitAction {
  kAdmit,    ///< bound fits the envelope and a run slot is free
  kQueue,    ///< bound fits but all run slots are busy — bounded FIFO wait
  kDegrade,  ///< bound exceeds the remaining budget; run under a reduced
             ///< sub-budget yielding a sound Degraded<T> extent
  kReject,   ///< cannot be served within the SLA; structured refusal
};

/// Canonical lowercase name ("admit", "queue", "degrade", "reject").
const char* AdmitActionName(AdmitAction action);

/// Reasons a query is rejected (or shed after queueing). Stable names feed
/// `serve.rejected.<reason>` counters and the journaled verdict text.
enum class RejectReason {
  kNone = 0,
  kNoStaticBound,   ///< non-controllable: no finite bound to admit against
  kBudgetExhausted, ///< bound exceeds remaining budget, degrade not viable
  kQueueFull,       ///< bounded FIFO at capacity
  kQueueClassFull,  ///< this bound-class's queue share at capacity
  kQueueTimeout,    ///< queued, but no run slot freed within the timeout
  kDraining,        ///< server is shutting down; not accepting work
};
constexpr size_t kRejectReasons = 7;

const char* RejectReasonName(RejectReason reason);

/// Per-query bound class for queue backpressure: queries are bucketed by
/// the magnitude of their static bound so a burst of heavy queries cannot
/// starve cheap interactive ones out of the bounded FIFO. Deterministic in
/// the bound alone.
enum class BoundClass { kSmall = 0, kMedium, kLarge, kHuge };
constexpr size_t kBoundClasses = 4;

BoundClass ClassifyBound(double static_bound);
const char* BoundClassName(BoundClass c);

/// The server's SLA contract, normally parsed from SCALEIN_SLA_* environment
/// variables (see FromEnv). Zero means "disabled/unlimited" for budgets and
/// deadlines, mirroring exec::GovernorLimits.
struct SlaConfig {
  /// Fetch budget leased to each session envelope at `hello` — the session's
  /// whole SLA allowance; admitted queries reserve their static bound
  /// against it and refund what they did not use. 0 = unlimited.
  uint64_t session_fetch_budget = 100000;
  /// Server-wide fetch capacity the per-session leases are carved from.
  /// 0 = unlimited (every session gets its full lease).
  uint64_t server_fetch_capacity = 0;
  uint64_t query_deadline_ms = 0;  ///< per-query wall-clock envelope
  uint64_t output_row_cap = 0;     ///< per-query emitted-row cap
  bool allow_degrade = true;
  /// Smallest sub-budget worth running a degraded query under; below this
  /// the query is rejected instead (a 3-tuple budget yields a useless
  /// extent but still pays planning + dispatch).
  uint64_t degrade_floor = 16;
  size_t queue_capacity = 64;        ///< bounded FIFO across all classes
  size_t queue_class_capacity = 16;  ///< per-BoundClass share of the FIFO
  uint64_t queue_timeout_ms = 100;   ///< max queue wait before shedding
  /// Concurrent run slots: how many admitted queries evaluate at once, each
  /// on its caller's thread. The server's one concurrency setting.
  size_t max_running = 1;
  /// `max_running` with 0 read as 1.
  size_t RunSlots() const { return max_running == 0 ? 1 : max_running; }

  /// Reads SCALEIN_SLA_SESSION_BUDGET, SCALEIN_SLA_SERVER_BUDGET,
  /// SCALEIN_SLA_QUERY_DEADLINE_MS, SCALEIN_SLA_ROW_CAP,
  /// SCALEIN_SLA_DEGRADE (0 disables), SCALEIN_SLA_DEGRADE_FLOOR,
  /// SCALEIN_SLA_QUEUE_CAP, SCALEIN_SLA_QUEUE_CLASS_CAP,
  /// SCALEIN_SLA_QUEUE_TIMEOUT_MS, SCALEIN_SLA_MAX_RUNNING over the
  /// defaults above; unset/garbage variables keep the default.
  static SlaConfig FromEnv();

  std::string ToString() const;
};

/// Everything the admission decision may depend on — captured explicitly so
/// the decision is a pure function and therefore byte-identical for a fixed
/// arrival script, whatever threads deliver it (the determinism contract the
/// serve tests pin down).
struct AdmissionInput {
  double static_bound = -1.0;    ///< Theorem 4.2 bound; < 0 = none derived
  uint64_t budget_remaining = 0; ///< session envelope units still unreserved
  bool budget_unlimited = false; ///< envelope has no fetch budget armed
  size_t running = 0;            ///< queries currently holding run slots
  size_t queued_total = 0;       ///< bounded-FIFO occupancy, all classes
  size_t queued_in_class = 0;    ///< occupancy of this query's BoundClass
  bool draining = false;         ///< server is shutting down
};

/// The structured outcome: action, the bound that justified it, the
/// sub-budget an admitted/degraded run must execute under, and a
/// deterministic retry-after hint for rejections.
struct AdmissionDecision {
  AdmitAction action = AdmitAction::kReject;
  RejectReason reject = RejectReason::kNone;
  double static_bound = -1.0;
  /// Fetch lease for admit (= ceil(bound)) or degrade (= remaining budget);
  /// 0 when the envelope is unlimited (run unbudgeted) or on reject.
  uint64_t sub_budget = 0;
  /// Rejection hint: how long the client should wait before retrying.
  /// 0 = retrying will not help (e.g. the bound exceeds the whole lease).
  uint64_t retry_after_ms = 0;
  std::string reason;  ///< deterministic human-readable justification

  /// "admit bound=50 lease=50" / "reject(budget) bound=2500 remaining=100
  /// retry-after=100ms: ..." — no wall-clock content, so decision logs are
  /// byte-comparable across runs and thread counts.
  std::string ToString() const;
};

/// Derives the admit/queue/degrade/reject decision. Pure and allocation-light;
/// the server calls it under its session mutex so queue/run-slot state is
/// consistent, but nothing here reads a clock or global state.
AdmissionDecision DecideAdmission(const AdmissionInput& in,
                                  const SlaConfig& config);

}  // namespace scalein::serve

#endif  // SCALEIN_SERVE_ADMISSION_H_
