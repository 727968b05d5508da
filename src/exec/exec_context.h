#ifndef SCALEIN_EXEC_EXEC_CONTEXT_H_
#define SCALEIN_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "exec/governor.h"
#include "obs/correlation.h"
#include "relational/database.h"
#include "util/status.h"

namespace scalein::obs {
class MetricsRegistry;
class Tracer;
}  // namespace scalein::obs

namespace scalein::exec {

/// Per-operator accounting: one entry per operator (or bounded-derivation
/// node) instance in a plan. Kept addressable for the lifetime of the
/// ExecContext so operators can bump their counters without a lookup on the
/// hot path. `id`/`parent` link the entries into the executed tree that
/// EXPLAIN ANALYZE renders (obs/explain.h); the `*_ns` wall-time fields are
/// populated only when the context has timing enabled.
struct OpCounters {
  std::string label;            ///< e.g. "scan(friend)", "idx-join(visit)"
  int32_t id = -1;              ///< index into ExecContext::ops()
  int32_t parent = -1;          ///< parent op id; -1 for roots
  uint64_t rows_out = 0;        ///< rows the operator emitted downstream
  uint64_t tuples_fetched = 0;  ///< base tuples this operator pulled from storage
  uint64_t index_lookups = 0;   ///< index probes this operator issued
  uint64_t open_ns = 0;         ///< inclusive wall time spent in Open()
  uint64_t next_ns = 0;         ///< inclusive wall time spent across Next()
  uint64_t next_calls = 0;      ///< number of Next() calls
  /// Static Theorem 4.2 fetch bound for this (sub)operator, when one exists
  /// (bounded-derivation nodes); negative means "no static bound known".
  double static_bound = -1.0;
};

/// Shared state of one physical evaluation: the database (with optional
/// per-relation content overrides, used by the incremental engine to make a
/// base-relation name stand for ∆R/∇R), the universal fetch accounting the
/// paper's |D_Q| ≤ M bound is measured against, an optional hard fetch
/// budget (the paper's M as "the capacity of our available resources"),
/// per-operator counters, and the observability hooks (span tracer, per-op
/// wall-time collection).
///
/// Every tuple any engine component retrieves from a base relation — scans,
/// hash-index probes, projection-index probes — is charged here, on every
/// evaluation path (RA, CQ, FO, bounded, incremental, views). This is the
/// single metered access layer the bounded-evaluation guarantees hang off.
class ExecContext {
 public:
  ExecContext();
  explicit ExecContext(const Database* db);

  const Database* db() const { return db_; }
  void set_db(const Database* db) { db_ = db; }

  /// Makes `name` resolve to `rel` instead of the database's relation.
  void AddOverride(const std::string& name, const Relation* rel) {
    overrides_[name] = rel;
  }

  /// The relation `name` resolves to, honoring overrides; nullptr if unknown.
  const Relation* Resolve(const std::string& name) const;

  /// Hard cap on base tuples fetched during this context's lifetime; 0
  /// disables (default). Exceeding it sets a ResourceExhausted status.
  /// Shorthand for arming the governor with only a fetch budget (other armed
  /// limits are preserved).
  void set_fetch_budget(uint64_t budget) {
    GovernorLimits limits = governor_.limits();
    limits.fetch_budget = budget;
    governor_.Arm(limits);
  }
  uint64_t fetch_budget() const { return governor_.limits().fetch_budget; }

  // --- Resource governor (the unified run-time limits) ---

  /// Arms the governor: fetch budget, wall-clock deadline, output-row cap,
  /// cancellation. Re-arming restarts the deadline clock and clears any
  /// recorded trip.
  void set_limits(const GovernorLimits& limits) { governor_.Arm(limits); }

  ResourceGovernor& governor() { return governor_; }
  const ResourceGovernor& governor() const { return governor_; }

  /// The governor trip that failed this context, if any (kind == kNone when
  /// the context is clean or failed for a non-governor reason).
  const TripInfo& trip() const { return governor_.trip(); }

  /// Progress probe for fetch-free loops running under this context; on a
  /// deadline/cancellation trip, fails the context and returns false.
  bool Checkpoint(OpCounters* op = nullptr) {
    if (governor_.Checkpoint(op)) return true;
    RecordTrip();
    return false;
  }

  /// Charges `n` emitted result rows against the output cap; false on trip.
  bool ChargeOutput(uint64_t n, OpCounters* op = nullptr) {
    if (governor_.OnOutput(n, op)) return true;
    RecordTrip();
    return false;
  }

  // --- Observability (src/obs) ---

  /// Span sink for engine-level phases (planning, draining, witness search).
  /// Defaults to the process-global tracer (obs::Tracer::Global()) captured
  /// at construction; nullptr disables span recording.
  obs::Tracer* tracer() const { return tracer_; }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Correlation id of the evaluation this context belongs to, captured from
  /// obs::CurrentQueryId() at construction (like the tracer), so the
  /// context's artifacts stay joinable to the one query that caused them.
  /// Invalid outside an evaluation scope.
  const obs::QueryId& query_id() const { return query_id_; }
  void set_query_id(const obs::QueryId& id) { query_id_ = id; }

  /// When enabled *before planning*, operators record per-op Open/Next wall
  /// time into their OpCounters (EXPLAIN ANALYZE's timing column). Off by
  /// default so the pull loop stays a branch-on-null away from the untimed
  /// path; compile with SCALEIN_OBS_ENABLE_TIMING=0 to remove even that.
  bool timing_enabled() const { return timing_enabled_; }
  void set_timing_enabled(bool enabled) { timing_enabled_ = enabled; }

  // --- Universal accounting (the |D_Q| of §3–§4, measured) ---
  uint64_t base_tuples_fetched() const { return base_tuples_fetched_; }
  uint64_t index_lookups() const { return index_lookups_; }
  const std::map<std::string, uint64_t>& fetched_by_relation() const {
    return fetched_by_relation_;
  }

  /// Charges `tuples` fetched from `relation` via an index probe (hash or
  /// projection index). `op` may be null.
  void ChargeIndexLookup(const std::string& relation, uint64_t tuples,
                         OpCounters* op);

  /// Charges `tuples` fetched from `relation` via a sequential scan.
  void ChargeScan(const std::string& relation, uint64_t tuples, OpCounters* op);

  /// Stable pointer to the per-relation fetched counter for `name` (map
  /// nodes are pointer-stable), entering `name` into fetched_by_relation().
  /// Pair with ChargeRows / ChargeProbe so hot-path charges skip the name
  /// lookup.
  uint64_t* RelationSlot(const std::string& name);

  /// Hot-path scan charge of `n` tuples against a pre-resolved slot.
  void ChargeRows(uint64_t* slot, uint64_t n, OpCounters* op) {
    *slot += n;
    base_tuples_fetched_ += n;
    if (op != nullptr) op->tuples_fetched += n;
    if (!governor_.OnFetch(base_tuples_fetched_, op)) RecordTrip();
  }

  /// Hot-path index-probe charge against a pre-resolved slot: one lookup
  /// fetching `tuples`, exactly what ChargeIndexLookup charges.
  void ChargeProbe(uint64_t* slot, uint64_t tuples, OpCounters* op) {
    ++index_lookups_;
    if (op != nullptr) ++op->index_lookups;
    ChargeRows(slot, tuples, op);
  }

  /// First error wins; operators stop producing once a context has failed.
  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }
  void SetError(Status s);

  /// Registers a per-operator counter slot under `parent` (-1 = root); the
  /// pointer stays valid for the context's lifetime.
  OpCounters* NewOp(std::string label, int32_t parent = -1);
  const std::deque<OpCounters>& ops() const { return ops_; }

  /// Copy of the per-op counters, for callers that outlive the context
  /// (BoundedEvalStats, EXPLAIN rendering, bench sidecars).
  std::vector<OpCounters> SnapshotOps() const;

  /// Folds this context's totals into `registry` under `prefix` (e.g.
  /// prefix "exec." writes counters "exec.base_tuples_fetched",
  /// "exec.index_lookups", and "exec.fetched.<relation>").
  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const;

  /// One-line accounting summary for logs and benches.
  std::string DebugString() const;

 private:
  /// Converts the governor's recorded trip into this context's first error.
  void RecordTrip();

  const Database* db_ = nullptr;
  std::map<std::string, const Relation*> overrides_;
  ResourceGovernor governor_;
  uint64_t base_tuples_fetched_ = 0;
  uint64_t index_lookups_ = 0;
  std::map<std::string, uint64_t> fetched_by_relation_;
  std::deque<OpCounters> ops_;
  Status status_ = Status::OK();
  obs::Tracer* tracer_ = nullptr;
  obs::QueryId query_id_;
  bool timing_enabled_ = false;
};

/// Metered access primitives. Every component that touches base-relation
/// storage — the pull operators below, the Theorem 4.2 bounded executor, the
/// embedded-statement chase — fetches through one of these, so their charges
/// land in the same ExecContext counters and the bounded/unbounded paths
/// report comparable numbers.

/// Hash-index probe on `positions` (canonicalized by the relation) with
/// `key` in canonical position order. Charges one index lookup plus the
/// bucket size; returns the matching row ids or nullptr.
const std::vector<uint32_t>* MeteredIndexLookup(ExecContext* ctx,
                                                const std::string& name,
                                                const Relation& rel,
                                                const std::vector<size_t>& positions,
                                                const Tuple& key,
                                                OpCounters* op = nullptr);

/// Projection-index probe (embedded access statements): distinct
/// `value_positions` projections of the rows matching `key`. Charges one
/// index lookup plus the group size.
std::vector<Tuple> MeteredProjectionLookup(
    ExecContext* ctx, const std::string& name, const Relation& rel,
    const std::vector<size_t>& key_positions,
    const std::vector<size_t>& value_positions, const Tuple& key,
    OpCounters* op = nullptr);

/// Charges a full sequential pass over `rel` (the (R, ∅, N, T) access unit).
/// Counted as one lookup fetching |R| tuples, mirroring how the bounded
/// executor has always accounted whole-relation access.
void ChargeFullAccess(ExecContext* ctx, const std::string& name,
                      const Relation& rel, OpCounters* op = nullptr);

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_EXEC_CONTEXT_H_
