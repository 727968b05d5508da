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
#include "util/failpoint.h"
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

/// One access statement's path through one evaluation: an access method in
/// Amarilli–Benedikt's sense, held as a bound object instead of a relation
/// name looked up on every call. The caller says what the path reads: the
/// relation under its accounting name and the probed positions X (for an
/// embedded statement X[Y], also the projected positions Y). ExecContext's
/// probe calls bind the rest at the path's first probe, after the
/// `index_probe` failpoint: the index, built on demand, and the relation's
/// fetch slot. So an index is built, and a relation enters
/// fetched_by_relation(), at the path's first charge; a probe that fails at
/// the failpoint binds nothing. A path lives for one
/// evaluation, never in a shared program: a cached program outlives the
/// relations a `row` or `load` replaces. The pointers it names must outlive
/// it (they point into a compiled program or an operator's members).
struct AccessPath {
  /// A hash-index path on `positions`.
  static AccessPath Index(const std::string& name, const Relation* rel,
                          const std::vector<size_t>& positions) {
    return AccessPath{&name, rel, &positions, nullptr};
  }
  /// A projection path: the distinct `values` projections of the rows
  /// matching a key on `positions`.
  static AccessPath Projection(const std::string& name, const Relation* rel,
                               const std::vector<size_t>& positions,
                               const std::vector<size_t>& values) {
    return AccessPath{&name, rel, &positions, &values};
  }

  // What the path reads.
  const std::string* name = nullptr;
  const Relation* rel = nullptr;
  const std::vector<size_t>* positions = nullptr;  ///< X (any order)
  const std::vector<size_t>* values = nullptr;     ///< Y; projection paths

  // Bound at the first probe.
  const HashIndex* index = nullptr;
  const ProjectionIndex* projection = nullptr;
  uint64_t* fetched = nullptr;  ///< the relation's fetch slot
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
  /// path.
  bool timing_enabled() const { return timing_enabled_; }
  void set_timing_enabled(bool enabled) { timing_enabled_ = enabled; }

  // --- Universal accounting (the |D_Q| of §3–§4, measured) ---
  uint64_t base_tuples_fetched() const { return base_tuples_fetched_; }
  uint64_t index_lookups() const { return index_lookups_; }
  const std::map<std::string, uint64_t>& fetched_by_relation() const {
    return fetched_by_relation_;
  }

  /// Stable pointer to the per-relation fetched counter for `name` (map
  /// nodes are pointer-stable), entering `name` into fetched_by_relation().
  /// Scans take theirs at construction; access paths at their first probe.
  uint64_t* RelationSlot(const std::string& name);

  /// Scan charge of `n` tuples against a relation's slot. `op` may be null.
  void ChargeRows(uint64_t* slot, uint64_t n, OpCounters* op) {
    *slot += n;
    base_tuples_fetched_ += n;
    if (op != nullptr) op->tuples_fetched += n;
    if (!governor_.OnFetch(base_tuples_fetched_, op)) RecordTrip();
  }

  // --- Probes through access paths (every index access to base storage) ---

  /// Hash-index probe through `path` with `key` in canonical position order.
  /// Fires `index_probe` (a fired failpoint fails the context and binds
  /// nothing), binds the path at its first probe, and charges one lookup
  /// plus the bucket size. Returns the matching row ids, or nullptr on a miss
  /// or a failed probe.
  const std::vector<uint32_t>* Probe(AccessPath* path, TupleView key,
                                     OpCounters* op) {
    if (Status s = SCALEIN_FAILPOINT("index_probe"); !s.ok()) {
      SetError(std::move(s));
      return nullptr;
    }
    if (path->fetched == nullptr) BindIndex(path);
    const std::vector<uint32_t>* rows = path->index->Lookup(key);
    ChargeProbe(path->fetched, rows == nullptr ? 0 : rows->size(), op);
    return rows;
  }

  /// Projection-index probe (embedded statement X[Y]) through `path`: the
  /// distinct Y-projections of the rows matching `key`, or nullptr. Fires
  /// and binds as Probe does; charges one lookup plus the number of distinct
  /// projections (not of matching rows: that is what the statement's N
  /// bounds).
  const ProjectionIndex::Group* ProbeProjection(AccessPath* path,
                                                const Tuple& key,
                                                OpCounters* op) {
    if (Status s = SCALEIN_FAILPOINT("index_probe"); !s.ok()) {
      SetError(std::move(s));
      return nullptr;
    }
    if (path->fetched == nullptr) BindProjection(path);
    const ProjectionIndex::Group* group = path->projection->Find(key);
    ChargeProbe(path->fetched, group == nullptr ? 0 : group->size(), op);
    return group;
  }

  /// The (R, ∅, N, T) access unit through `path`: one lookup fetching |R|
  /// tuples, binding the fetch slot at first use. No failpoint: a full pass
  /// is not an index probe.
  void ChargeWholeRelation(AccessPath* path, OpCounters* op) {
    if (path->fetched == nullptr) path->fetched = RelationSlot(*path->name);
    ChargeProbe(path->fetched, path->rel->size(), op);
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

  /// One index access: one lookup fetching `tuples` against `slot`.
  void ChargeProbe(uint64_t* slot, uint64_t tuples, OpCounters* op) {
    ++index_lookups_;
    if (op != nullptr) ++op->index_lookups;
    ChargeRows(slot, tuples, op);
  }

  /// First-probe binding of a hash or projection path (out of line: once
  /// per path per evaluation).
  void BindIndex(AccessPath* path);
  void BindProjection(AccessPath* path);

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

/// One hash-index probe on `positions` (canonicalized by the relation) with
/// `key` in canonical position order: binds a path and probes through it, so
/// it charges exactly what ExecContext::Probe does. The library probes
/// through paths it keeps; this one-shot form remains for the benchmark,
/// which times it against a raw HashIndex::Lookup.
const std::vector<uint32_t>* MeteredIndexLookup(ExecContext* ctx,
                                                const std::string& name,
                                                const Relation& rel,
                                                const std::vector<size_t>& positions,
                                                const Tuple& key,
                                                OpCounters* op = nullptr);

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_EXEC_CONTEXT_H_
