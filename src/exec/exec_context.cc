#include "exec/exec_context.h"

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scalein::exec {

ExecContext::ExecContext()
    : tracer_(obs::Tracer::Global()), query_id_(obs::CurrentQueryId()) {}

ExecContext::ExecContext(const Database* db)
    : db_(db), tracer_(obs::Tracer::Global()), query_id_(obs::CurrentQueryId()) {}

const Relation* ExecContext::Resolve(const std::string& name) const {
  auto it = overrides_.find(name);
  if (it != overrides_.end()) return it->second;
  if (db_ == nullptr) return nullptr;
  return db_->FindRelation(name);
}

void ExecContext::RecordTrip() {
  if (!status_.ok() || !governor_.tripped()) return;
  status_ = governor_.trip().ToStatus();
  if (obs::FlightRecorderEnabled()) {
    const TripInfo& trip = governor_.trip();
    obs::RecordFlightEvent(
        obs::EventKind::kGovernorTrip, LimitKindName(trip.kind),
        {obs::EventArg("detail", trip.ToString()),
         obs::EventArg("fetched", base_tuples_fetched_)});
  }
}

uint64_t* ExecContext::RelationSlot(const std::string& name) {
  return &fetched_by_relation_[name];
}

void ExecContext::BindIndex(AccessPath* path) {
  path->index = &path->rel->EnsureIndex(*path->positions);
  path->fetched = RelationSlot(*path->name);
}

void ExecContext::BindProjection(AccessPath* path) {
  path->projection =
      &path->rel->EnsureProjectionIndex(*path->positions, *path->values);
  path->fetched = RelationSlot(*path->name);
}

void ExecContext::SetError(Status s) {
  if (status_.ok()) status_ = std::move(s);
}

OpCounters* ExecContext::NewOp(std::string label, int32_t parent) {
  ops_.emplace_back();
  OpCounters& op = ops_.back();
  op.label = std::move(label);
  op.id = static_cast<int32_t>(ops_.size()) - 1;
  op.parent = parent;
  return &op;
}

std::vector<OpCounters> ExecContext::SnapshotOps() const {
  return std::vector<OpCounters>(ops_.begin(), ops_.end());
}

void ExecContext::ExportMetrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) const {
  registry->GetCounter(prefix + "base_tuples_fetched")
      .Increment(base_tuples_fetched_);
  registry->GetCounter(prefix + "index_lookups").Increment(index_lookups_);
  for (const auto& [name, tuples] : fetched_by_relation_) {
    registry->GetCounter(prefix + "fetched." + name).Increment(tuples);
  }
  if (governor_.tripped()) {
    registry
        ->GetCounter(prefix + "governor.trips." +
                     LimitKindName(governor_.trip().kind))
        .Increment();
  }
}

std::string ExecContext::DebugString() const {
  std::string out = "fetched=" + std::to_string(base_tuples_fetched_) +
                    " lookups=" + std::to_string(index_lookups_);
  for (const OpCounters& op : ops_) {
    out += " | " + op.label + ": out=" + std::to_string(op.rows_out) +
           " fetched=" + std::to_string(op.tuples_fetched);
  }
  return out;
}

const std::vector<uint32_t>* MeteredIndexLookup(
    ExecContext* ctx, const std::string& name, const Relation& rel,
    const std::vector<size_t>& positions, const Tuple& key, OpCounters* op) {
  AccessPath path = AccessPath::Index(name, &rel, positions);
  return ctx->Probe(&path, key, op);
}

}  // namespace scalein::exec
