#ifndef SCALEIN_EXEC_OPERATORS_H_
#define SCALEIN_EXEC_OPERATORS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/exec_context.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "query/ra_expr.h"
#include "relational/relation.h"

namespace scalein::exec {

/// Pull-based physical operator (Volcano-style, one row per Next). Operators
/// form a tree; `Open` (re)initializes, `Next` produces the next row into
/// `*out` and returns false on exhaustion or when the context has failed
/// (budget exhausted), so early-exit consumers (Boolean queries, first-answer
/// probes) stop fetching as soon as they have what they need.
///
/// Every operator registers an OpCounters with the context at construction
/// (`NewOp`), and parents link children via `Adopt`, so the executed tree is
/// reconstructible for EXPLAIN ANALYZE. `Open`/`Next` are non-virtual
/// wrappers (NVI): they count rows_out uniformly and — only when the context
/// enabled timing before planning — record per-op wall time. With timing off
/// and no flight recorder installed, the wrapper costs two predicted
/// branches.
class Operator {
 public:
  Operator(ExecContext* ctx, std::string label)
      : ctx_(ctx),
        op_(ctx->NewOp(std::move(label))),
        timing_(ctx->timing_enabled() ? op_ : nullptr) {}
  virtual ~Operator() = default;
  // Access paths point into their operator's members: never copied.
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  void Open() {
    if (obs::FlightRecorderEnabled()) RecordOpOpen();
    if (timing_ != nullptr) {
      TimedOpen();
      return;
    }
    DoOpen();
  }

  bool Next(Tuple* out) {
    bool produced;
    if (timing_ != nullptr) {
      produced = TimedNext(out);
    } else {
      produced = DoNext(out);
      if (produced) ++op_->rows_out;
    }
    // Flight-recorder progress events, batched so the per-row cost with a
    // recorder installed stays one predicted branch + a counter bump (the
    // recorder-on governed bench gate in bench_fig_bounded_q1 is <= 3%).
    if (obs::FlightRecorderEnabled()) {
      if (produced) {
        if (++next_since_event_ >= kOpEventEveryRows) RecordOpBatch();
      } else if (!close_recorded_) {
        RecordOpClose();
      }
    }
    return produced;
  }

  /// This operator's slot in the context's op table (never null).
  OpCounters* counters() const { return op_; }

  /// The context this operator charges (drains consult its governor).
  ExecContext* context() const { return ctx_; }

 protected:
  /// Declares `child` a subtree of this operator in the explain tree; call
  /// once per child from the parent's constructor.
  void Adopt(Operator& child) { child.op_->parent = op_->id; }

  virtual void DoOpen() = 0;
  virtual bool DoNext(Tuple* out) = 0;

  ExecContext* ctx_;
  OpCounters* op_;

 private:
  void TimedOpen();
  bool TimedNext(Tuple* out);

  /// One op-next-batch event per this many produced rows.
  static constexpr uint32_t kOpEventEveryRows = 256;

  /// Out-of-line emitters (exec/operators.cc): the inline wrappers above
  /// only pay the enabled-check; label/num marshalling happens here, on the
  /// allocation-free RecordFlightNums path.
  void RecordOpOpen();
  void RecordOpBatch();
  void RecordOpClose();

  uint32_t next_since_event_ = 0;
  uint64_t fetched_at_event_ = 0;
  bool close_recorded_ = false;

  OpCounters* timing_;
};

/// One selection conjunct compiled to column positions over a fixed layout.
struct CompiledAtom {
  size_t lhs = 0;
  bool rhs_is_attr = false;
  size_t rhs_pos = 0;
  Value rhs_const;
  bool negated = false;
};

/// A conjunction of compiled atoms; the runtime form of SelectionCondition.
struct CompiledCondition {
  std::vector<CompiledAtom> atoms;

  bool Eval(TupleView row) const {
    for (const CompiledAtom& a : atoms) {
      const Value& lhs = row[a.lhs];
      const Value& rhs = a.rhs_is_attr ? row[a.rhs_pos] : a.rhs_const;
      if ((lhs == rhs) == a.negated) return false;
    }
    return true;
  }

  /// Compiles `cond` against the layout `attrs` (positions by name).
  static CompiledCondition Compile(const SelectionCondition& cond,
                                   const std::vector<std::string>& attrs);
};

/// Emits no rows: unknown relations and statically-empty plans.
class EmptyOp final : public Operator {
 public:
  explicit EmptyOp(ExecContext* ctx) : Operator(ctx, "empty") {}

 protected:
  void DoOpen() override {}
  bool DoNext(Tuple*) override { return false; }
};

/// Emits exactly one zero-column row: the seed of a CQ probe chain.
class ConstRowOp final : public Operator {
 public:
  explicit ConstRowOp(ExecContext* ctx) : Operator(ctx, "const-row") {}

 protected:
  void DoOpen() override { done_ = false; }
  bool DoNext(Tuple* out) override {
    if (done_) return false;
    done_ = true;
    out->clear();
    return true;
  }

 private:
  bool done_ = false;
};

/// Sequential scan of a base relation; every row is charged to the context.
class ScanOp final : public Operator {
 public:
  ScanOp(ExecContext* ctx, std::string name, const Relation* rel);

 protected:
  void DoOpen() override { next_row_ = 0; }
  bool DoNext(Tuple* out) override;

 private:
  const Relation* rel_;
  uint64_t* slot_;
  size_t next_row_ = 0;
};

/// Hash-index point lookup with a key fixed at plan time (selection
/// pushdown: σ_{X=ā}(R) through the access-schema index on X), probed
/// through an access path bound at the first Open.
class IndexLookupOp final : public Operator {
 public:
  /// `positions` must be sorted and duplicate-free; `key` in that order.
  IndexLookupOp(ExecContext* ctx, std::string name, const Relation* rel,
                std::vector<size_t> positions, Tuple key);

 protected:
  void DoOpen() override;
  bool DoNext(Tuple* out) override;

 private:
  const Relation* rel_;
  std::string name_;
  std::vector<size_t> positions_;
  Tuple key_;
  AccessPath path_;  ///< over name_ and positions_
  const std::vector<uint32_t>* rows_ = nullptr;
  size_t next_ = 0;
};

/// Projection-index lookup: the distinct π_Y(σ_{X=ā}(R)) of an embedded
/// access statement, emitted in a caller-chosen column order and probed
/// through an access path bound at the first Open.
class ProjectionLookupOp final : public Operator {
 public:
  /// `remap[i]` is the index into the canonical value layout feeding output
  /// column i.
  ProjectionLookupOp(ExecContext* ctx, std::string name, const Relation* rel,
                     std::vector<size_t> key_positions,
                     std::vector<size_t> value_positions, Tuple key,
                     std::vector<size_t> remap);

 protected:
  void DoOpen() override;
  bool DoNext(Tuple* out) override;

 private:
  const Relation* rel_;
  std::string name_;
  std::vector<size_t> key_positions_;
  std::vector<size_t> value_positions_;
  Tuple key_;
  std::vector<size_t> remap_;
  AccessPath path_;  ///< over name_, key_positions_ and value_positions_
  const ProjectionIndex::Group* group_ = nullptr;
  ProjectionIndex::Group::const_iterator next_;
};

/// Filters child rows by a compiled condition.
class FilterOp final : public Operator {
 public:
  FilterOp(ExecContext* ctx, std::unique_ptr<Operator> child,
           CompiledCondition condition)
      : Operator(ctx, "filter"),
        child_(std::move(child)),
        condition_(std::move(condition)) {
    Adopt(*child_);
  }

 protected:
  void DoOpen() override { child_->Open(); }
  bool DoNext(Tuple* out) override;

 private:
  std::unique_ptr<Operator> child_;
  CompiledCondition condition_;
};

/// Projects child rows onto `positions` (duplicates NOT removed here; set
/// semantics are restored when the drain materializes into a Relation).
class ProjectOp final : public Operator {
 public:
  ProjectOp(ExecContext* ctx, std::unique_ptr<Operator> child,
            std::vector<size_t> positions)
      : Operator(ctx, "project"),
        child_(std::move(child)),
        positions_(std::move(positions)) {
    Adopt(*child_);
  }

 protected:
  void DoOpen() override { child_->Open(); }
  bool DoNext(Tuple* out) override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<size_t> positions_;
  Tuple scratch_;
};

/// Concatenates two streams; right rows are remapped to the left layout
/// (`align[i]` = right position of left column i).
class UnionOp final : public Operator {
 public:
  UnionOp(ExecContext* ctx, std::unique_ptr<Operator> left,
          std::unique_ptr<Operator> right, std::vector<size_t> align)
      : Operator(ctx, "union"),
        left_(std::move(left)),
        right_(std::move(right)),
        align_(std::move(align)) {
    Adopt(*left_);
    Adopt(*right_);
  }

 protected:
  void DoOpen() override;
  bool DoNext(Tuple* out) override;

 private:
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<size_t> align_;
  bool on_right_ = false;
  Tuple scratch_;
};

/// Anti-join: left rows whose aligned form is absent from the materialized
/// right side.
class DiffOp final : public Operator {
 public:
  DiffOp(ExecContext* ctx, std::unique_ptr<Operator> left,
         std::unique_ptr<Operator> right, std::vector<size_t> align)
      : Operator(ctx, "diff"),
        left_(std::move(left)),
        right_(std::move(right)),
        align_(std::move(align)) {
    Adopt(*left_);
    Adopt(*right_);
  }

 protected:
  void DoOpen() override;
  bool DoNext(Tuple* out) override;

 private:
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<size_t> align_;
  std::unordered_set<Tuple, TupleHash, TupleEq> right_rows_;
};

/// Hash join: materializes the right child into a hash table keyed on
/// `r_key`, probes with left rows keyed on `l_key` (parallel vectors), and
/// emits left ++ right[r_extra]. With empty keys this degenerates to the
/// cartesian product.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(ExecContext* ctx, std::unique_ptr<Operator> left,
             std::unique_ptr<Operator> right, std::vector<size_t> l_key,
             std::vector<size_t> r_key, std::vector<size_t> r_extra)
      : Operator(ctx, "hash-join"),
        left_(std::move(left)),
        right_(std::move(right)),
        l_key_(std::move(l_key)),
        r_key_(std::move(r_key)),
        r_extra_(std::move(r_extra)) {
    Adopt(*left_);
    Adopt(*right_);
  }

 protected:
  void DoOpen() override;
  bool DoNext(Tuple* out) override;

 private:
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<size_t> l_key_;
  std::vector<size_t> r_key_;
  std::vector<size_t> r_extra_;
  std::unordered_map<Tuple, std::vector<Tuple>, TupleHash, TupleEq> table_;
  Tuple left_row_;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_next_ = 0;
};

/// Index nested-loop join against a BASE relation: for every left row,
/// probes the relation's hash index on `index_positions` (key values drawn
/// from left columns and plan-time constants), applies a residual condition
/// over the full base row, and emits left ++ base[emit_positions].
///
/// This is the index-aware join the planner prefers whenever the probe side
/// is (a selection/projection/renaming of) a stored relation — the physical
/// counterpart of an access-schema statement (R, X, N, T) — and probes
/// through an access path bound at its first probe. With no probe columns
/// it degenerates to a metered nested-loop scan. Either way the relation
/// enters the context's per-relation accounting at construction.
class IndexJoinOp final : public Operator {
 public:
  struct KeySource {
    bool from_left = false;
    size_t left_col = 0;  ///< when from_left
    Value constant;       ///< otherwise
  };

  /// `index_positions` must be sorted and duplicate-free; `key_sources` is
  /// parallel to it.
  IndexJoinOp(ExecContext* ctx, std::string name, const Relation* rel,
              std::unique_ptr<Operator> left,
              std::vector<size_t> index_positions,
              std::vector<KeySource> key_sources, CompiledCondition residual,
              std::vector<size_t> emit_positions);

 protected:
  void DoOpen() override;
  bool DoNext(Tuple* out) override;

 private:
  bool AdvanceLeft();

  std::string name_;
  const Relation* rel_;
  std::unique_ptr<Operator> left_;
  std::vector<size_t> index_positions_;
  std::vector<KeySource> key_sources_;
  CompiledCondition residual_;
  std::vector<size_t> emit_positions_;
  uint64_t* slot_;   ///< scan mode's charges
  AccessPath path_;  ///< index mode's probes, over name_ and index_positions_

  Tuple left_row_;
  Tuple key_;
  bool left_valid_ = false;
  const std::vector<uint32_t>* matches_ = nullptr;  // index mode
  size_t match_next_ = 0;
  size_t scan_next_ = 0;  // scan mode (no probe columns)
};

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_OPERATORS_H_
