// Experiment E4 (DESIGN.md): Example 1.1(a) / Theorem 4.2 — the headline
// scale-independence figure. Q1(p0) under the access schema touches a
// bounded number of tuples while |D| grows by orders of magnitude; a
// scan-based baseline (no access schema) grows linearly with |D|.
//
// The sidecar also carries two timing gates (scripts/bench_regress.py
// --check-bounds), next to a host.effective_cpus probe so they can be read
// against the host: the armed governor plus flight recorder may cost at
// most 3% over plain evaluation, and a warm lookup of the Q1 derivation
// plus the embedded Q3 chase must be >= 5x cheaper than deriving them cold.
// Both are measured by interleaved repeat-and-compare
// (bench::CompareInterleaved), and each gate fails when its median ratio
// lies past its cap; the 95% confidence interval is reported beside it.

#include <algorithm>
#include <cinttypes>

#include "bench_util.h"
#include "core/analysis_cache.h"
#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "exec/governor.h"
#include "obs/flight_recorder.h"
#include "query/parser.h"
#include "query/printer.h"
#include "workload/social_gen.h"

using namespace scalein;
using bench::Header;
using bench::MeasureMs;

namespace {

/// Per scale; pooled for the gate. 450 pairs hold the pooled median's run-
/// to-run spread to about ±0.3 points, a tenth of the 3% cap.
constexpr size_t kGovernorPairs = 150;
constexpr size_t kCachePairs = 40;
constexpr double kWindowMs = 2.0;  ///< one timed sample

constexpr const char* kQ1 =
    "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")";

/// The no-access-schema baseline: one full pass over `friend` collecting p's
/// friends, then one full pass over `person` filtering NYC — what a system
/// without indexes must do (O(|D|) per query).
size_t ScanBaseline(const Database& db, int64_t p, uint64_t* rows_touched) {
  const Relation& friends = db.relation("friend");
  const Relation& person = db.relation("person");
  std::set<Value, std::less<Value>> friend_ids;
  for (size_t i = 0; i < friends.size(); ++i) {
    ++*rows_touched;
    TupleView row = friends.TupleAt(i);
    if (row[0] == Value::Int(p)) friend_ids.insert(row[1]);
  }
  size_t answers = 0;
  Value nyc = Value::Str(kNyc);
  for (size_t i = 0; i < person.size(); ++i) {
    ++*rows_touched;
    TupleView row = person.TupleAt(i);
    if (row[2] == nyc && friend_ids.count(row[0])) ++answers;
  }
  return answers;
}

}  // namespace

int main() {
  Header("E4: Q1(p0) bounded evaluation vs scan baseline",
         "Example 1.1(a) / Example 4.1 / Theorem 4.2 (M >= 10000 story)",
         "bounded executor: fetches and latency flat in |D|; scan baseline "
         "linear in |D| — the gap widens to orders of magnitude");

  bench::JsonReport report("fig_bounded_q1");
  const double effective_cpus = bench::EffectiveCpus();
  report.Add("host.effective_cpus", effective_cpus);
  std::printf("host: %.2f effective CPU(s)\n", effective_cpus);
  TablePrinter table({"persons", "|D|", "bounded fetches", "index lookups",
                      "bound", "bounded ms", "governed ms", "scan rows",
                      "scan ms", "speedup"});
  bench::Comparison governor;  // every scale's pairs, pooled
  for (uint64_t persons : {3000u, 30000u, 300000u}) {
    SocialConfig config;
    config.num_persons = persons;
    config.max_friends_per_person = 50;
    config.num_restaurants = 200;
    config.avg_visits_per_person = 0;  // Q1 does not use visits
    Schema schema = SocialSchema(false);
    Database db = GenerateSocial(config);
    AccessSchema access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());

    Result<FoQuery> q1 = ParseFoQuery(kQ1, &schema);
    SI_CHECK(q1.ok());
    Result<ControllabilityAnalysis> analysis =
        ControllabilityAnalysis::Analyze(q1->body, schema, access);
    SI_CHECK(analysis.ok());
    Variable p = Variable::Named("p");
    SI_CHECK(analysis->IsControlledBy({p}));

    BoundedEvaluator evaluator(&db);
    Binding params{{p, Value::Int(42)}};
    BoundedEvalStats stats;
    stats.capture_ops = true;  // per-operator breakdown for the sidecar
    Result<AnswerSet> bounded_answers =
        evaluator.Evaluate(*q1, *analysis, params, &stats);
    SI_CHECK(bounded_answers.ok());
    // Same evaluation with the resource governor fully armed but sized to
    // never trip AND the flight recorder installed as the global sink:
    // isolates the per-fetch Charge/Checkpoint overhead plus the per-query
    // recorder append, which the regression script holds to <= 3% of the
    // ungoverned/unobserved time. A 3% gate on microsecond-scale work needs
    // frequency drift cancelled, not averaged in: the two variants run in
    // interleaved pairs of short windows, and the gate reads the median
    // per-pair ratio.
    BoundedEvaluator governed_evaluator(&db);
    exec::GovernorLimits governed_limits;
    governed_limits.fetch_budget = 1'000'000'000;
    governed_limits.deadline_ms = 3'600'000;
    governed_limits.output_row_cap = 1'000'000'000;
    governed_evaluator.set_limits(governed_limits);
    obs::FlightRecorder recorder;
    const bench::Comparison scale = bench::CompareInterleaved(
        [&] {
          return MeasureMs(
              [&] {
                (void)evaluator.Evaluate(*q1, *analysis, params, nullptr);
              },
              kWindowMs);
        },
        [&] {
          obs::FlightRecorder::InstallGlobal(&recorder);
          const double ms = MeasureMs(
              [&] {
                (void)governed_evaluator.Evaluate(*q1, *analysis, params,
                                                  nullptr);
              },
              kWindowMs);
          obs::FlightRecorder::InstallGlobal(nullptr);
          return ms;
        },
        kGovernorPairs);
    const double bounded_ms = scale.a_ms;
    const double governed_ms = scale.b_ms;
    governor.ratios.insert(governor.ratios.end(), scale.ratios.begin(),
                           scale.ratios.end());

    uint64_t scan_rows = 0;
    size_t scan_answers = ScanBaseline(db, 42, &scan_rows);
    SI_CHECK(scan_answers == bounded_answers->size());
    double scan_ms = MeasureMs([&] {
      uint64_t ignored = 0;
      (void)ScanBaseline(db, 42, &ignored);
    });

    table.AddRow({FormatCount(persons), FormatCount(db.TotalTuples()),
                  std::to_string(stats.base_tuples_fetched),
                  std::to_string(stats.index_lookups),
                  FormatDouble(*analysis->StaticFetchBound({p}), 0),
                  FormatDouble(bounded_ms, 4), FormatDouble(governed_ms, 4),
                  FormatCount(scan_rows), FormatDouble(scan_ms, 3),
                  FormatDouble(scan_ms / bounded_ms, 1) + "x"});
    std::string prefix = "persons_" + std::to_string(persons) + ".";
    report.Add(prefix + "total_tuples", db.TotalTuples());
    report.Add(prefix + "base_tuples_fetched", stats.base_tuples_fetched);
    report.Add(prefix + "index_lookups", stats.index_lookups);
    report.Add(prefix + "static_bound", *analysis->StaticFetchBound({p}));
    report.Add(prefix + "bounded_ms", bounded_ms);
    report.Add(prefix + "bounded_governed_ms", governed_ms);
    report.Add(prefix + "scan_rows", scan_rows);
    report.Add(prefix + "scan_ms", scan_ms);
    // Per-operator breakdown of the executed derivation (EXPLAIN ANALYZE
    // counters): one key group per derivation node, plus its static bound.
    for (size_t i = 0; i < stats.ops.size(); ++i) {
      const exec::OpCounters& op = stats.ops[i];
      std::string op_prefix = prefix + "op" + std::to_string(i) + ".";
      report.Add(op_prefix + "label", op.label);
      report.Add(op_prefix + "rows_out", op.rows_out);
      report.Add(op_prefix + "tuples_fetched", op.tuples_fetched);
      report.Add(op_prefix + "index_lookups", op.index_lookups);
      if (op.static_bound >= 0) {
        report.Add(op_prefix + "static_bound", op.static_bound);
      }
    }
  }
  table.Print();
  governor.Summarize();
  std::printf("\ngovernor overhead: median %+.2f%%, 95%% CI [%+.2f%%, %+.2f%%] "
              "over %zu interleaved pairs\n",
              100.0 * (governor.median - 1.0), 100.0 * (governor.ci_low - 1.0),
              100.0 * (governor.ci_high - 1.0), governor.ratios.size());
  report.Add("governor.overhead_ratio", governor.median);
  report.Add("governor.overhead_ratio_ci_low", governor.ci_low);
  report.Add("governor.overhead_ratio_ci_high", governor.ci_high);
  report.Add("governor.pairs", static_cast<uint64_t>(governor.ratios.size()));
  std::printf(
      "\nNote: with the paper's production numbers (5000-friend cap, 1e9 "
      "users) the same static bound M = 10000 applies; only the scan column "
      "would keep growing.\n");

  // Derivation cache over a session's working set: the §4 DP for Q1 plus
  // the Proposition 4.5 chase for embedded Q3 (the expensive derivation the
  // cache exists for). Cold = fresh cache, both derivations run; warm = the
  // same two lookups served from the cache.
  SocialConfig config;
  config.num_persons = 30000;
  config.max_friends_per_person = 50;
  config.num_restaurants = 200;
  Schema schema = SocialSchema(false);
  AccessSchema access = SocialAccessSchema(config);
  Result<FoQuery> q1 = ParseFoQuery(kQ1, &schema);
  SI_CHECK(q1.ok());
  SocialConfig dated_config;
  dated_config.dated_visits = true;
  Schema dated_schema = SocialSchema(true);
  AccessSchema dated_access = SocialAccessSchema(dated_config);
  constexpr const char* kQ3 =
      "Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
      "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")";
  Result<Cq> q3 = ParseCq(kQ3, &dated_schema);
  SI_CHECK(q3.ok());
  const VarSet q3_params = {Variable::Named("p"), Variable::Named("yy")};
  auto derive_all = [&](AnalysisCache& cache) {
    SI_CHECK(cache.GetOrAnalyze(q1->body, kQ1, schema, access).ok());
    SI_CHECK(cache
                 .GetOrAnalyzeEmbedded(*q3, kQ3, dated_schema, dated_access,
                                       q3_params)
                 .ok());
  };
  AnalysisCache cache;
  derive_all(cache);
  // A = warm, B = cold, so each pair's ratio is the cache's speedup.
  const bench::Comparison speedup = bench::CompareInterleaved(
      [&] { return MeasureMs([&] { derive_all(cache); }, kWindowMs); },
      [&] {
        return MeasureMs(
            [&] {
              AnalysisCache cold;
              derive_all(cold);
            },
            kWindowMs);
      },
      kCachePairs);
  SI_CHECK(cache.stats().hits > 0);
  std::printf("\nanalysis cache: cold %s ms, warm %s ms; speedup median "
              "%.1fx, 95%% CI [%.1fx, %.1fx] over %zu interleaved pairs\n",
              FormatDouble(speedup.b_ms, 5).c_str(),
              FormatDouble(speedup.a_ms, 5).c_str(), speedup.median,
              speedup.ci_low, speedup.ci_high, speedup.ratios.size());
  report.Add("cache.cold_analysis_ms", speedup.b_ms);
  report.Add("cache.warm_analysis_ms", speedup.a_ms);
  report.Add("cache.cache_hit", static_cast<uint64_t>(1));
  report.Add("cache.speedup", speedup.median);
  report.Add("cache.speedup_ci_low", speedup.ci_low);
  report.Add("cache.speedup_ci_high", speedup.ci_high);
  report.Add("cache.pairs", static_cast<uint64_t>(speedup.ratios.size()));
  return 0;
}
