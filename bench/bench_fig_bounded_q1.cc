// Experiment E4 (DESIGN.md): Example 1.1(a) / Theorem 4.2 — the headline
// scale-independence figure. Q1(p0) under the access schema touches a
// bounded number of tuples while |D| grows by orders of magnitude; a
// scan-based baseline (no access schema) grows linearly with |D|.
//
// The sidecar also carries the analysis-cache gate: a warm lookup of the
// Q1 derivation plus the embedded Q3 chase must be >= 5x cheaper than
// deriving them cold (scripts/bench_regress.py --check-bounds), next to a
// host.effective_cpus probe so timing gates can be read against the host.

#include <algorithm>
#include <cinttypes>
#include <limits>

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
    // ungoverned/unobserved time. The two variants are measured in
    // alternation and each takes its best window — a 3% gate on
    // microsecond-scale work needs frequency drift cancelled, not averaged
    // in.
    BoundedEvaluator governed_evaluator(&db);
    exec::GovernorLimits governed_limits;
    governed_limits.fetch_budget = 1'000'000'000;
    governed_limits.deadline_ms = 3'600'000;
    governed_limits.output_row_cap = 1'000'000'000;
    governed_evaluator.set_limits(governed_limits);
    obs::FlightRecorder recorder;
    double bounded_ms = std::numeric_limits<double>::infinity();
    double governed_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
      bounded_ms = std::min(
          bounded_ms, MeasureMs([&] {
            (void)evaluator.Evaluate(*q1, *analysis, params, nullptr);
          }));
      obs::FlightRecorder::InstallGlobal(&recorder);
      governed_ms = std::min(
          governed_ms, MeasureMs([&] {
            (void)governed_evaluator.Evaluate(*q1, *analysis, params, nullptr);
          }));
      obs::FlightRecorder::InstallGlobal(nullptr);
    }

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
  const double cold_ms = MeasureMs([&] {
    AnalysisCache cache;
    derive_all(cache);
  });
  AnalysisCache cache;
  derive_all(cache);
  const double warm_ms = MeasureMs([&] { derive_all(cache); });
  SI_CHECK(cache.stats().hits > 0);
  std::printf("\nanalysis cache: cold %s ms, warm %s ms (%.1fx)\n",
              FormatDouble(cold_ms, 5).c_str(),
              FormatDouble(warm_ms, 5).c_str(), cold_ms / warm_ms);
  report.Add("cache.cold_analysis_ms", cold_ms);
  report.Add("cache.warm_analysis_ms", warm_ms);
  report.Add("cache.cache_hit", static_cast<uint64_t>(1));
  return 0;
}
