// Experiment E8: batch bounded evaluation on the worker pool and the
// derivation cache.
//
// Two claims the sidecar pins down for scripts/bench_regress.py:
//   1. Parallel speedup without accounting drift — a batch of bounded Q1
//      evaluations runs >= 2x faster at 4 threads than at 1 (enforced only
//      when the host measures >= 4 effective CPUs, recorded as
//      host.effective_cpus), while fetch counts, index lookups, and the
//      Theorem 4.2 verdict are byte-identical at every thread count.
//   2. The analysis cache turns repeated controllability derivations into
//      hash lookups — warm lookups are >= 5x faster than cold derivations.

#include <algorithm>
#include <limits>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/analysis_cache.h"
#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "obs/journal.h"
#include "par/worker_pool.h"
#include "query/parser.h"
#include "query/printer.h"
#include "workload/social_gen.h"

using namespace scalein;
using bench::Header;
using bench::MeasureMs;

namespace {

constexpr const char* kQ1 =
    "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")";
constexpr size_t kBatch = 512;

}  // namespace

int main() {
  Header("E8: morsel-parallel batch evaluation + analysis cache",
         "Theorem 4.2 under parallel execution; §4 derivations memoized",
         "batch latency drops with threads while fetch accounting and "
         "verdicts stay byte-identical; warm analysis >= 5x cheaper");

  bench::JsonReport report("parallel_scaling");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  report.Add("hw_threads", static_cast<uint64_t>(hw));
  const double effective_cpus = bench::EffectiveCpus();
  report.Add("host.effective_cpus", effective_cpus);
  std::printf("host: %u hardware thread(s), %.2f effective CPU(s)\n", hw,
              effective_cpus);

  SocialConfig config;
  config.num_persons = 30000;
  config.max_friends_per_person = 50;
  config.num_restaurants = 200;
  config.avg_visits_per_person = 0;
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
  Result<double> per_query_bound = analysis->StaticFetchBound({p});
  SI_CHECK(per_query_bound.ok());

  std::vector<Binding> batch;
  batch.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    batch.push_back({{p, Value::Int(static_cast<int64_t>(
                             (i * 131) % config.num_persons))}});
  }

  BoundedEvaluator evaluator(&db);
  TablePrinter table({"threads", "batch ms", "queries/s", "fetches",
                      "index lookups", "verdict"});
  par::WorkerPool& pool = par::WorkerPool::Global();
  uint64_t fetches_at_1 = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    pool.Resize(threads);
    BoundedEvalStats stats;
    std::vector<Result<AnswerSet>> results =
        evaluator.EvaluateBatch(*q1, *analysis, batch, &stats);
    for (const Result<AnswerSet>& r : results) SI_CHECK(r.ok());
    double batch_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      batch_ms = std::min(batch_ms, MeasureMs([&] {
        (void)evaluator.EvaluateBatch(*q1, *analysis, batch, nullptr);
      }));
    }
    // The batch-level Theorem 4.2 bound: each of the kBatch evaluations
    // fetches at most M tuples.
    const double batch_bound = *per_query_bound * static_cast<double>(kBatch);
    obs::AccessCertificate cert;
    cert.static_bound = batch_bound;
    cert.actual_fetches = stats.base_tuples_fetched;
    const char* verdict = obs::CertVerdictName(obs::DeriveVerdict(cert));
    if (threads == 1) fetches_at_1 = stats.base_tuples_fetched;
    SI_CHECK(stats.base_tuples_fetched == fetches_at_1);

    table.AddRow({std::to_string(threads), FormatDouble(batch_ms, 3),
                  FormatCount(static_cast<uint64_t>(kBatch / (batch_ms / 1e3))),
                  FormatCount(stats.base_tuples_fetched),
                  FormatCount(stats.index_lookups), verdict});
    std::string prefix = "threads_" + std::to_string(threads) + ".";
    report.Add(prefix + "threads", static_cast<uint64_t>(threads));
    report.Add(prefix + "batch_ms", batch_ms);
    report.Add(prefix + "base_tuples_fetched", stats.base_tuples_fetched);
    report.Add(prefix + "index_lookups", stats.index_lookups);
    report.Add(prefix + "static_bound", batch_bound);
    report.Add(prefix + "verdict", std::string(verdict));
  }
  pool.Resize(1);
  table.Print();

  // Derivation cache over the session's working set: the §4 DP for Q1 plus
  // the Proposition 4.5 chase for embedded Q3 (the expensive derivation the
  // cache exists for). Cold = fresh cache, both derivations run; warm = the
  // same two lookups served from the cache.
  SocialConfig dated_config;
  dated_config.dated_visits = true;
  Schema dated_schema = SocialSchema(true);
  AccessSchema dated_access = SocialAccessSchema(dated_config);
  constexpr const char* kQ3 =
      "Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
      "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")";
  Result<Cq> q3 = ParseCq(kQ3, &dated_schema);
  SI_CHECK(q3.ok());
  const VarSet q3_params = {p, Variable::Named("yy")};
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
