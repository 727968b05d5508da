#ifndef SCALEIN_IO_SHELL_H_
#define SCALEIN_IO_SHELL_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/access_schema.h"
#include "core/analysis_cache.h"
#include "eval/answer_set.h"
#include "exec/compiler.h"
#include "exec/governor.h"
#include "obs/correlation.h"
#include "obs/dump.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/workload.h"
#include "query/formula.h"
#include "relational/database.h"
#include "relational/schema.h"
#include "util/status.h"

namespace scalein {

/// Pre-execution facts for one query: the parse, the memoized §4
/// controllability analysis, and the static Theorem 4.2 fetch bound for the
/// given parameter set — everything the admission controller (src/serve)
/// needs *before* running the query. Built by Shell::PlanForServe.
///
/// There is one query path, shared by the shell's `eval`/`explain` and the
/// server: PlanForServe derives the bound, EvalForServe executes the
/// derivation and certifies fetched ≤ bound, RecordServeVerdict seals and
/// journals the certificate, and ServeEvalOutcome::AnswerBlock renders the
/// answers. The names keep their serve prefix because the wire benchmark
/// (wirebench/replay.cc) calls them as a pinned API.
struct ServePlan {
  std::string query_text;
  std::string fingerprint;
  Binding params;
  FoQuery query;
  std::shared_ptr<const ControllabilityAnalysis> analysis;
  /// The analysis-cache entry's compiled-plan set; EvalForServe takes the
  /// program for its parameter set from it (compiling on first sighting).
  /// Dropped with the cache entry on DDL.
  std::shared_ptr<exec::CompiledPlanSet> compiled;
  /// BestOptionFor(params)->fetch_bound; < 0 when the query is not
  /// controlled by the given parameters (nothing to admit against).
  double static_bound = -1.0;
};

/// What one evaluation produced: the client-facing rendering plus the
/// accounting the server folds into its envelope (actual fetches refund the
/// unspent lease) and metrics.
struct ServeEvalOutcome {
  size_t answers = 0;
  /// Capped AnswerSetToString text; for `explain`, the EXPLAIN ANALYZE tree
  /// followed by the program's disassembly.
  std::string rendered;
  uint64_t fetched = 0;      ///< base tuples actually read
  bool complete = true;      ///< false: governor tripped, partial extent
  exec::TripInfo trip;       ///< meaningful when !complete
  std::string warnings;      ///< surfaced journal/dump write failures

  /// The answer block `eval` prints and the server sends after its decision
  /// line: the rendered answers, `(N answers, M base tuples fetched[,
  /// partial])`, a `tripped:` line when the governor cut the run short, and
  /// the warnings.
  std::string AnswerBlock() const;
};

/// Command interpreter behind examples/scalein_shell.cpp: builds up a schema,
/// an access schema, and a database, then answers analysis/evaluation/QDSI
/// commands. Output is returned as text so the interpreter is testable; the
/// example binary pipes stdin lines in and prints what comes back.
///
/// Commands (one per line; see `HelpText()`):
///   schema relation R(a, b, ...)
///   access access R(x) N=100 | access key R(a) | access fd R: a -> b
///   row <relation> v1,v2,...
///   load <relation> <csv-file>
///   show | conformance
///   analyze Q(x, ...) := <FO formula>
///   eval var=value,... Q(x, ...) := <FO formula>
///   explain var=value,... Q(x, ...) := <FO formula>
///   explain qdsi <M> Q(x) :- <CQ body> | explain analyze <fo-query>
///   qdsi <M> Q(x) :- <CQ body>
///   limit [fetch=N] [deadline=MS] [rows=N] | limit off
///   stats [prom] | stats watch <secs> [path] | stats watch off
///   journal | certify [dump.json|journal.jsonl] | dump [path]
///   slowlog [<ms>|off] | workload [top K | fingerprint <fp>]
///
/// `limit` arms the session's resource governor: later eval/explain/qdsi
/// commands run under the envelope and report *partial* results plus the
/// tripped limit instead of failing outright (explain tags the tripping
/// operator in the tree).
///
/// Observability: every session owns a flight recorder (installed as the
/// process-wide sink) and a query journal of access certificates — one
/// sealed certificate per eval. Each eval mints a QueryId
/// (obs/correlation.h) that stamps its spans, recorder events, certificate,
/// slow-log entry, journal line, and any post-mortem dump, so one query's
/// artifacts are joinable by one id. `journal` lists certificates, `certify`
/// re-verifies them offline, `dump` writes the joined post-mortem JSON. With
/// SCALEIN_DUMP_PATH set, the same dump is written automatically on governor
/// trips, failpoint-induced errors, and session end. With
/// SCALEIN_JOURNAL_PATH set, every certificate is also appended to a
/// persistent JSONL journal (rotated at SCALEIN_JOURNAL_MAX_BYTES) and the
/// workload aggregator replays it at startup, so `workload` statistics
/// survive restarts; scripts/workload_report.py reads the same files.
class Shell {
 public:
  /// Also arms the failpoint framework from SCALEIN_FAILPOINTS, the
  /// post-mortem dump from SCALEIN_DUMP_PATH, the periodic metrics dump from
  /// SCALEIN_METRICS_DUMP=<path>:<secs>, and the slow-query threshold from
  /// SCALEIN_SLOW_QUERY_MS — so piping a script through the shell exercises
  /// fault and observability paths without recompiling.
  Shell();
  ~Shell();
  Shell(Shell&&) = default;
  Shell& operator=(Shell&&) = default;

  /// Executes one command line; returns the text to display. Errors are
  /// reported in the Status (nothing is printed on error paths).
  Result<std::string> Execute(std::string_view line);

  static std::string HelpText();

  const Schema& schema() const { return schema_; }
  const AccessSchema& access() const { return access_; }
  const Database* db() const { return db_.get(); }
  /// Session-scoped metrics (queries, fetch totals, latency histogram);
  /// rendered by the `stats` command.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }
  /// Session resource envelope (armed by the `limit` command).
  const exec::GovernorLimits& limits() const { return limits_; }
  /// Session flight recorder (installed as the process-global sink while
  /// this shell is the most recently constructed one).
  const obs::FlightRecorder& recorder() const { return *recorder_; }
  /// Per-query access certificates, newest last.
  const obs::QueryJournal& journal() const { return *journal_; }
  /// Per-fingerprint workload telemetry (always on; fed by every eval and,
  /// when SCALEIN_JOURNAL_PATH is set, by the replayed persistent journal).
  const obs::WorkloadAggregator& workload() const { return *workload_; }
  /// Persistent JSONL journal store; nullptr without SCALEIN_JOURNAL_PATH.
  const obs::JournalStore* journal_store() const {
    return journal_store_.get();
  }
  /// Memoized controllability derivations; invalidated on schema/access DDL.
  const AnalysisCache& analysis_cache() const { return *analysis_cache_; }

  /// The query path (see ServePlan); `eval`/`explain` and src/serve both
  /// run every query through it. PrepareServe freezes the catalog for
  /// concurrent evaluation: it builds every access-schema index up front so
  /// no later evaluation mutates the database (the shell builds them per
  /// eval instead, since it may load more rows in between). PlanForServe
  /// parses "var=value,... <query>" (`command` names the command in the
  /// usage error), consults the analysis cache and derives the
  /// pre-execution admission facts; call it serially — the server holds its
  /// admission mutex. EvalForServe runs one planned query under the given
  /// governor envelope and is safe to call from concurrent sessions after
  /// PrepareServe: it touches only thread-safe members (metrics, workload
  /// aggregator, journal ring + store) and never the session sequence.
  Status PrepareServe();
  Result<ServePlan> PlanForServe(std::string_view rest,
                                 std::string_view command = "eval");
  /// A plan with no static bound is not controlled: EvalForServe seals a
  /// no-static-bound certificate and returns FailedPrecondition without
  /// running anything. Otherwise it executes the compiled derivation,
  /// updates the session metrics and slow-query log, and seals the run's
  /// certificate. `explain` captures per-op counters and timings into the
  /// certificate and renders the EXPLAIN ANALYZE tree. `client_tag` is the
  /// serve layer's caller-supplied trace tag; it rides next to the sealed
  /// certificate in the persistent journal (a non-sealed sibling, like
  /// latency) and is empty for untagged requests.
  Result<ServeEvalOutcome> EvalForServe(const ServePlan& plan,
                                        const exec::GovernorLimits& limits,
                                        const obs::QueryId& qid,
                                        const std::string& client_tag = "",
                                        bool explain = false);
  /// Seals, tallies, journals (ring + persistent store) and records one
  /// certificate: an evaluation's, or a server-minted verdict (admission
  /// rejects and queue-timeout sheds carry the static bound that justified
  /// them, so they are `certify`-checkable like any eval). Returns warning
  /// lines for surfaced append failures.
  std::string RecordServeVerdict(obs::AccessCertificate cert,
                                 double elapsed_ms,
                                 const std::string& client_tag = "");
  /// Session metrics registry, mutably — the server stamps serve.* series
  /// into the same registry `stats prom` renders. Thread-safe.
  obs::MetricsRegistry* mutable_metrics() { return metrics_.get(); }

 private:
  Database* EnsureDb();
  Result<std::string> ExecuteImpl(const std::string& command,
                                  std::string_view rest);
  /// `eval` / `explain`: mints the QueryId, plans, builds indexes, executes
  /// and renders through the query path above. `explain` renders the
  /// EXPLAIN ANALYZE tree with the static Theorem 4.2 bound next to the
  /// actual fetch count.
  Result<std::string> RunEval(std::string_view rest, bool explain);
  /// `qdsi` / `explain qdsi`: the §3 decision procedure; explain renders the
  /// verdict/method/work span args collected during the decision.
  Result<std::string> RunQdsi(std::string_view rest, bool explain);
  /// `analyze` / `explain analyze`: controllability analysis; explain adds
  /// the analysis spans (derived options, work).
  Result<std::string> RunAnalyze(std::string_view rest, bool explain);
  /// Parses `limit` arguments into limits_ ("off" clears them).
  Result<std::string> RunLimit(std::string_view rest);
  Result<std::string> RunStats(std::string_view rest);
  Result<std::string> RunJournal() const;
  /// `certify` re-verifies the live journal; `certify <dump.json>` loads
  /// certificates back out of a dump file and re-verifies them offline.
  Result<std::string> RunCertify(std::string_view rest) const;
  Result<std::string> RunDump(std::string_view rest) const;
  Result<std::string> RunSlowlog(std::string_view rest);
  /// `workload [top K | fingerprint <fp>]`: per-fingerprint telemetry.
  Result<std::string> RunWorkload(std::string_view rest) const;

  /// Fixed-name series of `metrics_` the query path moves on every query,
  /// looked up at first use and kept (obs::Series). `certificates` is
  /// indexed by obs::CertVerdict.
  struct QuerySeries {
    explicit QuerySeries(obs::MetricsRegistry* m)
        : cache_hits(m, "shell.analysis_cache.hits"),
          cache_misses(m, "shell.analysis_cache.misses"),
          compiled_hits(m, "exec.compiled_hits"),
          eval_latency(m, "shell.eval_latency_ms"),
          queries(m, "shell.queries"),
          fetched(m, "shell.base_tuples_fetched"),
          lookups(m, "shell.index_lookups"),
          slow_ms(m, "shell.slow_query_threshold_ms"),
          certificates{{m, CertificatesName(obs::CertVerdict::kWithinBound)},
                       {m, CertificatesName(obs::CertVerdict::kExceeded)},
                       {m, CertificatesName(obs::CertVerdict::kNoStaticBound)},
                       {m, CertificatesName(obs::CertVerdict::kTripped)}} {}
    static std::string CertificatesName(obs::CertVerdict verdict) {
      return std::string("shell.certificates.") +
             obs::CertVerdictName(verdict);
    }
    obs::Series<obs::Gauge> cache_hits;
    obs::Series<obs::Gauge> cache_misses;
    obs::Series<obs::Counter> compiled_hits;
    obs::Series<obs::Histogram> eval_latency;
    obs::Series<obs::Counter> queries;
    obs::Series<obs::Counter> fetched;
    obs::Series<obs::Counter> lookups;
    obs::Series<obs::Gauge> slow_ms;
    obs::Series<obs::Counter> certificates[obs::kCertVerdicts];
  };

  Schema schema_;
  AccessSchema access_;
  exec::GovernorLimits limits_;
  std::unique_ptr<Database> db_;
  // Behind pointers: these own mutexes/threads, and Shell must stay movable.
  std::unique_ptr<obs::MetricsRegistry> metrics_ =
      std::make_unique<obs::MetricsRegistry>();
  std::unique_ptr<QuerySeries> series_ =
      std::make_unique<QuerySeries>(metrics_.get());
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<obs::QueryJournal> journal_;
  std::unique_ptr<obs::JournalStore> journal_store_;
  std::unique_ptr<obs::WorkloadAggregator> workload_ =
      std::make_unique<obs::WorkloadAggregator>();
  std::unique_ptr<obs::MetricsDumper> dumper_;
  std::unique_ptr<AnalysisCache> analysis_cache_ =
      std::make_unique<AnalysisCache>();
  std::string dump_path_;  ///< SCALEIN_DUMP_PATH; default for `dump`
  uint64_t query_seq_ = 0;    ///< per-session QueryId sequence
  std::string journal_note_;  ///< startup JournalStore load report
};

}  // namespace scalein

#endif  // SCALEIN_IO_SHELL_H_
