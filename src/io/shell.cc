#include "io/shell.h"

#include <cstdlib>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "core/qdsi.h"
#include "exec/vm.h"
#include "io/catalog.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace scalein {
namespace {

/// Parses "x=1,y=\"NYC\"" into a Binding.
Result<Binding> ParseShellBinding(std::string_view text) {
  Binding out;
  if (StripWhitespace(text).empty()) return out;
  for (const std::string& piece : Split(text, ',')) {
    size_t eq = piece.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected var=value in '" + piece + "'");
    }
    std::string var(StripWhitespace(std::string_view(piece).substr(0, eq)));
    SI_ASSIGN_OR_RETURN(Value value,
                        ParseCsvValue(std::string_view(piece).substr(eq + 1)));
    out.emplace(Variable::Named(var), value);
  }
  return out;
}

/// A slow-query threshold: a gauge value, so it must fit in int64_t.
Result<int64_t> ParseThresholdMs(std::string_view text) {
  SI_ASSIGN_OR_RETURN(int64_t ms, ParseInteger<int64_t>(text));
  if (ms < 0) {
    return Status::InvalidArgument("expected a number, got '" +
                                   std::string(text) + "'");
  }
  return ms;
}

/// One line per collected span: name, duration, and its key=value args (arg
/// values are pre-rendered JSON fragments; printed as-is). The explain
/// renderer for `explain qdsi` / `explain analyze`.
std::string RenderSpans(const std::vector<obs::TraceEvent>& events) {
  std::string out;
  for (const obs::TraceEvent& e : events) {
    out += StrFormat("  %s (%.3f ms)", e.name.c_str(),
                     static_cast<double>(e.duration_ns) / 1e6);
    for (const auto& [key, value] : e.args) {
      out += " " + key + "=" + value;
    }
    out += "\n";
  }
  return out;
}

}  // namespace

Shell::Shell() {
  // Best-effort: a malformed SCALEIN_FAILPOINTS spec must not brick the
  // shell; it just leaves failpoints disarmed.
  (void)util::Failpoints::Global().InitFromEnv();
  recorder_ = std::make_unique<obs::FlightRecorder>();
  journal_ = std::make_unique<obs::QueryJournal>();
  // Latest shell wins the global slot; the destructor only uninstalls if it
  // still owns it, so stacked shells in tests behave.
  obs::FlightRecorder::InstallGlobal(recorder_.get());
  if (const char* path = std::getenv("SCALEIN_DUMP_PATH");
      path != nullptr && path[0] != '\0') {
    dump_path_ = path;
    obs::ArmPostMortem(dump_path_, recorder_.get(), journal_.get(),
                       metrics_.get());
  }
  if (const char* jpath = std::getenv("SCALEIN_JOURNAL_PATH");
      jpath != nullptr && jpath[0] != '\0') {
    uint64_t max_bytes = obs::JournalStore::kDefaultMaxBytes;
    if (const char* mb = std::getenv("SCALEIN_JOURNAL_MAX_BYTES");
        mb != nullptr && mb[0] != '\0') {
      if (Result<uint64_t> parsed = ParseInteger<uint64_t>(mb);
          parsed.ok() && *parsed > 0) {
        max_bytes = *parsed;
      }
    }
    journal_store_ = std::make_unique<obs::JournalStore>(jpath, max_bytes);
    // Replay the persisted history oldest-first so `workload` statistics
    // survive restarts; seal mismatches are reported, never fatal.
    obs::JournalLoadReport report;
    Result<std::vector<obs::JournalEntry>> loaded =
        journal_store_->Load(&report);
    if (!loaded.ok()) {
      journal_note_ =
          "warning: journal load failed: " + loaded.status().message() + "\n";
    } else if (!loaded->empty()) {
      for (const obs::JournalEntry& e : *loaded) {
        // Tampered entries are reported (in the load note), never trusted:
        // both this replay and workload_report.py exclude them, so the two
        // views stay byte-comparable.
        if (e.seal_ok) workload_->Observe(e.cert, e.latency_ms, e.noncontrollable);
      }
      journal_note_ = "replayed " + report.ToString() + "\n";
      workload_->ExportMetrics(metrics_.get());
    }
  }
  if (const char* spec = std::getenv("SCALEIN_METRICS_DUMP");
      spec != nullptr && spec[0] != '\0') {
    std::string path;
    double secs = 0;
    if (obs::ParseMetricsDumpSpec(spec, &path, &secs).ok()) {
      dumper_ = std::make_unique<obs::MetricsDumper>();
      (void)dumper_->Start(std::move(path), secs, metrics_.get());
    }
  }
  if (const char* ms = std::getenv("SCALEIN_SLOW_QUERY_MS");
      ms != nullptr && ms[0] != '\0') {
    if (Result<int64_t> parsed = ParseThresholdMs(ms); parsed.ok()) {
      metrics_->GetGauge("shell.slow_query_threshold_ms").Set(*parsed);
    }
  }
}

Shell::~Shell() {
  if (dumper_ != nullptr) dumper_->Stop();
  if (recorder_ != nullptr &&
      obs::FlightRecorder::Global() == recorder_.get()) {
    if (obs::PostMortemArmed()) {
      (void)obs::WritePostMortem("shell-exit");
      obs::DisarmPostMortem();
    }
    obs::FlightRecorder::InstallGlobal(nullptr);
  }
}

Database* Shell::EnsureDb() {
  if (db_ == nullptr) db_ = std::make_unique<Database>(schema_);
  return db_.get();
}

std::string Shell::HelpText() {
  return
      "commands:\n"
      "  schema relation R(a, b, ...)\n"
      "  access access R(x) N=100 | access key R(a) | access fd R: a -> b\n"
      "  row <relation> v1,v2,...\n"
      "  load <relation> <csv-path>\n"
      "  show | conformance\n"
      "  analyze Q(x, ...) := <FO formula>\n"
      "  eval var=value,... Q(x, ...) := <FO formula>\n"
      "  explain var=value,... Q(x, ...) := <FO formula>\n"
      "  explain qdsi <M> <cq-rule> | explain analyze <fo-query>\n"
      "  qdsi <M> Q(x) :- <CQ body>\n"
      "  limit [fetch=N] [deadline=MS] [rows=N] | limit off\n"
      "  stats [prom] | stats watch <secs> [path] | stats watch off\n"
      "  journal        list this session's access certificates\n"
      "  certify        re-verify every certificate offline\n"
      "  certify <dump.json>  re-verify certificates from a dump file\n"
      "  dump [path]    write the flight-recorder/journal/metrics dump\n"
      "  slowlog [<ms>|off]  set/show the slow-query threshold\n"
      "  workload [top K | fingerprint <fp>]  per-fingerprint bound-accuracy\n"
      "                 telemetry (persisted via SCALEIN_JOURNAL_PATH)\n"
      "  quit\n";
}

Result<std::string> Shell::Execute(std::string_view line) {
  line = StripWhitespace(line);
  if (line.empty() || line[0] == '#') return std::string();
  size_t space = line.find(' ');
  std::string command(line.substr(0, space));
  std::string_view rest =
      space == std::string_view::npos ? "" : StripWhitespace(line.substr(space));

  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(obs::EventKind::kShellCommand, command);
  }
  Result<std::string> out = ExecuteImpl(command, rest);
  if (!out.ok() && out.status().code() == StatusCode::kInternal &&
      out.status().message().find("failpoint") != std::string::npos) {
    // An injected fault surfaced to the user: snapshot the evidence.
    (void)obs::WritePostMortem("failpoint-error");
  }
  return out;
}

Result<std::string> Shell::ExecuteImpl(const std::string& command,
                                       std::string_view rest) {
  if (command == "help") return HelpText();

  if (command == "schema") {
    if (db_ != nullptr) {
      return Status::FailedPrecondition("schema is frozen once data is loaded");
    }
    SI_ASSIGN_OR_RETURN(Schema parsed, ParseSchemaText(rest));
    for (const RelationSchema& r : parsed.relations()) {
      SI_RETURN_IF_ERROR(schema_.AddRelation(r));
    }
    // DDL: cached derivations may reference the old environment.
    analysis_cache_->Invalidate();
    return std::string("ok\n");
  }

  if (command == "access") {
    SI_ASSIGN_OR_RETURN(AccessSchema parsed,
                        ParseAccessSchemaText(rest, schema_));
    for (const AccessStatement& s : parsed.statements()) {
      if (s.is_plain()) {
        access_.Add(s.relation, s.key_attrs, s.max_tuples, s.retrieval_time);
      } else {
        access_.AddEmbedded(s.relation, s.key_attrs, *s.value_attrs,
                            s.max_tuples, s.retrieval_time);
      }
    }
    // Cached options hold pointers into access_'s statement storage, so any
    // mutation invalidates even if the rendered text were unchanged.
    analysis_cache_->Invalidate();
    return std::string("ok\n");
  }

  if (command == "row") {
    size_t sp = rest.find(' ');
    if (sp == std::string_view::npos) {
      return Status::InvalidArgument("usage: row <relation> v1,v2,...");
    }
    std::string relation(rest.substr(0, sp));
    SI_RETURN_IF_ERROR(
        LoadRelationCsv(EnsureDb(), relation, rest.substr(sp + 1)));
    return std::string("ok\n");
  }

  if (command == "load") {
    size_t sp = rest.find(' ');
    if (sp == std::string_view::npos) {
      return Status::InvalidArgument("usage: load <relation> <csv-path>");
    }
    std::string relation(rest.substr(0, sp));
    SI_ASSIGN_OR_RETURN(std::string csv,
                        ReadFileToString(std::string(rest.substr(sp + 1))));
    SI_RETURN_IF_ERROR(LoadRelationCsv(EnsureDb(), relation, csv));
    return std::string("ok\n");
  }

  if (command == "show") {
    std::string out = schema_.ToString() + access_.ToString();
    if (db_ != nullptr) {
      out += StrFormat("|D| = %zu tuples\n", db_->TotalTuples());
    }
    return out;
  }

  if (command == "conformance") {
    if (db_ == nullptr) return Status::FailedPrecondition("no data loaded");
    SI_ASSIGN_OR_RETURN(ConformanceReport report,
                        CheckConformance(*db_, schema_, access_));
    std::string out =
        std::string("conforms: ") + (report.conforms ? "yes" : "no") + "\n";
    for (const ConformanceViolation& v : report.violations) {
      out += "  " + v.ToString(access_) + "\n";
    }
    return out;
  }

  if (command == "analyze") return RunAnalyze(rest, /*explain=*/false);

  if (command == "eval") return RunEval(rest, /*explain=*/false);

  if (command == "explain") {
    // Routed explains: `explain qdsi ...` / `explain analyze ...` re-run the
    // sub-command under a session-local tracer and render its span args.
    if (rest.substr(0, 5) == "qdsi " ) {
      return RunQdsi(StripWhitespace(rest.substr(5)), /*explain=*/true);
    }
    if (rest.substr(0, 8) == "analyze ") {
      return RunAnalyze(StripWhitespace(rest.substr(8)), /*explain=*/true);
    }
    return RunEval(rest, /*explain=*/true);
  }

  if (command == "stats") return RunStats(rest);

  if (command == "limit") return RunLimit(rest);

  if (command == "qdsi") return RunQdsi(rest, /*explain=*/false);

  if (command == "journal") return RunJournal();

  if (command == "certify") return RunCertify(rest);

  if (command == "dump") return RunDump(rest);

  if (command == "slowlog") return RunSlowlog(rest);

  if (command == "workload") return RunWorkload(rest);

  return Status::InvalidArgument("unknown command '" + command +
                                 "' (try 'help')");
}

Result<std::string> Shell::RunEval(std::string_view rest, bool explain) {
  // One correlation id per evaluation: every span, recorder event, slow-log
  // entry, certificate, journal line, and post-mortem dump produced below
  // carries it. A query that fails to plan does not consume it.
  const obs::QueryId qid{obs::SessionFingerprint(), query_seq_ + 1};
  obs::ScopedQueryCorrelation correlate(qid);
  SI_ASSIGN_OR_RETURN(ServePlan plan,
                      PlanForServe(rest, explain ? "explain" : "eval"));
  query_seq_ = qid.seq;
  SI_RETURN_IF_ERROR(access_.BuildIndexes(db_.get(), schema_));
  SI_ASSIGN_OR_RETURN(
      ServeEvalOutcome out,
      EvalForServe(plan, limits_, qid, /*client_tag=*/"", explain));
  if (!explain) return out.AnswerBlock();
  return out.rendered +
         StrFormat("(%zu answers%s)\n", out.answers,
                   out.complete ? "" : ", partial") +
         out.warnings;
}

std::string ServeEvalOutcome::AnswerBlock() const {
  std::string out =
      rendered + StrFormat("\n(%zu answers, %llu base tuples fetched%s)\n",
                           answers, static_cast<unsigned long long>(fetched),
                           complete ? "" : ", partial");
  if (!complete) out += "tripped: " + trip.ToString() + "\n";
  return out + warnings;
}

Status Shell::PrepareServe() {
  if (db_ == nullptr) return Status::FailedPrecondition("no data loaded");
  // Index construction is the one database mutation on the eval path; doing
  // it here means concurrent serve evaluations only ever read.
  return access_.BuildIndexes(db_.get(), schema_);
}

Result<ServePlan> Shell::PlanForServe(std::string_view rest,
                                      std::string_view command) {
  size_t sp = rest.find(' ');
  if (sp == std::string_view::npos) {
    return Status::InvalidArgument("usage: " + std::string(command) +
                                   " var=value,... <query>");
  }
  ServePlan plan;
  SI_ASSIGN_OR_RETURN(plan.params, ParseShellBinding(rest.substr(0, sp)));
  plan.query_text = std::string(StripWhitespace(rest.substr(sp + 1)));
  SI_ASSIGN_OR_RETURN(plan.query, ParseFoQuery(plan.query_text, &schema_));
  if (db_ == nullptr) return Status::FailedPrecondition("no data loaded");
  plan.fingerprint = obs::Fingerprint(plan.query_text);
  SI_ASSIGN_OR_RETURN(plan.analysis,
                      analysis_cache_->GetOrAnalyze(plan.query.body,
                                                    plan.query_text, schema_,
                                                    access_, {},
                                                    &plan.compiled));
  series_->cache_hits.Get().Set(
      static_cast<int64_t>(analysis_cache_->stats().hits));
  series_->cache_misses.Get().Set(
      static_cast<int64_t>(analysis_cache_->stats().misses));
  // The same option the evaluator will execute, so the bound the admission
  // decision cites is the bound the certificate will carry.
  const ControlOption* opt =
      plan.analysis->BestOptionFor(BoundVariables(plan.params));
  plan.static_bound = opt == nullptr ? -1.0 : opt->fetch_bound;
  return plan;
}

Result<ServeEvalOutcome> Shell::EvalForServe(const ServePlan& plan,
                                             const exec::GovernorLimits& limits,
                                             const obs::QueryId& qid,
                                             const std::string& client_tag,
                                             bool explain) {
  // The correlation slot is process-wide; concurrent sessions interleave
  // recorder/span stamping, but the certificate's id below is set explicitly
  // so journals stay exact.
  obs::ScopedQueryCorrelation correlate(qid);
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(obs::EventKind::kPlan, plan.fingerprint,
                           {obs::EventArg("query", plan.query_text)});
  }
  obs::AccessCertificate cert;
  cert.query_fingerprint = plan.fingerprint;
  cert.query_id = obs::RenderQueryId(qid);
  cert.query_text = plan.query_text;
  // The plan set is thread-safe and shared across sessions via the cache
  // entry, so a program compiled by one session serves them all.
  std::string why;
  const std::shared_ptr<const exec::CompiledProgram> program =
      plan.compiled->GetOrCompilePlain(exec::CompiledPlanSet::Mode::kAuto,
                                       plan.query, plan.analysis,
                                       BoundVariables(plan.params), &why);
  if (plan.static_bound < 0) {
    // A non-controllable query is workload signal, not just an error: seal a
    // no-static-bound certificate for it so `workload` and the offline report
    // can rank recurring classes that a view would make controllable, before
    // surfacing the compiler's error.
    metrics_->GetCounter("shell.noncontrollable_queries").Increment();
    (void)RecordServeVerdict(std::move(cert), /*elapsed_ms=*/0.0, client_tag);
    return Status::FailedPrecondition(why);
  }
  if (program == nullptr) return Status::Internal(why);
  series_->compiled_hits.Get().Increment();
  BoundedEvaluator evaluator(db_.get());
  evaluator.set_collect_timing(explain);
  evaluator.set_limits(limits);
  BoundedEvalStats stats;
  stats.capture_ops = explain;
  const uint64_t start_ns = obs::MonotonicNowNs();
  SI_ASSIGN_OR_RETURN(
      exec::Degraded<AnswerSet> degraded,
      evaluator.EvaluateDegraded(*program, plan.params, &stats));
  const double elapsed_ms =
      static_cast<double>(obs::MonotonicNowNs() - start_ns) / 1e6;
  series_->eval_latency.Get().Observe(elapsed_ms);
  series_->queries.Get().Increment();
  series_->fetched.Get().Increment(stats.base_tuples_fetched);
  series_->lookups.Get().Increment(stats.index_lookups);
  for (const auto& [relation, fetched] : stats.fetched_by_relation) {
    metrics_->GetCounter("shell.fetched." + relation).Increment(fetched);
  }
  if (!degraded.complete) {
    metrics_
        ->GetCounter(std::string("shell.governor.trips.") +
                     exec::LimitKindName(degraded.trip.kind))
        .Increment();
  }

  // Slow-query log: the threshold lives in a gauge so it is visible in
  // `stats` output and settable from both `slowlog` and the environment.
  const int64_t slow_ms = series_->slow_ms.Get().value();
  if (slow_ms > 0 && elapsed_ms >= static_cast<double>(slow_ms)) {
    metrics_->GetCounter("shell.slow_queries").Increment();
    if (obs::FlightRecorderEnabled()) {
      obs::RecordFlightEvent(
          obs::EventKind::kSlowQuery, plan.fingerprint,
          {obs::EventArg("ms", elapsed_ms),
           obs::EventArg("threshold_ms", static_cast<uint64_t>(slow_ms))});
    }
  }

  cert.static_bound = stats.static_bound;
  cert.actual_fetches = stats.base_tuples_fetched;
  cert.index_lookups = stats.index_lookups;
  cert.ops.reserve(stats.ops.size());
  for (const exec::OpCounters& op : stats.ops) {
    obs::CertOp co;
    co.label = op.label;
    co.rows_out = op.rows_out;
    co.tuples_fetched = op.tuples_fetched;
    co.index_lookups = op.index_lookups;
    co.static_bound = op.static_bound;
    cert.ops.push_back(std::move(co));
  }
  cert.tripped = !degraded.complete;
  if (cert.tripped) cert.trip_reason = degraded.trip.ToString();
  ServeEvalOutcome out;
  out.warnings = RecordServeVerdict(std::move(cert), elapsed_ms, client_tag);
  if (!degraded.complete && obs::PostMortemArmed()) {
    if (Status s = obs::WritePostMortemStatus("governor-trip"); !s.ok()) {
      out.warnings += "warning: post-mortem dump failed: " + s.message() + "\n";
    }
  }
  out.answers = degraded.value.size();
  out.rendered =
      explain ? obs::RenderExplainAnalyze(stats.ops, stats.base_tuples_fetched,
                                          stats.index_lookups,
                                          stats.static_bound, degraded.trip) +
                    "compiled:\n" + program->Disassemble()
              : AnswerSetToString(degraded.value, 50);
  out.fetched = stats.base_tuples_fetched;
  out.complete = degraded.complete;
  out.trip = degraded.trip;
  return out;
}

std::string Shell::RecordServeVerdict(obs::AccessCertificate cert,
                                      double elapsed_ms,
                                      const std::string& client_tag) {
  // No static bound and no trip: no derivation controls the query (an
  // admission refusal is a tripped certificate, so it never counts here).
  const bool noncontrollable = cert.static_bound < 0 && !cert.tripped;
  obs::SealCertificate(&cert);
  series_->certificates[static_cast<size_t>(cert.verdict)].Get().Increment();
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kCertificate, obs::CertVerdictName(cert.verdict),
        {obs::EventArg("fingerprint", cert.query_fingerprint),
         obs::EventArg("fetched", cert.actual_fetches),
         obs::EventArg("static_bound", cert.static_bound)});
  }
  workload_->Observe(cert, elapsed_ms, noncontrollable);
  workload_->ExportMetrics(metrics_.get());
  std::string warnings;
  if (journal_store_ != nullptr) {
    if (Status s = journal_store_->Append(cert, elapsed_ms, noncontrollable,
                                          client_tag);
        !s.ok()) {
      warnings += "warning: journal append failed: " + s.message() + "\n";
    }
  }
  journal_->Append(std::move(cert));
  return warnings;
}

Result<std::string> Shell::RunQdsi(std::string_view rest, bool explain) {
  size_t sp = rest.find(' ');
  if (sp == std::string_view::npos) {
    return Status::InvalidArgument("usage: qdsi <M> <cq-rule>");
  }
  SI_ASSIGN_OR_RETURN(uint64_t m, ParseInteger<uint64_t>(rest.substr(0, sp)));
  SI_ASSIGN_OR_RETURN(Cq q, ParseCq(rest.substr(sp + 1), &schema_));
  if (db_ == nullptr) return Status::FailedPrecondition("no data loaded");
  QdsiOptions options;
  exec::ResourceGovernor governor;
  if (limits_.any()) {
    governor.Arm(limits_.Pinned());
    options.governor = &governor;
  }
  // explain: collect the decision procedure's spans (verdict/method/work
  // args) in a command-local tracer, restoring the previous sink after.
  obs::Tracer local_tracer;
  obs::Tracer* saved_tracer = obs::Tracer::Global();
  if (explain) obs::Tracer::InstallGlobal(&local_tracer);
  QdsiDecision d = DecideQdsiCq(q, *db_, m, options);
  if (explain) obs::Tracer::InstallGlobal(saved_tracer);
  std::string out =
      StrFormat("QDSI(M=%llu): %s via %s",
                static_cast<unsigned long long>(m), VerdictName(d.verdict),
                d.method.c_str());
  if (d.witness.has_value()) {
    out += StrFormat(" (witness %zu tuples)", d.witness->size());
  }
  out += "\n";
  if (explain) {
    out += StrFormat("work: %llu search nodes/subsets\n",
                     static_cast<unsigned long long>(d.work));
    out += "spans:\n" + RenderSpans(local_tracer.events());
  }
  if (governor.tripped()) {
    metrics_
        ->GetCounter(std::string("shell.governor.trips.") +
                     exec::LimitKindName(governor.trip().kind))
        .Increment();
    out += "tripped: " + governor.trip().ToString() + "\n";
    if (obs::PostMortemArmed()) {
      if (Status s = obs::WritePostMortemStatus("governor-trip"); !s.ok()) {
        out += "warning: post-mortem dump failed: " + s.message() + "\n";
      }
    }
  }
  return out;
}

Result<std::string> Shell::RunAnalyze(std::string_view rest, bool explain) {
  SI_ASSIGN_OR_RETURN(FoQuery q, ParseFoQuery(rest, &schema_));
  obs::Tracer local_tracer;
  std::shared_ptr<const ControllabilityAnalysis> analysis;
  if (explain) {
    // Explain wants the derivation spans, so it always re-derives under a
    // local tracer instead of consulting the cache.
    obs::Tracer* saved_tracer = obs::Tracer::Global();
    obs::Tracer::InstallGlobal(&local_tracer);
    Result<ControllabilityAnalysis> fresh =
        ControllabilityAnalysis::Analyze(q.body, schema_, access_);
    obs::Tracer::InstallGlobal(saved_tracer);
    SI_RETURN_IF_ERROR(fresh.status());
    analysis = std::make_shared<const ControllabilityAnalysis>(
        std::move(fresh).ValueOrDie());
  } else {
    SI_ASSIGN_OR_RETURN(
        analysis, analysis_cache_->GetOrAnalyze(
                      q.body, StripWhitespace(rest), schema_, access_));
  }
  std::vector<VarSet> minimal = analysis->MinimalControlSets();
  std::string out;
  if (minimal.empty()) {
    out = "not controlled under the current access schema\n";
  } else {
    for (const VarSet& m : minimal) {
      Result<double> bound = analysis->StaticFetchBound(m);
      out += StrFormat("controlled by %s  (fetch bound %.0f)\n",
                       VarSetToString(m).c_str(), bound.ok() ? *bound : -1.0);
    }
    out += analysis->Explain(minimal[0]);
  }
  if (explain) {
    out += "spans:\n" + RenderSpans(local_tracer.events());
  }
  return out;
}

Result<std::string> Shell::RunStats(std::string_view rest) {
  if (rest.substr(0, 5) == "watch" ) {
    std::string_view args = StripWhitespace(rest.substr(5));
    if (args == "off") {
      if (dumper_ == nullptr || !dumper_->running()) {
        return std::string("stats watch is not running\n");
      }
      dumper_->Stop();
      return std::string("stats watch stopped\n");
    }
    std::vector<std::string> pieces = Split(args, ' ');
    if (pieces.empty() || pieces[0].empty()) {
      return Status::InvalidArgument(
          "usage: stats watch <secs> [path] | stats watch off");
    }
    char* end = nullptr;
    const double secs = std::strtod(pieces[0].c_str(), &end);
    if (end != pieces[0].c_str() + pieces[0].size() || !(secs > 0)) {
      return Status::InvalidArgument("watch interval must be a positive "
                                     "number of seconds");
    }
    std::string path = pieces.size() > 1 ? std::string(StripWhitespace(
                                               std::string_view(pieces[1])))
                                         : "scalein_metrics.jsonl";
    if (dumper_ != nullptr) dumper_->Stop();
    dumper_ = std::make_unique<obs::MetricsDumper>();
    SI_RETURN_IF_ERROR(dumper_->Start(path, secs, metrics_.get()));
    return StrFormat("watching: appending metrics to %s every %gs\n",
                     path.c_str(), secs);
  }
  if (rest == "prom") return metrics_->ToPrometheusText();
  if (!rest.empty()) {
    return Status::InvalidArgument(
        "usage: stats [prom] | stats watch <secs> [path] | stats watch off");
  }
  return metrics_->ToJson() + "\n";
}

Result<std::string> Shell::RunJournal() const {
  std::vector<obs::AccessCertificate> certs = journal_->certificates();
  std::string out = StrFormat("%zu certificate(s), %llu dropped\n",
                              certs.size(),
                              static_cast<unsigned long long>(
                                  journal_->dropped()));
  for (const obs::AccessCertificate& c : certs) {
    out += StrFormat("  %s %s fetches=%llu", c.query_fingerprint.c_str(),
                     obs::CertVerdictName(c.verdict),
                     static_cast<unsigned long long>(c.actual_fetches));
    if (c.static_bound >= 0) {
      out += StrFormat(" bound=%.0f", c.static_bound);
    }
    if (c.tripped) out += "  [" + c.trip_reason + "]";
    out += "\n";
  }
  return out;
}

Result<std::string> Shell::RunCertify(std::string_view rest) const {
  const std::string path(StripWhitespace(rest));
  std::vector<obs::AccessCertificate> certs;
  if (path.empty()) {
    certs = journal_->certificates();
  } else {
    // Offline mode: re-verify certificates out of a previously written dump
    // (the `dump` command's JSON, a bare journal object, or a bare array) or
    // a JSONL journal file written by the persistent JournalStore.
    SI_ASSIGN_OR_RETURN(std::string json, ReadFileToString(path));
    Result<std::vector<obs::AccessCertificate>> parsed =
        obs::CertificatesFromDumpJson(json);
    if (!parsed.ok()) parsed = obs::CertificatesFromJsonl(json);
    SI_RETURN_IF_ERROR(parsed.status());
    certs = std::move(parsed).ValueOrDie();
  }
  if (certs.empty()) return std::string("no certificates to verify\n");
  std::string out;
  size_t passed = 0;
  for (const obs::AccessCertificate& c : certs) {
    const bool ok = obs::VerifyCertificate(c);
    if (ok) ++passed;
    out += StrFormat("  %s %s %s\n", c.query_fingerprint.c_str(),
                     obs::CertVerdictName(c.verdict),
                     ok ? "signature-ok" : "SIGNATURE-MISMATCH");
  }
  out += StrFormat("%zu/%zu certificates verify", passed, certs.size());
  if (!path.empty()) out += " (from " + path + ")";
  out += "\n";
  if (passed != certs.size()) {
    // A failed seal is tampered (or corrupted) evidence, not a warning to
    // scroll past: surface it as a typed error so batch callers (CI, the
    // example binary's exit code) fail loudly. The listing travels in the
    // message so the operator still sees which lines broke.
    return Status::DataLoss(StrFormat("%zu/%zu certificates failed seal "
                                      "verification\n",
                                      certs.size() - passed, certs.size()) +
                            out);
  }
  return out;
}

Result<std::string> Shell::RunDump(std::string_view rest) const {
  std::string path(StripWhitespace(rest));
  if (path.empty()) path = dump_path_;
  if (path.empty()) {
    return Status::InvalidArgument(
        "usage: dump <path> (or set SCALEIN_DUMP_PATH)");
  }
  const std::string text = obs::RenderDump("manual", recorder_.get(),
                                           journal_.get(), metrics_.get());
  SI_RETURN_IF_ERROR(obs::EnsureParentDirs(path));
  SI_RETURN_IF_ERROR(obs::WriteTextFile(path, text));
  return "wrote dump to " + path + "\n";
}

Result<std::string> Shell::RunWorkload(std::string_view rest) const {
  std::string_view args = StripWhitespace(rest);
  if (args.empty()) {
    std::string out = workload_->RenderTop(10);
    if (journal_store_ != nullptr) {
      out += StrFormat(
          "journal: %s (%llu appended, %llu rotation(s))\n",
          journal_store_->path().c_str(),
          static_cast<unsigned long long>(journal_store_->appended()),
          static_cast<unsigned long long>(journal_store_->rotations()));
    }
    if (!journal_note_.empty()) out += journal_note_;
    return out;
  }
  if (args.substr(0, 4) == "top ") {
    SI_ASSIGN_OR_RETURN(
        uint64_t k, ParseInteger<uint64_t>(StripWhitespace(args.substr(4))));
    return workload_->RenderTop(static_cast<size_t>(k));
  }
  if (args.substr(0, 12) == "fingerprint ") {
    const std::string fp(StripWhitespace(args.substr(12)));
    if (!fp.empty()) return workload_->RenderFingerprint(fp);
  }
  return Status::InvalidArgument(
      "usage: workload [top K | fingerprint <fp>]");
}

Result<std::string> Shell::RunSlowlog(std::string_view rest) {
  obs::Gauge& gauge = metrics_->GetGauge("shell.slow_query_threshold_ms");
  if (rest.empty()) {
    const int64_t ms = gauge.value();
    if (ms <= 0) return std::string("slow-query log off\n");
    return StrFormat("slow-query threshold: %lld ms\n",
                     static_cast<long long>(ms));
  }
  if (rest == "off") {
    gauge.Set(0);
    return std::string("slow-query log off\n");
  }
  SI_ASSIGN_OR_RETURN(int64_t ms, ParseThresholdMs(rest));
  gauge.Set(ms);
  return StrFormat("slow-query threshold: %lld ms\n",
                   static_cast<long long>(ms));
}

Result<std::string> Shell::RunLimit(std::string_view rest) {
  if (rest == "off") {
    limits_ = exec::GovernorLimits();
    return std::string("limits cleared\n");
  }
  if (rest.empty()) {
    if (!limits_.any()) return std::string("no limits set\n");
    std::string out = "limits:";
    if (limits_.fetch_budget > 0) {
      out += StrFormat(" fetch=%llu",
                       static_cast<unsigned long long>(limits_.fetch_budget));
    }
    if (limits_.deadline_ms > 0) {
      out += StrFormat(" deadline=%llums",
                       static_cast<unsigned long long>(limits_.deadline_ms));
    }
    if (limits_.output_row_cap > 0) {
      out += StrFormat(
          " rows=%llu", static_cast<unsigned long long>(limits_.output_row_cap));
    }
    out += "\n";
    return out;
  }
  exec::GovernorLimits parsed = limits_;
  for (const std::string& piece : Split(rest, ' ')) {
    std::string_view p = StripWhitespace(piece);
    if (p.empty()) continue;
    size_t eq = p.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          "usage: limit [fetch=N] [deadline=MS] [rows=N] | limit off");
    }
    std::string_view key = p.substr(0, eq);
    SI_ASSIGN_OR_RETURN(uint64_t value,
                        ParseInteger<uint64_t>(p.substr(eq + 1)));
    if (key == "fetch") {
      parsed.fetch_budget = value;
    } else if (key == "deadline") {
      parsed.deadline_ms = value;
    } else if (key == "rows") {
      parsed.output_row_cap = value;
    } else {
      return Status::InvalidArgument("unknown limit '" + std::string(key) +
                                     "' (fetch, deadline, rows)");
    }
  }
  limits_ = parsed;
  return std::string("ok\n");
}

}  // namespace scalein
