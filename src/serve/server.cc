#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace scalein::serve {

namespace {

/// Stable per-session fingerprint: the process/session hash mixed with the
/// client session id, so two sessions' QueryIds never collide and a run with
/// SCALEIN_SESSION_ID set is fully reproducible.
uint64_t ServeSessionFingerprint(const std::string& sid) {
  return HashCombine(obs::SessionFingerprint(),
                     Fnv1a64(sid.data(), sid.size()));
}

/// Client trace tags are identifiers, not free text: they land in log lines,
/// metrics joins, and response echoes, so the grammar is deliberately tight.
bool ValidTraceTag(std::string_view tag) {
  if (tag.empty() || tag.size() > 64) return false;
  for (char c : tag) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Refusals split into overload sheds (retrying later can succeed) and
/// contract rejections (the query itself cannot be served under the SLA);
/// the per-class tallies and serve.shed.<class> counters keep them apart.
bool IsShedReason(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull:
    case RejectReason::kQueueClassFull:
    case RejectReason::kQueueTimeout:
    case RejectReason::kDraining:
      return true;
    case RejectReason::kNone:
    case RejectReason::kNoStaticBound:
    case RejectReason::kBudgetExhausted:
      return false;
  }
  return false;
}

/// The counter of one admission action: "serve.admit" … "serve.reject".
std::string DecidedName(AdmitAction action) {
  return std::string("serve.") + AdmitActionName(action);
}

/// The counter of one rejection reason: "serve.rejected.<reason>".
std::string RejectedName(RejectReason reason) {
  return std::string("serve.rejected.") + RejectReasonName(reason);
}

/// Elapsed milliseconds between two monotonic stamps; 0 when the phase
/// never happened (either stamp unset) or the clock did not advance.
double PhaseMs(uint64_t start_ns, uint64_t end_ns) {
  if (start_ns == 0 || end_ns <= start_ns) return 0.0;
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

}  // namespace

Server::ClassSeries::ClassSeries(obs::MetricsRegistry* m, BoundClass cls)
    : queue_wait_ms(m, std::string("serve.queue_wait_ms.") + BoundClassName(cls)),
      exec_ms(m, std::string("serve.exec_ms.") + BoundClassName(cls)),
      e2e_ms(m, std::string("serve.e2e_ms.") + BoundClassName(cls)),
      shed(m, std::string("serve.shed.") + BoundClassName(cls)),
      queue_depth(m, std::string("serve.queue_depth.") + BoundClassName(cls)) {}

Server::Server(Shell* shell, Options options)
    : shell_(shell),
      options_(std::move(options)),
      metrics_(shell_->mutable_metrics()),
      decided_{{metrics_, DecidedName(AdmitAction::kAdmit)},
               {metrics_, DecidedName(AdmitAction::kQueue)},
               {metrics_, DecidedName(AdmitAction::kDegrade)},
               {metrics_, DecidedName(AdmitAction::kReject)}},
      by_class_{{metrics_, BoundClass::kSmall},
                {metrics_, BoundClass::kMedium},
                {metrics_, BoundClass::kLarge},
                {metrics_, BoundClass::kHuge}},
      rejected_{{metrics_, RejectedName(RejectReason::kNone)},
                {metrics_, RejectedName(RejectReason::kNoStaticBound)},
                {metrics_, RejectedName(RejectReason::kBudgetExhausted)},
                {metrics_, RejectedName(RejectReason::kQueueFull)},
                {metrics_, RejectedName(RejectReason::kQueueClassFull)},
                {metrics_, RejectedName(RejectReason::kQueueTimeout)},
                {metrics_, RejectedName(RejectReason::kDraining)}} {}

Server::~Server() { Drain(); }

Status Server::Start() {
  SI_RETURN_IF_ERROR(shell_->PrepareServe());
  if (options_.sla.server_fetch_capacity > 0) {
    ledger_.Init(options_.sla.server_fetch_capacity);
  }
  // Structured access log: Options wins; otherwise the same env-var pattern
  // as the shell's SCALEIN_JOURNAL_PATH.
  std::string log_path = options_.access_log_path;
  uint64_t log_max_bytes = options_.access_log_max_bytes;
  if (log_path.empty()) {
    if (const char* path = std::getenv("SCALEIN_ACCESS_LOG_PATH");
        path != nullptr && path[0] != '\0') {
      log_path = path;
    }
    if (const char* mb = std::getenv("SCALEIN_ACCESS_LOG_MAX_BYTES");
        mb != nullptr) {
      if (Result<uint64_t> parsed = ParseInteger<uint64_t>(mb);
          parsed.ok() && *parsed > 0) {
        log_max_bytes = *parsed;
      }
    }
  }
  if (!log_path.empty()) {
    access_log_ = std::make_unique<AccessLog>(std::move(log_path),
                                              log_max_bytes);
  }
  // Queue-depth gauges exist (at zero) from the first scrape, not from the
  // first enqueue: scrapers key on series presence, not just values.
  queue_depth_.Get().Set(0);
  for (ClassSeries& cls : by_class_) cls.queue_depth.Get().Set(0);
  started_ = true;
  return Status::OK();
}

bool Server::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

size_t Server::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

size_t Server::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

Result<std::string> Server::OpenSession(const std::string& sid,
                                        const std::string& trace_tag) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_) return Status::FailedPrecondition("server not started");
  if (draining_) return Status::FailedPrecondition("server is draining");
  if (sessions_.count(sid) != 0) {
    return Status::AlreadyExists("session '" + sid + "' already open");
  }
  auto env = std::make_shared<SessionEnvelope>(
      sid, ServeSessionFingerprint(sid), options_.sla.session_fetch_budget,
      options_.sla.server_fetch_capacity > 0 ? &ledger_ : nullptr);
  env->set_trace_tag(trace_tag);
  std::string out;
  if (env->unlimited()) {
    out = StrFormat("session %s open budget=unlimited", sid.c_str());
  } else {
    out = StrFormat("session %s open budget=%llu", sid.c_str(),
                    static_cast<unsigned long long>(env->lease()));
  }
  // Echo the tag so clients can confirm what their artifacts are stamped
  // with; untagged sessions keep their exact historical bytes.
  if (!trace_tag.empty()) out += " tag=" + trace_tag;
  out += "\n";
  sessions_.emplace(sid, std::move(env));
  metrics_->GetGauge("serve.sessions")
      .Set(static_cast<int64_t>(sessions_.size()));
  return out;
}

Result<std::string> Server::CloseSession(const std::string& sid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(sid);
  if (it == sessions_.end()) {
    return Status::NotFound("no session '" + sid + "'");
  }
  // Preempt before erasing: an in-flight evaluation holds a shared_ptr to
  // the envelope and observes the cancel at its next governor checkpoint.
  it->second->Preempt();
  sessions_.erase(it);
  metrics_->GetGauge("serve.sessions")
      .Set(static_cast<int64_t>(sessions_.size()));
  cv_.notify_all();
  return StrFormat("session %s closed\n", sid.c_str());
}

void Server::CountDecision(const AdmissionDecision& decision) {
  decided_[static_cast<size_t>(decision.action)].Get().Increment();
  if (decision.action == AdmitAction::kReject) {
    rejected_[static_cast<size_t>(decision.reject)].Get().Increment();
  }
}

std::string Server::RecordRefusal(const ServePlan& plan,
                                  const obs::QueryId& qid,
                                  const AdmissionDecision& decision,
                                  const std::string& client_tag) {
  obs::AccessCertificate cert;
  cert.query_fingerprint = plan.fingerprint;
  cert.query_id = obs::RenderQueryId(qid);
  cert.query_text = plan.query_text;
  cert.static_bound = decision.static_bound;
  // A refusal is a (zero-fetch) trip: the certificate's trip_reason carries
  // the full decision — action, the bound that justified it, and the
  // retry-after hint — inside the sealed payload, so `certify` proves the
  // server refused for the reason it claims.
  cert.tripped = true;
  cert.trip_reason = "admission: " + decision.ToString();
  return shell_->RecordServeVerdict(std::move(cert), /*elapsed_ms=*/0.0,
                                    client_tag);
}

std::string Server::EmitLifecycle(const obs::QueryId& qid,
                                  const std::string& sid,
                                  const std::string& client_tag,
                                  const AdmissionDecision& decision,
                                  const ServeEvalOutcome* outcome,
                                  const PhaseTiming& t, size_t bytes_out) {
  const BoundClass cls = ClassifyBound(decision.static_bound);
  const double queue_wait_ms = PhaseMs(t.queue_enter_ns, t.queue_exit_ns);
  const double exec_ms = PhaseMs(t.exec_start_ns, t.exec_done_ns);
  const double e2e_ms = PhaseMs(t.arrive_ns, t.done_ns);

  // One terminal tally per request — the intermediate kQueue decision is
  // *not* terminal, so a queued-then-admitted request counts once as admit.
  const bool shed =
      decision.action == AdmitAction::kReject && IsShedReason(decision.reject);
  ClassTally& tally = class_tallies_[static_cast<size_t>(cls)];
  ++tally.total;
  switch (decision.action) {
    case AdmitAction::kAdmit:
      ++tally.admitted;
      break;
    case AdmitAction::kDegrade:
      ++tally.degraded;
      break;
    case AdmitAction::kReject:
      if (shed) {
        ++tally.shed;
      } else {
        ++tally.rejected;
      }
      break;
    case AdmitAction::kQueue:
      break;  // unreachable: queue resolves to a terminal action above
  }

  // Per-class SLO histograms — the series the scrape endpoint exposes as
  // serve_queue_wait_ms_<class>_bucket etc.
  ClassSeries& series = by_class_[static_cast<size_t>(cls)];
  series.queue_wait_ms.Get().Observe(queue_wait_ms);
  series.exec_ms.Get().Observe(exec_ms);
  series.e2e_ms.Get().Observe(e2e_ms);
  if (shed) series.shed.Get().Increment();

  std::string warnings;
  if (access_log_ != nullptr) {
    AccessLogRecord rec;
    rec.query_id = obs::RenderQueryId(qid);
    rec.client_tag = client_tag;
    rec.session_id = sid;
    rec.bound_class = cls;
    rec.action = decision.action;
    rec.reject = decision.action == AdmitAction::kReject ? decision.reject
                                                         : RejectReason::kNone;
    rec.static_bound = decision.static_bound;
    rec.lease = decision.sub_budget;
    if (outcome != nullptr) {
      rec.fetches = outcome->fetched;
      rec.answers = outcome->answers;
      rec.tripped = !outcome->complete;
      if (!outcome->complete) rec.trip_reason = outcome->trip.ToString();
    }
    rec.queue_wait_ms = queue_wait_ms;
    rec.exec_ms = exec_ms;
    rec.e2e_ms = e2e_ms;
    rec.bytes_out = bytes_out;
    rec.degraded = decision.action == AdmitAction::kDegrade;
    if (Status s = access_log_->Append(rec); !s.ok()) {
      warnings += "warning: access log append failed: " + s.message() + "\n";
    }
  }

  if (obs::FlightRecorderEnabled()) {
    // Stamp the event with this request's QueryId; Submit runs on the
    // connection's thread, outside EvalForServe's correlation scope.
    obs::ScopedQueryCorrelation correlate(qid);
    obs::RecordFlightNums(
        obs::EventKind::kServePhase, AdmitActionName(decision.action),
        {{"queue_wait_ms", queue_wait_ms},
         {"exec_ms", exec_ms},
         {"e2e_ms", e2e_ms},
         {"bytes_out", static_cast<double>(bytes_out)}});
  }

  // Retroactive phase spans: the timeline was stamped as the request moved,
  // so spans can be emitted after the fact without any scoped objects on
  // the hot path. Nothing is built while no tracer is installed.
  if (obs::Tracer* tracer = obs::Tracer::Global(); tracer != nullptr) {
    const std::string qid_arg = "\"" + obs::RenderQueryId(qid) + "\"";
    auto span = [&](const char* name, uint64_t start_ns, uint64_t end_ns) {
      if (start_ns == 0 || end_ns <= start_ns) return;
      obs::TraceEvent event;
      event.name = name;
      event.category = "serve";
      event.start_ns = start_ns;
      event.duration_ns = end_ns - start_ns;
      event.args.emplace_back("query_id", qid_arg);
      if (!client_tag.empty()) {
        event.args.emplace_back("client_tag",
                                "\"" + obs::JsonEscape(client_tag) + "\"");
      }
      tracer->Record(std::move(event));
    };
    span("serve.parse", t.arrive_ns, t.parse_done_ns);
    span("serve.admission", t.parse_done_ns, t.decided_ns);
    span("serve.queue_wait", t.queue_enter_ns, t.queue_exit_ns);
    span("serve.exec", t.exec_start_ns, t.exec_done_ns);
    span("serve.serialize", t.exec_done_ns, t.done_ns);
    span("serve.request", t.arrive_ns, t.done_ns);
  }
  return warnings;
}

std::string Server::RenderClasses() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const ClassTally& tally : class_tallies_) total += tally.total;
  std::string out = StrFormat("classes: %llu request(s)\n",
                              static_cast<unsigned long long>(total));
  // All four classes always, zero or not, so the rendering is positional
  // and scripts/serve_report.py can reproduce it byte-for-byte. No
  // wall-clock content: tallies are deterministic for a fixed arrival
  // script (modulo queue-timeout races, which scripted mode pins down).
  for (size_t i = 0; i < kBoundClasses; ++i) {
    const ClassTally& c = class_tallies_[i];
    const double shed_rate =
        c.total > 0 ? static_cast<double>(c.shed) /
                          static_cast<double>(c.total)
                    : 0.0;
    out += StrFormat(
        "  %s n=%llu admitted=%llu degraded=%llu rejected=%llu shed=%llu "
        "shed_rate=%.4f\n",
        BoundClassName(static_cast<BoundClass>(i)),
        static_cast<unsigned long long>(c.total),
        static_cast<unsigned long long>(c.admitted),
        static_cast<unsigned long long>(c.degraded),
        static_cast<unsigned long long>(c.rejected),
        static_cast<unsigned long long>(c.shed), shed_rate);
  }
  return out;
}

Result<std::string> Server::Submit(const std::string& sid,
                                   std::string_view rest) {
  SI_RETURN_IF_ERROR(SCALEIN_FAILPOINT("serve_admit"));
  PhaseTiming t;
  t.arrive_ns = obs::MonotonicNowNs();

  // Per-request trace tag: "eval @tag var=value,... <query>" overrides the
  // session tag for this one request. Stripped before planning, so the
  // query text and its fingerprint are tag-independent.
  std::string request_tag;
  bool request_tagged = false;
  if (!rest.empty() && rest.front() == '@') {
    const size_t sp = rest.find(' ');
    std::string_view tag =
        rest.substr(1, sp == std::string_view::npos ? rest.size() - 1
                                                    : sp - 1);
    if (!ValidTraceTag(tag)) {
      return Status::InvalidArgument(
          "invalid trace tag '@" + std::string(tag) +
          "' (want 1-64 chars of [A-Za-z0-9._-])");
    }
    request_tag = std::string(tag);
    request_tagged = true;
    rest = sp == std::string_view::npos
               ? std::string_view()
               : StripWhitespace(rest.substr(sp + 1));
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (!started_) return Status::FailedPrecondition("server not started");
  auto it = sessions_.find(sid);
  if (it == sessions_.end()) {
    return Status::FailedPrecondition("no session '" + sid +
                                      "' (send hello first)");
  }
  std::shared_ptr<SessionEnvelope> env = it->second;
  const std::string client_tag =
      request_tagged ? request_tag : env->trace_tag();
  // Echoed on the response's decision line so a client can confirm what
  // the request's artifacts are stamped with; empty tag echoes nothing and
  // keeps untagged responses byte-identical to the historical format.
  const std::string tag_echo =
      client_tag.empty() ? std::string() : " tag=" + client_tag;

  // Pre-execution facts: parse + memoized §4 analysis + the static bound
  // for this parameter set. Parse/analysis errors are protocol errors, not
  // admission verdicts.
  SI_ASSIGN_OR_RETURN(ServePlan plan, shell_->PlanForServe(rest));
  t.parse_done_ns = obs::MonotonicNowNs();
  const obs::QueryId qid = env->NextQueryId();

  AdmissionInput in;
  in.static_bound = plan.static_bound;
  in.budget_remaining = env->remaining();
  in.budget_unlimited = env->unlimited();
  in.running = EffectiveRunning();
  in.queued_total = queue_.size();
  in.queued_in_class =
      queued_by_class_[static_cast<size_t>(ClassifyBound(plan.static_bound))];
  in.draining = draining_;
  AdmissionDecision decision = DecideAdmission(in, options_.sla);
  t.decided_ns = obs::MonotonicNowNs();
  admission_latency_.Get().Observe(
      static_cast<double>(t.decided_ns - t.arrive_ns) / 1e6);
  CountDecision(decision);

  if (decision.action == AdmitAction::kQueue) {
    // Bounded FIFO wait: hold this caller until it reaches the queue head
    // and a run slot frees, the queue timeout lapses, or the server drains.
    const size_t cls = static_cast<size_t>(ClassifyBound(plan.static_bound));
    QueueTicket ticket{next_ticket_++, static_cast<BoundClass>(cls)};
    queue_.push_back(ticket);
    ++queued_by_class_[cls];
    queue_depth_.Get().Set(static_cast<int64_t>(queue_.size()));
    by_class_[cls].queue_depth.Get().Set(
        static_cast<int64_t>(queued_by_class_[cls]));
    t.queue_enter_ns = obs::MonotonicNowNs();
    const bool admitted = cv_.wait_for(
        lock, std::chrono::milliseconds(options_.sla.queue_timeout_ms), [&] {
          return draining_ || (!queue_.empty() &&
                               queue_.front().id == ticket.id &&
                               EffectiveRunning() < options_.sla.RunSlots());
        });
    t.queue_exit_ns = obs::MonotonicNowNs();
    // Leave the queue whatever happened (on admit we were at the front).
    for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
      if (qit->id == ticket.id) {
        queue_.erase(qit);
        break;
      }
    }
    --queued_by_class_[cls];
    queue_depth_.Get().Set(static_cast<int64_t>(queue_.size()));
    by_class_[cls].queue_depth.Get().Set(
        static_cast<int64_t>(queued_by_class_[cls]));
    cv_.notify_all();  // the next ticket may now be at the front
    if (draining_) {
      decision.action = AdmitAction::kReject;
      decision.reject = RejectReason::kDraining;
      decision.sub_budget = 0;
      decision.retry_after_ms = 0;
      decision.reason = "server began draining while queued";
    } else if (!admitted) {
      decision.action = AdmitAction::kReject;
      decision.reject = RejectReason::kQueueTimeout;
      decision.sub_budget = 0;
      decision.retry_after_ms = options_.sla.queue_timeout_ms;
      decision.reason = StrFormat(
          "no run slot freed within %llums",
          static_cast<unsigned long long>(options_.sla.queue_timeout_ms));
    } else {
      // A slot is ours; the envelope may have changed while we waited, so
      // re-derive admit/degrade/reject against the fresh remaining budget.
      AdmissionInput again = in;
      again.budget_remaining = env->remaining();
      again.running = 0;
      again.queued_total = 0;
      again.queued_in_class = 0;
      decision = DecideAdmission(again, options_.sla);
    }
    CountDecision(decision);
  }

  if (decision.action == AdmitAction::kReject) {
    std::string warnings = RecordRefusal(plan, qid, decision, client_tag);
    std::string response =
        StrFormat("q%llu ", static_cast<unsigned long long>(qid.seq)) +
        decision.ToString() + tag_echo + "\n" + warnings;
    t.done_ns = obs::MonotonicNowNs();
    response += EmitLifecycle(qid, sid, client_tag, decision,
                              /*outcome=*/nullptr, t, response.size());
    return response;
  }

  // Admit or degrade: reserve the sub-budget, run outside the lock, refund
  // the unspent remainder. The admission check makes Reserve infallible
  // here; a false would be an accounting bug, surfaced loudly.
  if (!env->Reserve(decision.sub_budget)) {
    return Status::Internal("envelope reservation failed after admission");
  }
  exec::GovernorLimits limits = env->LimitsFor(decision.sub_budget,
                                               options_.sla);
  ++running_;
  running_gauge_.Get().Set(static_cast<int64_t>(running_));
  lock.unlock();
  t.exec_start_ns = obs::MonotonicNowNs();
  Result<ServeEvalOutcome> evaled =
      shell_->EvalForServe(plan, limits, qid, client_tag);
  t.exec_done_ns = obs::MonotonicNowNs();
  lock.lock();
  --running_;
  running_gauge_.Get().Set(static_cast<int64_t>(running_));
  env->Refund(decision.sub_budget, evaled.ok() ? (*evaled).fetched : 0);
  cv_.notify_all();
  SI_RETURN_IF_ERROR(evaled.status());
  const ServeEvalOutcome& out = *evaled;

  if (out.complete) {
    completed_.Get().Increment();
  } else if (out.trip.kind == exec::LimitKind::kCancelled) {
    metrics_->GetCounter("serve.preempted").Increment();
  }
  std::string response =
      StrFormat("q%llu ", static_cast<unsigned long long>(qid.seq)) +
      decision.ToString() + tag_echo + "\n" + out.AnswerBlock();
  t.done_ns = obs::MonotonicNowNs();
  response += EmitLifecycle(qid, sid, client_tag, decision, &out, t,
                            response.size());
  return response;
}

Result<std::string> Server::HandleLine(const std::string& sid,
                                       std::string_view line) {
  line = StripWhitespace(line);
  if (line.empty()) return std::string();
  if (line == "hello") return OpenSession(sid);
  if (StartsWith(line, "hello ")) {
    const std::string_view tag = StripWhitespace(line.substr(6));
    if (!ValidTraceTag(tag)) {
      return Status::InvalidArgument(
          "invalid trace tag '" + std::string(tag) +
          "' (want 1-64 chars of [A-Za-z0-9._-])");
    }
    return OpenSession(sid, std::string(tag));
  }
  if (line == "bye") return CloseSession(sid);
  if (line == "classes") return RenderClasses();
  if (line == "drain") {
    Drain();
    return std::string("draining\n");
  }
  if (line == "budget") {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) {
      return Status::FailedPrecondition("no session '" + sid + "'");
    }
    const SessionEnvelope& env = *it->second;
    if (env.unlimited()) return std::string("budget unlimited\n");
    return StrFormat(
        "budget remaining=%llu lease=%llu inflight=%llu\n",
        static_cast<unsigned long long>(env.remaining()),
        static_cast<unsigned long long>(env.lease()),
        static_cast<unsigned long long>(env.reserved_inflight()));
  }
  if (StartsWith(line, "#busy")) {
    if (!options_.scripted) {
      return Status::InvalidArgument("#busy is a scripted-mode directive");
    }
    Result<uint64_t> n =
        ParseInteger<uint64_t>(StripWhitespace(line.substr(5)));
    if (!n.ok()) return Status::InvalidArgument("usage: #busy <n>");
    std::lock_guard<std::mutex> lock(mu_);
    synthetic_running_ = static_cast<size_t>(*n);
    return StrFormat("busy %zu\n", synthetic_running_);
  }
  if (StartsWith(line, "eval ")) {
    return Submit(sid, StripWhitespace(line.substr(5)));
  }
  // Read-only observability pass-through: these shell commands only touch
  // thread-safe sinks (metrics, journal ring/store, workload aggregator).
  if (line == "stats" || StartsWith(line, "stats ") || line == "journal" ||
      line == "certify" || StartsWith(line, "certify ") ||
      line == "workload" || StartsWith(line, "workload ")) {
    return shell_->Execute(line);
  }
  return Status::InvalidArgument(
      "unknown serve command (hello | eval | budget | classes | stats | "
      "journal | certify | workload | drain | bye)");
}

void Server::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!draining_) {
    draining_ = true;
    // Preemption primitive: every in-flight evaluation observes its
    // session's cancellation token at the next governor checkpoint; queued
    // callers wake and shed as draining.
    for (auto& [sid, env] : sessions_) env->Preempt();
    cv_.notify_all();
  }
  cv_.wait(lock, [&] { return running_ == 0; });
}

}  // namespace scalein::serve
