#ifndef SCALEIN_SERVE_SERVER_H_
#define SCALEIN_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "io/shell.h"
#include "serve/access_log.h"
#include "serve/admission.h"
#include "serve/session.h"
#include "util/status.h"

namespace scalein::serve {

/// The multi-session front end: multiplexes concurrent client sessions onto
/// the engine, with every session wrapped in a SessionEnvelope lease carved
/// from a server-wide exec::SharedLedger and every arriving query passed
/// through the bound-based admission controller (serve/admission.h).
///
/// Concurrency model: admission decisions, queueing, and envelope accounting
/// happen under one mutex — decisions are serialized, which is what makes
/// them deterministic for a fixed arrival script. Evaluations drop the lock
/// and run on the *calling* thread (one per connection in port.cc, one per
/// worker in bench_serve); the parallelism is up to max_running admitted
/// queries at once, each one sequential walk. A queued caller blocks in
/// Submit on the bounded FIFO until a run slot frees or its queue-timeout
/// lapses.
///
/// Every admission verdict that refuses work (reject, queue-timeout shed) is
/// sealed into the journal as a tripped certificate whose trip_reason
/// carries the static Theorem 4.2 bound that justified it — `certify` checks
/// server refusals exactly like evaluations.
class Server {
 public:
  struct Options {
    SlaConfig sla;
    /// Scripted mode: enables the `#busy <n>` synthetic-run-slot directive
    /// so a single-threaded arrival script can walk queries through
    /// queue/queue-timeout deterministically (no racing threads needed).
    bool scripted = false;
    /// Structured access log: one JSONL AccessLogRecord per served request,
    /// size-rotated like the certificate journal. Empty = disabled; Start()
    /// falls back to SCALEIN_ACCESS_LOG_PATH (and
    /// SCALEIN_ACCESS_LOG_MAX_BYTES) when unset here.
    std::string access_log_path;
    uint64_t access_log_max_bytes = AccessLog::kDefaultMaxBytes;
  };

  /// `shell` must outlive the server and have its catalog loaded; Start()
  /// freezes it for concurrent evaluation.
  Server(Shell* shell, Options options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Freezes the shell catalog (PrepareServe) and arms the server-wide
  /// fetch ledger when the SLA carries a server capacity.
  Status Start();

  /// One protocol line from session `sid`:
  ///   hello [tag]                open the session (lease an envelope); the
  ///                              optional tag stamps this session's requests
  ///   eval [@tag] var=value,... <query>  admission + evaluation; @tag
  ///                              overrides the session tag for this request
  ///   budget                     report the envelope's remaining lease
  ///   bye                        close the session (preempts in-flight work)
  ///   classes                    per-bound-class admission tallies
  ///   stats [prom] | journal | certify [path] | workload [...]   read-only
  ///   drain                      admin: drain the whole server
  ///   #busy <n>                  scripted mode only: synthetic run slots
  Result<std::string> HandleLine(const std::string& sid,
                                 std::string_view line);

  Result<std::string> OpenSession(const std::string& sid,
                                  const std::string& trace_tag = "");
  Result<std::string> CloseSession(const std::string& sid);

  /// Admission + (when admitted/degraded) evaluation of one `eval` body.
  /// Queued callers block here until a slot frees or the queue timeout
  /// lapses. Returns the deterministic response text; infrastructure
  /// errors (parse failures, injected faults) surface as a Status.
  Result<std::string> Submit(const std::string& sid, std::string_view rest);

  /// The per-class admission tallies the `classes` command renders — one
  /// line per BoundClass, wall-clock-free, byte-identical to what
  /// scripts/serve_report.py recomputes from the access log.
  std::string RenderClasses() const;

  /// Graceful shutdown: refuse new work, preempt every session's in-flight
  /// evaluation via its cancellation token, wake all queued callers (they
  /// shed as draining), and wait until nothing is running. Idempotent.
  void Drain();

  bool draining() const;
  size_t session_count() const;
  size_t running() const;
  size_t queue_depth() const;
  const SlaConfig& sla() const { return options_.sla; }
  /// The shell's (thread-safe) metrics registry — the port layer stamps its
  /// serve.io_faults accounting into the same series `stats prom` renders.
  obs::MetricsRegistry* shell_metrics() const { return metrics_; }
  /// Structured access log; nullptr when disabled.
  const AccessLog* access_log() const { return access_log_.get(); }

 private:
  struct QueueTicket {
    uint64_t id = 0;
    BoundClass cls = BoundClass::kSmall;
  };

  /// Request lifecycle timestamps (monotonic ns), filled in as Submit walks
  /// accept → parse → admission → queue wait → execute → serialize. Zero
  /// pairs mean the phase never happened (e.g. queue for a straight admit).
  struct PhaseTiming {
    uint64_t arrive_ns = 0;
    uint64_t parse_done_ns = 0;
    uint64_t decided_ns = 0;
    uint64_t queue_enter_ns = 0;
    uint64_t queue_exit_ns = 0;
    uint64_t exec_start_ns = 0;
    uint64_t exec_done_ns = 0;
    uint64_t done_ns = 0;
  };

  /// Per-BoundClass admission tallies behind the `classes` command. `shed`
  /// counts overload refusals (queue-timeout/full/class-full/draining);
  /// `rejected` the contract ones (no bound, budget).
  struct ClassTally {
    uint64_t total = 0;
    uint64_t admitted = 0;
    uint64_t degraded = 0;
    uint64_t rejected = 0;
    uint64_t shed = 0;
  };

  /// Seals + journals a refused query's verdict certificate. Caller holds
  /// mu_ (the underlying sinks are thread-safe; holding the lock keeps
  /// journal order identical to decision order).
  std::string RecordRefusal(const ServePlan& plan, const obs::QueryId& qid,
                            const AdmissionDecision& decision,
                            const std::string& client_tag);
  /// Counts a decision into the serve.* metrics. Caller holds mu_.
  void CountDecision(const AdmissionDecision& decision);
  /// One request's terminal bookkeeping: per-class SLO histograms and shed
  /// counters, the class tally, the access-log line, a qid-stamped
  /// serve-phase flight event, and retroactive phase spans when a tracer is
  /// installed. Caller holds mu_; returns warning lines (access-log append
  /// failures), never an error.
  std::string EmitLifecycle(const obs::QueryId& qid, const std::string& sid,
                            const std::string& client_tag,
                            const AdmissionDecision& decision,
                            const ServeEvalOutcome* outcome,
                            const PhaseTiming& t, size_t bytes_out);
  size_t EffectiveRunning() const {
    return running_ + synthetic_running_;
  }

  Shell* const shell_;
  const Options options_;
  obs::MetricsRegistry* const metrics_;  ///< shell's registry
  /// The serve.*.<class> series of one bound class, named from
  /// BoundClassName.
  struct ClassSeries {
    ClassSeries(obs::MetricsRegistry* m, BoundClass cls);
    obs::Series<obs::Histogram> queue_wait_ms;
    obs::Series<obs::Histogram> exec_ms;
    obs::Series<obs::Histogram> e2e_ms;
    obs::Series<obs::Counter> shed;
    obs::Series<obs::Gauge> queue_depth;
  };

  // serve.* series every request moves, looked up at first use and kept.
  // decided_ is indexed by AdmitAction, by_class_ by BoundClass and
  // rejected_ by RejectReason.
  obs::Series<obs::Counter> decided_[4];
  ClassSeries by_class_[kBoundClasses];
  obs::Series<obs::Counter> rejected_[kRejectReasons];
  obs::Series<obs::Gauge> queue_depth_{metrics_, "serve.queue_depth"};
  obs::Series<obs::Histogram> admission_latency_{metrics_,
                                                 "serve.admission_latency_ms"};
  obs::Series<obs::Gauge> running_gauge_{metrics_, "serve.running"};
  obs::Series<obs::Counter> completed_{metrics_, "serve.completed"};
  exec::SharedLedger ledger_;  ///< server-wide fetch capacity (may stay
                               ///< unlimited)
  std::unique_ptr<AccessLog> access_log_;  ///< null = disabled
  bool started_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, std::shared_ptr<SessionEnvelope>> sessions_;
  std::deque<QueueTicket> queue_;
  size_t queued_by_class_[kBoundClasses] = {0, 0, 0, 0};
  ClassTally class_tallies_[kBoundClasses];
  uint64_t next_ticket_ = 1;
  size_t running_ = 0;
  size_t synthetic_running_ = 0;  ///< scripted-mode #busy directive
  bool draining_ = false;
};

}  // namespace scalein::serve

#endif  // SCALEIN_SERVE_SERVER_H_
