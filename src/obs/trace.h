#ifndef SCALEIN_OBS_TRACE_H_
#define SCALEIN_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/correlation.h"

namespace scalein::obs {

/// Monotonic nanoseconds since an arbitrary process-stable epoch
/// (steady_clock; never jumps backwards).
uint64_t MonotonicNowNs();

/// One completed span ("ph":"X" in the Chrome trace_event format): a named,
/// categorized wall-time interval with optional key/value arguments.
/// `args` values are pre-rendered JSON fragments (quoted strings or bare
/// numbers) so export is a pure concatenation.
struct TraceEvent {
  std::string name;
  std::string category;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// An append-only in-memory span sink. Engine components never require a
/// tracer: every instrumentation site tolerates `nullptr`, which is the
/// disabled (and default) state. Install one process-wide with
/// `InstallGlobal` or hand one to an `ExecContext` for scoped collection.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(TraceEvent event);

  /// Snapshot of the recorded events (copy; the tracer keeps recording).
  std::vector<TraceEvent> events() const;
  size_t size() const;
  void Clear();

  /// Chrome `trace_event` JSON ({"traceEvents":[...]}; timestamps in µs).
  /// Load in chrome://tracing or https://ui.perfetto.dev.
  std::string ToChromeTraceJson() const;

  /// Process-wide tracer; nullptr (tracing disabled) until installed.
  static Tracer* Global();
  /// Installs `tracer` as the process-wide sink (nullptr disables again).
  /// Not synchronized against concurrent span starts; install at startup.
  static void InstallGlobal(Tracer* tracer);

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// RAII span: measures construction-to-destruction wall time and records it
/// into `tracer` (no-op when `tracer` is nullptr — the arg setters and the
/// destructor then cost one branch each).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* category)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    event_.name = name;
    event_.category = category;
    event_.start_ns = MonotonicNowNs();
    // Correlation: spans recorded during an evaluation carry the same
    // QueryId as the recorder events, certificate, and journal line.
    if (const QueryId qid = CurrentQueryId(); qid.valid()) {
      event_.args.emplace_back("qid", "\"" + RenderQueryId(qid) + "\"");
    }
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    event_.duration_ns = MonotonicNowNs() - event_.start_ns;
    tracer_->Record(std::move(event_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool enabled() const { return tracer_ != nullptr; }

  void Arg(const std::string& key, const std::string& value);
  void Arg(const std::string& key, const char* value);
  void Arg(const std::string& key, uint64_t value);
  void Arg(const std::string& key, double value);
  void Arg(const std::string& key, bool value);

 private:
  Tracer* tracer_;
  TraceEvent event_;
};

}  // namespace scalein::obs

#endif  // SCALEIN_OBS_TRACE_H_
