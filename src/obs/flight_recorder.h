#ifndef SCALEIN_OBS_FLIGHT_RECORDER_H_
#define SCALEIN_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scalein::obs {

/// What happened. One enumerator per structured event the engines append;
/// the dump format and scripts/trace_report.py key off the names.
enum class EventKind {
  kShellCommand,      ///< one shell line dispatched (label = command word)
  kQueryStart,        ///< an engine began evaluating a query
  kQueryFinish,       ///< an engine finished (args: fetched, bound, tripped)
  kPlan,              ///< a plan was built (label = plan fingerprint)
  kChaseStep,         ///< one embedded-chase step (Proposition 4.5)
  kMaintenanceStep,   ///< one incremental/view maintenance batch
  kGovernorTrip,      ///< a resource limit fired (label = trip description)
  kFailpointFire,     ///< an armed failpoint fired (label = site)
  kSlowQuery,         ///< latency exceeded the slow-query threshold gauge
  kCertificate,       ///< an access certificate was sealed (label = verdict)
  kAdvisorSearch,     ///< an advisor design search completed
  kQdsiDecision,      ///< a §3 decision procedure returned
  kWitnessSearch,     ///< a witness search completed
  kViewRefresh,       ///< a view extent was recomputed from scratch
  kMetricsDump,       ///< a metrics snapshot was appended to a dump file
  kOpOpen,            ///< a physical operator was (re)opened (label = op)
  kOpNext,            ///< one operator next-batch (every 256 rows produced)
  kOpClose,           ///< an operator stream was exhausted
  kServePhase,        ///< one served request's lifecycle record (label =
                      ///< final admission action; "flush" for the port's
                      ///< response-write phase)
};

/// Canonical kebab-case name ("query-start", "governor-trip", ...).
const char* EventKindName(EventKind kind);

/// Numeric argument for the allocation-free append path. `key` must be a
/// string literal (only the pointer is stored); the value is rendered to
/// JSON at dump time, so recording one costs a 16-byte copy.
struct NumArg {
  const char* key;
  double value;
};

/// One recorded event. `args` values are pre-rendered JSON fragments (quoted
/// strings or bare numbers), exactly like TraceEvent, so dumping is a pure
/// concatenation. `nums` carries numeric args from the compact append path —
/// both render into the same "args" JSON object. `seq` is assigned by the
/// recorder and survives eviction gaps: consumers can tell "events 12..17
/// were dropped" from the sequence. `qid_session`/`qid_seq` are the
/// CurrentQueryId() at append time (obs/correlation.h) — zero `qid_seq`
/// means "no query in flight" and renders as no "query_id" field at all, so
/// unstamped streams keep their exact historical bytes.
struct FlightEvent {
  static constexpr size_t kMaxNums = 4;

  uint64_t seq = 0;
  uint64_t t_ns = 0;
  EventKind kind = EventKind::kShellCommand;
  std::string label;
  std::vector<std::pair<std::string, std::string>> args;
  NumArg nums[kMaxNums] = {};
  uint32_t num_count = 0;
  uint64_t qid_session = 0;
  uint64_t qid_seq = 0;
};

/// Pre-rendered argument builders (string values are escaped and quoted).
std::pair<std::string, std::string> EventArg(std::string key,
                                             std::string_view value);
std::pair<std::string, std::string> EventArg(std::string key,
                                             const char* value);
std::pair<std::string, std::string> EventArg(std::string key, uint64_t value);
std::pair<std::string, std::string> EventArg(std::string key, double value);
std::pair<std::string, std::string> EventArg(std::string key, bool value);

/// Always-on, fixed-size ring buffer of structured engine events — a flight
/// recorder in the avionics sense: cheap enough to leave running, sized so a
/// post-mortem dump shows the last few thousand things every engine did.
///
/// Follows the tracer's enablement contract: engines append through
/// `RecordFlightEvent`, which is a single predicted branch while no recorder
/// is installed (`Global()` is nullptr, the default). Appending never
/// touches the ExecContext fetch counters, so recorded and unrecorded runs
/// are fetch-count-identical by construction.
///
/// When the ring is full the oldest event is evicted (strict FIFO);
/// `dropped()` counts evictions so a dump can say how much history was lost.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  static constexpr size_t kDefaultCapacity = 4096;

  void Append(EventKind kind, std::string label,
              std::vector<std::pair<std::string, std::string>> args = {});

  /// Allocation-free append for µs-scale hot paths (the plain bounded
  /// evaluator): `label` should be a short literal (<= 15 chars stays in the
  /// small-string buffer) and at most FlightEvent::kMaxNums numeric args are
  /// kept. No strings are built; values render to JSON only at dump time.
  void AppendCompact(EventKind kind, const char* label,
                     std::initializer_list<NumArg> nums = {});

  /// Snapshot oldest → newest (copy; the recorder keeps recording).
  std::vector<FlightEvent> events() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Total events ever appended / evicted since construction or Clear().
  uint64_t total_appended() const;
  uint64_t dropped() const;
  void Clear();

  /// Overrides the event clock (monotonic ns by default) with a caller
  /// function — the hook that makes dump bytes deterministic in tests.
  /// Pass nullptr to restore the monotonic clock.
  void set_clock(uint64_t (*clock)());

  /// {"capacity":...,"appended":...,"dropped":...,"events":[{"seq":...,
  ///  "t_ns":...,"kind":"...","label":"...","args":{...}},...]} — stable
  /// field order, so output is deterministic given a fixed clock.
  std::string ToJson() const;

  /// Process-wide recorder; nullptr (recording disabled) until installed.
  static FlightRecorder* Global();
  /// Installs `recorder` as the process-wide sink (nullptr disables again)
  /// and hooks the failpoint registry so armed-failpoint fires are recorded.
  /// Not synchronized against concurrent appends; install at startup.
  static void InstallGlobal(FlightRecorder* recorder);

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  std::vector<FlightEvent> ring_;  ///< ring_[seq % capacity_] once saturated
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
  uint64_t (*clock_)() = nullptr;
};

/// One predicted branch while no recorder is installed. Guard event
/// construction with this so the disabled path never builds labels or args.
inline bool FlightRecorderEnabled() {
  return FlightRecorder::Global() != nullptr;
}

/// Appends to the global recorder when one is installed; no-op otherwise.
inline void RecordFlightEvent(
    EventKind kind, std::string label,
    std::vector<std::pair<std::string, std::string>> args = {}) {
  FlightRecorder* recorder = FlightRecorder::Global();
  if (recorder != nullptr) {
    recorder->Append(kind, std::move(label), std::move(args));
  }
}

/// Compact variant of RecordFlightEvent: no allocation on the append path.
/// For events emitted from per-query hot loops, where the generic arg
/// builders' string work would show up against the 3% observation budget.
inline void RecordFlightNums(EventKind kind, const char* label,
                             std::initializer_list<NumArg> nums = {}) {
  FlightRecorder* recorder = FlightRecorder::Global();
  if (recorder != nullptr) {
    recorder->AppendCompact(kind, label, nums);
  }
}

/// FNV-1a 64-bit — the fingerprint/signature hash. Not cryptographic: the
/// certificates it signs are tamper-*evident* bookkeeping, not security.
uint64_t Fnv1a64(std::string_view bytes);

/// 16 lowercase hex digits of `value` (zero-padded).
std::string Hex16(uint64_t value);

/// 16-hex-digit fingerprint of a canonical query/plan text.
std::string Fingerprint(std::string_view canonical_text);

}  // namespace scalein::obs

#endif  // SCALEIN_OBS_FLIGHT_RECORDER_H_
