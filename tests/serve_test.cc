// Tests for the multi-session serve layer: the pure admission decision
// function, session envelope accounting, the wire framing, and the Server
// itself — including the determinism contract (byte-identical admission
// transcripts across thread counts for a fixed arrival script) and the
// certify round-trip for journaled refusal verdicts.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "exec/governor.h"
#include "io/shell.h"
#include "serve/admission.h"
#include "serve/message.h"
#include "serve/port.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/failpoint.h"

namespace scalein::serve {
namespace {

// ---------------------------------------------------------------------------
// DecideAdmission: the pure decision function.

SlaConfig BaseSla() {
  SlaConfig sla;
  sla.session_fetch_budget = 1000;
  sla.degrade_floor = 16;
  sla.queue_capacity = 4;
  sla.queue_class_capacity = 2;
  sla.queue_timeout_ms = 10;
  sla.max_running = 2;
  return sla;
}

AdmissionInput Arriving(double bound, uint64_t remaining) {
  AdmissionInput in;
  in.static_bound = bound;
  in.budget_remaining = remaining;
  return in;
}

TEST(DecideAdmissionTest, AdmitsWhenBoundFitsAndSlotFree) {
  AdmissionDecision d = DecideAdmission(Arriving(50, 1000), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kAdmit);
  EXPECT_EQ(d.sub_budget, 50u);
  EXPECT_EQ(d.reject, RejectReason::kNone);
}

TEST(DecideAdmissionTest, FractionalBoundRoundsUp) {
  AdmissionDecision d = DecideAdmission(Arriving(49.2, 1000), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kAdmit);
  EXPECT_EQ(d.sub_budget, 50u);
}

// The GovernorLimits footgun the controller must dodge: fetch_budget=0 means
// *disabled*, so a zero-bound query admitted from a finite envelope must get
// a sub-budget of at least 1 — never an accidentally-unlimited run.
TEST(DecideAdmissionTest, ZeroBoundClampsBudgetToOne) {
  AdmissionDecision d = DecideAdmission(Arriving(0, 1000), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kAdmit);
  EXPECT_EQ(d.sub_budget, 1u);
}

TEST(DecideAdmissionTest, UnlimitedEnvelopeRunsUnbudgeted) {
  AdmissionInput in = Arriving(1e9, 0);
  in.budget_unlimited = true;
  AdmissionDecision d = DecideAdmission(in, BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kAdmit);
  EXPECT_EQ(d.sub_budget, 0u);  // 0 = no fetch budget armed
}

TEST(DecideAdmissionTest, NoStaticBoundRejects) {
  AdmissionDecision d = DecideAdmission(Arriving(-1, 1000), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kNoStaticBound);
  EXPECT_EQ(d.retry_after_ms, 0u);  // retrying an unprovable query is futile
}

TEST(DecideAdmissionTest, DrainingRejectsBeforeAnythingElse) {
  AdmissionInput in = Arriving(1, 1000);
  in.draining = true;
  AdmissionDecision d = DecideAdmission(in, BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kDraining);
}

TEST(DecideAdmissionTest, OverBudgetDegradesToRemaining) {
  AdmissionDecision d = DecideAdmission(Arriving(5000, 200), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kDegrade);
  EXPECT_EQ(d.sub_budget, 200u);  // sound reduced sub-budget
}

TEST(DecideAdmissionTest, BelowDegradeFloorRejectsBudgetExhausted) {
  AdmissionDecision d = DecideAdmission(Arriving(5000, 15), BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kBudgetExhausted);
}

TEST(DecideAdmissionTest, DegradeDisabledRejectsInstead) {
  SlaConfig sla = BaseSla();
  sla.allow_degrade = false;
  AdmissionDecision d = DecideAdmission(Arriving(5000, 200), sla);
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kBudgetExhausted);
}

// Degraded runs are subject to the same run slots as full admits — overload
// must not leak unbounded concurrency through the degrade path.
TEST(DecideAdmissionTest, DegradeAlsoWaitsForRunSlot) {
  AdmissionInput in = Arriving(5000, 200);
  in.running = 2;  // == max_running
  AdmissionDecision d = DecideAdmission(in, BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kQueue);
}

// ...but a query the budget provably cannot cover sheds without ever
// holding a queue slot, with a retry hint since in-flight refunds may help.
TEST(DecideAdmissionTest, UnservableBoundRejectsWithoutQueueing) {
  AdmissionInput in = Arriving(5000, 10);  // below degrade floor
  in.running = 2;
  AdmissionDecision d = DecideAdmission(in, BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kBudgetExhausted);
  EXPECT_GT(d.retry_after_ms, 0u);
}

TEST(DecideAdmissionTest, BusySlotsQueueAndFullQueueRejects) {
  AdmissionInput in = Arriving(50, 1000);
  in.running = 2;  // == max_running
  AdmissionDecision queued = DecideAdmission(in, BaseSla());
  EXPECT_EQ(queued.action, AdmitAction::kQueue);

  in.queued_total = 4;  // == queue_capacity
  AdmissionDecision shed = DecideAdmission(in, BaseSla());
  EXPECT_EQ(shed.action, AdmitAction::kReject);
  EXPECT_EQ(shed.reject, RejectReason::kQueueFull);
  EXPECT_GT(shed.retry_after_ms, 0u);  // backpressure hint scales with depth
}

TEST(DecideAdmissionTest, ClassShareFullRejectsEvenWithGlobalRoom) {
  AdmissionInput in = Arriving(50, 1000);
  in.running = 2;
  in.queued_total = 2;     // global FIFO has room...
  in.queued_in_class = 2;  // ...but this bound-class's share is spent
  AdmissionDecision d = DecideAdmission(in, BaseSla());
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.reject, RejectReason::kQueueClassFull);
}

TEST(DecideAdmissionTest, IsDeterministic) {
  AdmissionInput in = Arriving(123.7, 456);
  in.running = 1;
  in.queued_total = 1;
  AdmissionDecision a = DecideAdmission(in, BaseSla());
  AdmissionDecision b = DecideAdmission(in, BaseSla());
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.sub_budget, b.sub_budget);
}

// Garbage keeps the default: a negative number (strtoull wrapped "-1" to
// 2^64-1 run slots and an unbounded queue) and a value past uint64_t too.
TEST(SlaConfigTest, FromEnvKeepsDefaultsForNegativeAndOverflow) {
  const SlaConfig defaults;
  const char* kVars[] = {"SCALEIN_SLA_MAX_RUNNING", "SCALEIN_SLA_QUEUE_CAP",
                         "SCALEIN_SLA_SESSION_BUDGET"};
  for (const char* bad : {"-1", "99999999999999999999", "12x"}) {
    for (const char* var : kVars) ::setenv(var, bad, 1);
    const SlaConfig c = SlaConfig::FromEnv();
    EXPECT_EQ(c.max_running, defaults.max_running) << bad;
    EXPECT_EQ(c.queue_capacity, defaults.queue_capacity) << bad;
    EXPECT_EQ(c.session_fetch_budget, defaults.session_fetch_budget) << bad;
  }
  ::setenv("SCALEIN_SLA_QUEUE_CAP", "7", 1);
  EXPECT_EQ(SlaConfig::FromEnv().queue_capacity, 7u);
  for (const char* var : kVars) ::unsetenv(var);
}

TEST(ClassifyBoundTest, BucketsByMagnitude) {
  EXPECT_EQ(ClassifyBound(1), BoundClass::kSmall);
  EXPECT_EQ(ClassifyBound(100), BoundClass::kSmall);
  EXPECT_EQ(ClassifyBound(101), BoundClass::kMedium);
  EXPECT_EQ(ClassifyBound(10000), BoundClass::kMedium);
  EXPECT_EQ(ClassifyBound(10001), BoundClass::kLarge);
  EXPECT_EQ(ClassifyBound(1e6), BoundClass::kLarge);
  EXPECT_EQ(ClassifyBound(1e7), BoundClass::kHuge);
  EXPECT_EQ(ClassifyBound(-1), BoundClass::kHuge);  // unbounded
}

// ---------------------------------------------------------------------------
// SessionEnvelope accounting.

TEST(SessionEnvelopeTest, ReserveRefundRoundTrip) {
  SessionEnvelope env("s", 7, /*lease=*/100, /*ledger=*/nullptr);
  EXPECT_FALSE(env.unlimited());
  EXPECT_EQ(env.lease(), 100u);
  EXPECT_TRUE(env.Reserve(60));
  EXPECT_EQ(env.remaining(), 40u);
  EXPECT_EQ(env.reserved_inflight(), 60u);
  EXPECT_FALSE(env.Reserve(41));  // over-reserve refused
  env.Refund(/*reserved=*/60, /*spent=*/25);  // unspent 35 comes back
  EXPECT_EQ(env.remaining(), 75u);
  EXPECT_EQ(env.reserved_inflight(), 0u);
  env.Reserve(10);
  env.Refund(10, 99);  // overspend (tripped past budget probe) clamps to 0
  EXPECT_EQ(env.remaining(), 65u);
}

TEST(SessionEnvelopeTest, ZeroLeaseIsUnlimited) {
  SessionEnvelope env("s", 7, 0, nullptr);
  EXPECT_TRUE(env.unlimited());
  EXPECT_TRUE(env.Reserve(1ULL << 40));
  exec::GovernorLimits limits = env.LimitsFor(0, SlaConfig{});
  EXPECT_EQ(limits.fetch_budget, 0u);  // unbudgeted, but...
  EXPECT_TRUE(limits.has_cancel);      // ...still preemptible
}

TEST(SessionEnvelopeTest, LeaseCarvedFromLedgerAndReleasedOnClose) {
  exec::SharedLedger ledger;
  ledger.Init(150);
  {
    SessionEnvelope a("a", 1, 100, &ledger);
    EXPECT_EQ(a.lease(), 100u);
    SessionEnvelope b("b", 2, 100, &ledger);
    EXPECT_EQ(b.lease(), 50u);  // partial: capacity bounds the sum of leases
    SessionEnvelope c("c", 3, 100, &ledger);
    EXPECT_EQ(c.lease(), 0u);
  }
  // Envelope destruction returns the leases: a new session gets a full cut.
  SessionEnvelope d("d", 4, 100, &ledger);
  EXPECT_EQ(d.lease(), 100u);
}

TEST(SessionEnvelopeTest, PreemptFlipsSharedToken) {
  SessionEnvelope env("s", 7, 100, nullptr);
  exec::GovernorLimits limits = env.LimitsFor(10, SlaConfig{});
  exec::ResourceGovernor governor;
  governor.Arm(limits);
  EXPECT_TRUE(governor.Checkpoint());
  env.Preempt();  // the copy in `limits` shares the envelope's flag
  bool tripped = false;
  for (uint32_t i = 0;
       i <= exec::ResourceGovernor::kCheckInterval && !tripped; ++i) {
    tripped = !governor.Checkpoint();
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(governor.trip().kind, exec::LimitKind::kCancelled);
}

// ---------------------------------------------------------------------------
// Wire framing.

TEST(FrameTest, EncodeDecodeRoundTripAcrossChunks) {
  const std::string frames = EncodeFrame(true, "hello\nworld\n") +
                             EncodeFrame(false, "not-found: nope\n") +
                             EncodeFrame(true, "");
  FrameDecoder decoder;
  // Feed byte-by-byte: the decoder must reassemble across arbitrary chunking.
  for (char c : frames) decoder.Feed(std::string_view(&c, 1));
  bool ok = false;
  std::string payload;
  ASSERT_TRUE(decoder.Next(&ok, &payload));
  EXPECT_TRUE(ok);
  EXPECT_EQ(payload, "hello\nworld\n");
  ASSERT_TRUE(decoder.Next(&ok, &payload));
  EXPECT_FALSE(ok);
  EXPECT_EQ(payload, "not-found: nope\n");
  ASSERT_TRUE(decoder.Next(&ok, &payload));
  EXPECT_TRUE(ok);
  EXPECT_EQ(payload, "");
  EXPECT_FALSE(decoder.Next(&ok, &payload));
}

TEST(FrameTest, CorruptPrefixSurfacesAsErrorFrame) {
  FrameDecoder decoder;
  decoder.Feed("garbage\n");
  bool ok = true;
  std::string payload;
  ASSERT_TRUE(decoder.Next(&ok, &payload));
  EXPECT_FALSE(ok);
  EXPECT_NE(payload.find("frame error"), std::string::npos);
}

// A length past 2^64 used to wrap into a small one and desynchronize the
// stream; it is a corrupt frame.
TEST(FrameTest, OverflowingLengthIsCorrupt) {
  FrameDecoder decoder;
  decoder.Feed("+18446744073709551617\nab");
  bool ok = true;
  std::string payload;
  ASSERT_TRUE(decoder.Next(&ok, &payload));
  EXPECT_FALSE(ok);
  EXPECT_NE(payload.find("frame error"), std::string::npos) << payload;
  EXPECT_FALSE(decoder.Next(&ok, &payload));
}

// ---------------------------------------------------------------------------
// Server: scripted end-to-end, determinism, preemption, refusal certify.

void LoadCatalog(Shell* shell) {
  const char* kCatalog[] = {
      "schema relation person(id, name, city)",
      "schema relation friend(id1, id2)",
      "schema relation secret(a, b)",
      "access access friend(id1) N=50",
      "access key person(id)",
      "row person 1,\"ada\",\"NYC\"",
      "row person 2,\"bob\",\"NYC\"",
      "row person 3,\"cyd\",\"NYC\"",
      "row friend 1,2",
      "row friend 1,3",
      "row secret 1,2",
  };
  for (const char* line : kCatalog) {
    Result<std::string> out = shell->Execute(line);
    ASSERT_TRUE(out.ok()) << line << ": " << out.status().ToString();
  }
}

constexpr const char* kFriendEval =
    "eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, "
    "\"NYC\")";
constexpr const char* kSecretEval = "eval a=1 S(a, b) := secret(a, b)";

std::string MustLine(Server* server, const std::string& sid,
                     std::string_view line) {
  Result<std::string> out = server->HandleLine(sid, line);
  EXPECT_TRUE(out.ok()) << line << ": " << out.status().ToString();
  return out.ok() ? *out : std::string();
}

TEST(ServerTest, AdmitsEvaluatesAndAccountsBudget) {
  Shell shell;
  LoadCatalog(&shell);
  Server::Options options;
  options.sla.session_fetch_budget = 120;
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  std::string open = MustLine(&server, "a", "hello");
  EXPECT_NE(open.find("budget=120"), std::string::npos);
  std::string resp = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(resp.find("admit bound=100 lease=100"), std::string::npos);
  EXPECT_NE(resp.find("2 answers"), std::string::npos);
  // Only the 4 actually-fetched tuples stay charged; the rest refunds.
  std::string budget = MustLine(&server, "a", "budget");
  EXPECT_NE(budget.find("remaining=116"), std::string::npos) << budget;
}

TEST(ServerTest, RefusalVerdictsAreJournaledAndCertifiable) {
  const std::string jpath =
      ::testing::TempDir() + "serve_refusals.jsonl";
  std::error_code ec;
  std::filesystem::remove(jpath, ec);
  ::setenv("SCALEIN_JOURNAL_PATH", jpath.c_str(), 1);
  Shell shell;
  ::unsetenv("SCALEIN_JOURNAL_PATH");
  LoadCatalog(&shell);
  Server::Options options;
  options.sla.session_fetch_budget = 8;  // below degrade floor
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  MustLine(&server, "a", "hello");
  // Non-controllable: no static bound to admit against.
  std::string r1 = MustLine(&server, "a", kSecretEval);
  EXPECT_NE(r1.find("reject(no-static-bound)"), std::string::npos) << r1;
  // Controllable but the bound exceeds a lease too small to degrade into.
  std::string r2 = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(r2.find("reject(budget)"), std::string::npos) << r2;
  // Both refusals sealed into the journal; certify verifies the seals.
  std::string certify = MustLine(&server, "a", "certify");
  EXPECT_NE(certify.find("2/2 certificates verify"), std::string::npos)
      << certify;
  EXPECT_NE(certify.find("tripped"), std::string::npos);
  std::filesystem::remove(jpath, ec);
}

TEST(ServerTest, QueueTimeoutShedsAndSlotReleaseReadmits) {
  Shell shell;
  LoadCatalog(&shell);
  Server::Options options;
  options.scripted = true;
  options.sla.queue_timeout_ms = 20;
  options.sla.max_running = 1;
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  MustLine(&server, "a", "hello");
  MustLine(&server, "a", "#busy 1");  // occupy the only run slot
  std::string shed = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(shed.find("reject(queue-timeout)"), std::string::npos) << shed;
  EXPECT_NE(shed.find("retry-after=20ms"), std::string::npos) << shed;
  MustLine(&server, "a", "#busy 0");
  std::string ok = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(ok.find("admit"), std::string::npos) << ok;
  EXPECT_EQ(server.queue_depth(), 0u);
}

// The determinism acceptance criterion: one fixed arrival script, replayed
// at different engine thread counts, must produce byte-identical admission
// transcripts (SCALEIN_SESSION_ID pins the session fingerprint half of the
// QueryIds; answer sets are canonically ordered already).
TEST(ServerTest, ScriptedTranscriptIsByteIdenticalAcrossThreadCounts) {
  ::setenv("SCALEIN_SESSION_ID", "serve-determinism", 1);
  auto run = [](unsigned threads) {
    ::setenv("SCALEIN_THREADS", std::to_string(threads).c_str(), 1);
    Shell shell;
    LoadCatalog(&shell);
    Server::Options options;
    options.scripted = true;
    options.sla.session_fetch_budget = 150;
    options.sla.queue_timeout_ms = 5;
    options.sla.max_running = 1;
    Server server(&shell, options);
    EXPECT_TRUE(server.Start().ok());
    const char* kScript[][2] = {
        {"a", "hello"},        {"b", "hello"},
        {"a", kFriendEval},    {"b", kFriendEval},
        {"a", kSecretEval},    // reject: no static bound
        {"a", kFriendEval},    // admit: refunds keep the lease alive
        {"a", "#busy 1"},      {"b", kFriendEval},  // queue-timeout shed
        {"a", "#busy 0"},      {"a", "budget"},
        {"b", "budget"},       {"a", "bye"},
        {"b", "bye"},
    };
    std::string transcript;
    for (const auto& step : kScript) {
      Result<std::string> out = server.HandleLine(step[0], step[1]);
      transcript += out.ok() ? *out : "error: " + out.status().ToString();
    }
    server.Drain();
    ::unsetenv("SCALEIN_THREADS");
    return transcript;
  };
  const std::string at1 = run(1);
  const std::string at4 = run(4);
  ::unsetenv("SCALEIN_SESSION_ID");
  EXPECT_EQ(at1, at4);
  EXPECT_NE(at1.find("reject(no-static-bound)"), std::string::npos);
  EXPECT_NE(at1.find("reject(queue-timeout)"), std::string::npos);
}

TEST(ServerTest, DrainPreemptsAndRefusesNewWork) {
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  MustLine(&server, "a", "hello");
  server.Drain();
  EXPECT_TRUE(server.draining());
  std::string shed = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(shed.find("reject(draining)"), std::string::npos) << shed;
  Result<std::string> reopened = server.HandleLine("z", "hello");
  EXPECT_FALSE(reopened.ok());
  server.Drain();  // idempotent
}

TEST(ServerTest, EvalBeforeHelloIsRefused) {
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  Result<std::string> out = server.HandleLine("ghost", kFriendEval);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServerTest, ConcurrentSessionsEvaluateSafely) {
  Shell shell;
  LoadCatalog(&shell);
  Server::Options options;
  options.sla.max_running = 4;
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  constexpr int kSessions = 4;
  constexpr int kQueriesEach = 8;
  std::vector<std::thread> clients;
  std::vector<int> answers(kSessions, 0);
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&server, &answers, s] {
      const std::string sid = "c" + std::to_string(s);
      (void)server.HandleLine(sid, "hello");
      for (int q = 0; q < kQueriesEach; ++q) {
        Result<std::string> out = server.HandleLine(sid, kFriendEval);
        if (out.ok() && out->find("2 answers") != std::string::npos) {
          ++answers[s];
        }
      }
      (void)server.HandleLine(sid, "bye");
    });
  }
  for (std::thread& t : clients) t.join();
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(answers[s], kQueriesEach) << "session " << s;
  }
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(server.running(), 0u);
}

// A client-supplied number the engine cannot hold is a protocol error for
// that one request: it used to throw std::out_of_range and abort the server.
TEST(ServerTest, OutOfRangeNumbersAreErrorsNotAborts) {
  Shell shell;
  LoadCatalog(&shell);
  Server::Options options;
  options.scripted = true;
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  MustLine(&server, "a", "hello");
  for (const char* line :
       {"eval p=99999999999999999999 F(p, id) := friend(p, id)",
        "eval p=1 F(p, id) := friend(p, id) and id = 18446744073709551618",
        "#busy 18446744073709551617"}) {
    Result<std::string> out = server.HandleLine("a", line);
    ASSERT_FALSE(out.ok()) << line << " -> " << *out;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << line;
  }
  // The session survives, and the refused parses consumed no QueryId.
  const std::string next = MustLine(&server, "a", kFriendEval);
  EXPECT_EQ(next.rfind("q1 admit", 0), 0u) << next;
  EXPECT_NE(next.find("(2 answers, 4 base tuples fetched)"), std::string::npos)
      << next;
}

// A served eval feeds the slow-query log and the analysis-cache gauges
// exactly like the shell's `eval`: both run one query path.
TEST(ServerTest, ServedEvalFeedsSlowQueryLogAndCacheGauges) {
  struct FailpointGuard {
    ~FailpointGuard() { util::Failpoints::Global().Clear(); }
  } guard;
  Shell shell;
  LoadCatalog(&shell);
  ASSERT_TRUE(shell.Execute("slowlog 1").ok());
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  MustLine(&server, "a", "hello");
  ASSERT_TRUE(
      util::Failpoints::Global().Configure("index_probe=delay(5ms)").ok());
  const std::string resp = MustLine(&server, "a", kFriendEval);
  util::Failpoints::Global().Clear();
  ASSERT_EQ(resp.rfind("q1 admit", 0), 0u) << resp;

  const obs::Counter* slow = shell.metrics().FindCounter("shell.slow_queries");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->value(), 1u);
  const std::string qid = shell.journal().certificates().back().query_id;
  ASSERT_EQ(qid.substr(qid.size() - 2), "-1");
  size_t slow_events = 0;
  for (const obs::FlightEvent& e : shell.recorder().events()) {
    if (e.kind != obs::EventKind::kSlowQuery) continue;
    ++slow_events;
    EXPECT_EQ(obs::RenderQueryId({e.qid_session, e.qid_seq}), qid);
  }
  EXPECT_EQ(slow_events, 1u);
  EXPECT_EQ(shell.mutable_metrics()
                ->GetGauge("shell.analysis_cache.misses")
                .value(),
            1);
}

// The shell's `eval` and a served eval of the same text render
// byte-identical answer blocks and seal certificates that differ only in
// their QueryId (and so their signature) — clean, and under an output-row
// cap that trips.
TEST(ServerTest, ShellAndServedEvalsAgreeByteForByte) {
  for (const bool capped : {false, true}) {
    Shell direct;
    LoadCatalog(&direct);
    if (capped) {
      ASSERT_TRUE(direct.Execute("limit rows=1").ok());
    }
    Result<std::string> from_shell = direct.Execute(kFriendEval);
    ASSERT_TRUE(from_shell.ok()) << from_shell.status().ToString();

    Shell served;
    LoadCatalog(&served);
    Server::Options options;
    if (capped) options.sla.output_row_cap = 1;
    Server server(&served, options);
    ASSERT_TRUE(server.Start().ok());
    MustLine(&server, "a", "hello");
    const std::string response = MustLine(&server, "a", kFriendEval);
    // Everything after the admission decision line is the answer block.
    const size_t nl = response.find('\n');
    ASSERT_NE(nl, std::string::npos);
    EXPECT_EQ(response.substr(nl + 1), *from_shell) << "capped=" << capped;
    EXPECT_EQ(from_shell->find("tripped: ") != std::string::npos, capped);

    obs::AccessCertificate a = direct.journal().certificates().back();
    obs::AccessCertificate b = served.journal().certificates().back();
    EXPECT_EQ(a.tripped, capped);
    a.query_id.clear();
    b.query_id.clear();
    EXPECT_EQ(obs::CertificatePayload(a), obs::CertificatePayload(b))
        << "capped=" << capped;
  }
}

// ---------------------------------------------------------------------------
// Port: a real loopback TCP round-trip.

TEST(PortTest, TcpRoundTripThroughFrames) {
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  Port port(&server, Port::Options{});
  Status listening = port.Listen();
  if (!listening.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << listening.ToString();
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      std::string("hello\n") + kFriendEval + "\nnonsense\nbye\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  FrameDecoder decoder;
  std::vector<std::pair<bool, std::string>> frames;
  char buf[4096];
  while (frames.size() < 4) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    bool ok;
    std::string payload;
    while (decoder.Next(&ok, &payload)) frames.emplace_back(ok, payload);
  }
  ::close(fd);
  port.Shutdown();
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_TRUE(frames[0].first);  // hello
  EXPECT_NE(frames[0].second.find("session"), std::string::npos);
  EXPECT_TRUE(frames[1].first);  // eval
  EXPECT_NE(frames[1].second.find("2 answers"), std::string::npos);
  EXPECT_FALSE(frames[2].first);  // protocol error travels as '-'
  EXPECT_NE(frames[2].second.find("invalid-argument"), std::string::npos);
  EXPECT_TRUE(frames[3].first);  // bye
  EXPECT_EQ(port.accepted(), 1u);
}

// A client that pipelines requests and closes before reading a single
// response must cost only its own connection. Its close() sends FIN; the
// server's first response then draws an RST, and the next write fails with
// EPIPE — which must not raise SIGPIPE (that would kill this test binary
// and, in scalein_served, the whole server). A serve_write delay holds every
// response until the client is gone. The next client still gets a full
// round trip.
TEST(PortTest, ClientClosingBeforeReadingCostsOnlyItsConnection) {
  // Declared first so it disarms only after the port joined its threads.
  struct FailpointGuard {
    ~FailpointGuard() { util::Failpoints::Global().Clear(); }
  } fp_guard;
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  Port port(&server, Port::Options{});
  Status listening = port.Listen();
  if (!listening.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << listening.ToString();
  }
  ASSERT_TRUE(
      util::Failpoints::Global().Configure("serve_write=delay(20ms)").ok());
  auto dial = [&port]() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  };
  {
    const int fd = dial();
    std::string request = "hello\n";
    for (int i = 0; i < 8; ++i) request += std::string(kFriendEval) + "\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    ::close(fd);
  }
  const int fd = dial();
  const std::string request = std::string("hello\n") + kFriendEval + "\nbye\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  FrameDecoder decoder;
  std::vector<std::pair<bool, std::string>> frames;
  char buf[4096];
  while (frames.size() < 3) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    bool ok;
    std::string payload;
    while (decoder.Next(&ok, &payload)) frames.emplace_back(ok, payload);
  }
  ::close(fd);
  port.Shutdown();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_TRUE(frames[0].first);
  EXPECT_TRUE(frames[1].first);
  EXPECT_NE(frames[1].second.find("2 answers"), std::string::npos);
  EXPECT_TRUE(frames[2].first);
  EXPECT_EQ(port.accepted(), 2u);
}

TEST(PortTest, AcceptFailpointDropsConnectionNotServer) {
  Shell shell;
  LoadCatalog(&shell);
  Server server(&shell, Server::Options{});
  ASSERT_TRUE(server.Start().ok());
  Port port(&server, Port::Options{});
  Status listening = port.Listen();
  if (!listening.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << listening.ToString();
  }
  ASSERT_TRUE(
      util::Failpoints::Global().Configure("serve_accept=error").ok());
  auto dial = [&port]() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return false;
    }
    // The injected accept fault closes us immediately: recv sees EOF.
    char c;
    ssize_t n = ::recv(fd, &c, 1, 0);
    ::close(fd);
    return n == 0;
  };
  EXPECT_TRUE(dial());  // faulted connection dropped gracefully
  util::Failpoints::Global().Clear();
  // Blast radius: the server keeps serving fresh connections afterwards.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req = "hello\nbye\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  FrameDecoder decoder;
  std::vector<std::pair<bool, std::string>> frames;
  char buf[4096];
  while (frames.size() < 2) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    bool ok;
    std::string payload;
    while (decoder.Next(&ok, &payload)) frames.emplace_back(ok, payload);
  }
  ::close(fd);
  port.Shutdown();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].first);
  EXPECT_NE(frames[0].second.find("session"), std::string::npos);
  // Faulted connections are not counted as accepted — they are io_faults.
  EXPECT_EQ(port.accepted(), 1u);
  EXPECT_GE(server.shell_metrics()->GetCounter("serve.io_faults").value(), 1u);
}

}  // namespace
}  // namespace scalein::serve
