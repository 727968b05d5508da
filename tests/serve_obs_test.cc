// Tests for the server observability plane: the structured access log
// (rotation, loader tolerance, field round-trips), the request lifecycle
// correlation contract (one QueryId joining the access-log line, the sealed
// journal certificate, the serve-phase flight event, and the retroactive
// trace spans), client trace tags (hello/eval grammar, echo, validation),
// the per-class `classes` rendering, and the /metrics + /healthz scrape
// endpoint.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "io/shell.h"
#include "obs/correlation.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/access_log.h"
#include "serve/metrics_http.h"
#include "serve/server.h"

namespace scalein::serve {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void RemoveGenerations(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  std::filesystem::remove(path + ".2");
}

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

// ---------------------------------------------------------------------------
// AccessLog: rotation, round-trip, loader tolerance.

TEST(AccessLogTest, RotatesLikeTheJournalAndLoadsOldestFirst) {
  const std::string path = TempPath("serve_obs_access_rot.jsonl");
  RemoveGenerations(path);
  AccessLog log(path, /*max_bytes=*/400);
  AccessLogRecord rec;
  rec.session_id = "s";
  rec.bound_class = BoundClass::kSmall;
  rec.action = AdmitAction::kAdmit;
  for (int i = 0; i < 30; ++i) {
    rec.query_id = "qid-" + std::to_string(i);
    ASSERT_TRUE(log.Append(rec).ok());
  }
  EXPECT_EQ(log.appended(), 30u);
  EXPECT_GT(log.rotations(), 0u);
  EXPECT_TRUE(std::filesystem::exists(path + ".1"));

  AccessLogLoadReport report;
  Result<std::vector<AccessLogRecord>> loaded =
      LoadAccessLogRecords(path, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(report.malformed, 0u);
  EXPECT_GT(report.files, 1u);
  // The 400-byte cap keeps only the newest generations: some history is
  // gone, and what survives replays in exact append order ending at the
  // final record.
  ASSERT_FALSE(loaded->empty());
  EXPECT_LT(loaded->size(), 30u);
  int prev = -1;
  for (const AccessLogRecord& r : *loaded) {
    const int n = std::atoi(r.query_id.c_str() + 4);
    EXPECT_GT(n, prev) << "records out of append order";
    prev = n;
  }
  EXPECT_EQ(loaded->back().query_id, "qid-29");
  RemoveGenerations(path);
}

TEST(AccessLogTest, RecordFieldsRoundTripThroughJsonl) {
  const std::string path = TempPath("serve_obs_access_rt.jsonl");
  RemoveGenerations(path);
  AccessLog log(path);

  AccessLogRecord shed;
  shed.query_id = "cafe1234-7";
  shed.client_tag = "probe.a-1";
  shed.session_id = "conn3";
  shed.bound_class = BoundClass::kMedium;
  shed.action = AdmitAction::kReject;
  shed.reject = RejectReason::kQueueTimeout;
  shed.static_bound = 2500;
  shed.queue_wait_ms = 10.25;
  shed.e2e_ms = 11.5;
  shed.bytes_out = 64;
  ASSERT_TRUE(log.Append(shed).ok());

  AccessLogRecord tripped;
  tripped.query_id = "cafe1234-8";
  tripped.session_id = "conn3";
  tripped.bound_class = BoundClass::kLarge;
  tripped.action = AdmitAction::kDegrade;
  tripped.static_bound = 125000;
  tripped.lease = 200;
  tripped.fetches = 200;
  tripped.answers = 3;
  tripped.exec_ms = 1.75;
  tripped.e2e_ms = 2.0;
  tripped.tripped = true;
  tripped.trip_reason = "fetch-budget";
  tripped.degraded = true;
  ASSERT_TRUE(log.Append(tripped).ok());

  Result<std::vector<AccessLogRecord>> loaded = LoadAccessLogRecords(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  const AccessLogRecord& a = (*loaded)[0];
  EXPECT_EQ(a.query_id, "cafe1234-7");
  EXPECT_EQ(a.client_tag, "probe.a-1");
  EXPECT_EQ(a.session_id, "conn3");
  EXPECT_EQ(a.bound_class, BoundClass::kMedium);
  EXPECT_EQ(a.action, AdmitAction::kReject);
  EXPECT_EQ(a.reject, RejectReason::kQueueTimeout);
  EXPECT_DOUBLE_EQ(a.static_bound, 2500);
  EXPECT_DOUBLE_EQ(a.queue_wait_ms, 10.25);
  EXPECT_EQ(a.bytes_out, 64u);
  const AccessLogRecord& b = (*loaded)[1];
  EXPECT_EQ(b.action, AdmitAction::kDegrade);
  EXPECT_EQ(b.reject, RejectReason::kNone);
  EXPECT_EQ(b.lease, 200u);
  EXPECT_EQ(b.fetches, 200u);
  EXPECT_EQ(b.answers, 3u);
  EXPECT_TRUE(b.tripped);
  EXPECT_EQ(b.trip_reason, "fetch-budget");
  EXPECT_TRUE(b.degraded);
  EXPECT_TRUE(b.client_tag.empty());
  RemoveGenerations(path);
}

TEST(AccessLogTest, LoaderToleratesTamperAndTruncation) {
  const std::string path = TempPath("serve_obs_access_bad.jsonl");
  RemoveGenerations(path);
  AccessLogRecord good;
  good.query_id = "good-1";
  good.session_id = "s";
  good.bound_class = BoundClass::kSmall;
  good.action = AdmitAction::kAdmit;
  {
    std::ofstream out(path);
    out << "this line is not json at all\n";
    out << AccessLogRecordJson(good) << "\n";
    // Valid JSON, but not an access-log record (no class/action).
    out << "{\"query_id\":\"imposter\"}\n";
    // A crash-truncated tail: half a record, no closing brace.
    out << "{\"query_id\":\"trunc";
  }
  AccessLogLoadReport report;
  Result<std::vector<AccessLogRecord>> loaded =
      LoadAccessLogRecords(path, &report);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(report.records, 1u);
  EXPECT_EQ(report.malformed, 3u);
  EXPECT_EQ(report.errors.size(), 3u);
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].query_id, "good-1");
  // A missing log is an empty log, not an error.
  Result<std::vector<AccessLogRecord>> missing =
      LoadAccessLogRecords(TempPath("serve_obs_access_nothere.jsonl"));
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
  RemoveGenerations(path);
}

// ---------------------------------------------------------------------------
// Lifecycle correlation: one QueryId joins every artifact.

TEST(ServeObsTest, QueryIdJoinsAccessLogJournalFlightEventsAndSpans) {
  const std::string apath = TempPath("serve_obs_access_join.jsonl");
  const std::string jpath = TempPath("serve_obs_journal_join.jsonl");
  RemoveGenerations(apath);
  RemoveGenerations(jpath);
  ::setenv("SCALEIN_JOURNAL_PATH", jpath.c_str(), 1);
  Shell shell;
  ::unsetenv("SCALEIN_JOURNAL_PATH");
  LoadCatalog(&shell);

  obs::FlightRecorder recorder;
  obs::FlightRecorder::InstallGlobal(&recorder);
  obs::Tracer tracer;
  obs::Tracer::InstallGlobal(&tracer);

  Server::Options options;
  options.sla.session_fetch_budget = 120;
  options.access_log_path = apath;
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.access_log(), nullptr);

  std::string open = MustLine(&server, "a", "hello smoke-tag");
  EXPECT_NE(open.find(" tag=smoke-tag"), std::string::npos) << open;
  std::string admit_resp = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(admit_resp.find("admit bound=100 lease=100"), std::string::npos);
  EXPECT_NE(admit_resp.find(" tag=smoke-tag"), std::string::npos);
  // Per-request @tag overrides the session tag for this one request.
  std::string reject_resp =
      MustLine(&server, "a", "eval @req-7 a=1 S(a, b) := secret(a, b)");
  EXPECT_NE(reject_resp.find("reject(no-static-bound)"), std::string::npos);
  EXPECT_NE(reject_resp.find(" tag=req-7"), std::string::npos);

  obs::Tracer::InstallGlobal(nullptr);
  obs::FlightRecorder::InstallGlobal(nullptr);
  server.Drain();

  // Access log: one terminal record per request, in decision order.
  Result<std::vector<AccessLogRecord>> loaded = LoadAccessLogRecords(apath);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  const AccessLogRecord& admit = (*loaded)[0];
  EXPECT_EQ(admit.action, AdmitAction::kAdmit);
  EXPECT_EQ(admit.bound_class, BoundClass::kSmall);
  EXPECT_EQ(admit.client_tag, "smoke-tag");
  EXPECT_EQ(admit.session_id, "a");
  EXPECT_DOUBLE_EQ(admit.static_bound, 100);
  EXPECT_EQ(admit.lease, 100u);
  EXPECT_EQ(admit.fetches, 4u);
  EXPECT_EQ(admit.answers, 2u);
  EXPECT_FALSE(admit.query_id.empty());
  EXPECT_GT(admit.bytes_out, 0u);
  EXPECT_GE(admit.e2e_ms, admit.exec_ms);
  const AccessLogRecord& reject = (*loaded)[1];
  EXPECT_EQ(reject.action, AdmitAction::kReject);
  EXPECT_EQ(reject.reject, RejectReason::kNoStaticBound);
  EXPECT_EQ(reject.bound_class, BoundClass::kHuge);
  EXPECT_EQ(reject.client_tag, "req-7");
  EXPECT_NE(reject.query_id, admit.query_id);

  // Journal: each access-log query_id resolves to a sealed certificate line
  // carrying the same (non-sealed) client_tag sibling.
  std::map<std::string, std::string> journal_tags;
  std::ifstream in(jpath);
  ASSERT_TRUE(in.is_open());
  std::string line;
  while (std::getline(in, line)) {
    Result<obs::JsonValue> parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    journal_tags[parsed->StringOr("query_id", "")] =
        parsed->StringOr("client_tag", "");
  }
  ASSERT_EQ(journal_tags.count(admit.query_id), 1u);
  EXPECT_EQ(journal_tags[admit.query_id], "smoke-tag");
  ASSERT_EQ(journal_tags.count(reject.query_id), 1u);
  EXPECT_EQ(journal_tags[reject.query_id], "req-7");

  // Flight recorder: a qid-stamped serve-phase event per terminal verdict.
  bool saw_admit_event = false;
  bool saw_reject_event = false;
  for (const obs::FlightEvent& e : recorder.events()) {
    if (e.kind != obs::EventKind::kServePhase) continue;
    obs::QueryId qid;
    qid.session = e.qid_session;
    qid.seq = e.qid_seq;
    const std::string rendered = obs::RenderQueryId(qid);
    if (e.label == "admit" && rendered == admit.query_id) {
      saw_admit_event = true;
      EXPECT_GT(e.num_count, 0u);
    }
    if (e.label == "reject" && rendered == reject.query_id) {
      saw_reject_event = true;
    }
  }
  EXPECT_TRUE(saw_admit_event);
  EXPECT_TRUE(saw_reject_event);

  // Tracer: retroactive phase spans in category "serve", stamped with the
  // same query_id (and the client tag when present).
  bool saw_request_span = false;
  bool saw_exec_span = false;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.category != "serve") continue;
    bool matches_qid = false;
    bool matches_tag = false;
    for (const auto& arg : e.args) {
      if (arg.first == "query_id" &&
          arg.second == "\"" + admit.query_id + "\"") {
        matches_qid = true;
      }
      if (arg.first == "client_tag" && arg.second == "\"smoke-tag\"") {
        matches_tag = true;
      }
    }
    if (e.name == "serve.request" && matches_qid && matches_tag) {
      saw_request_span = true;
    }
    if (e.name == "serve.exec" && matches_qid) saw_exec_span = true;
  }
  EXPECT_TRUE(saw_request_span);
  EXPECT_TRUE(saw_exec_span);

  RemoveGenerations(apath);
  RemoveGenerations(jpath);
}

// ---------------------------------------------------------------------------
// Trace tags: grammar, echo, and the untagged byte-compatibility contract.

TEST(ServeObsTest, TraceTagValidationAndUntaggedBytes) {
  Shell shell;
  LoadCatalog(&shell);
  Server::Options options;
  options.sla.session_fetch_budget = 120;
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());

  // Invalid tags are protocol errors, before any session state changes.
  EXPECT_FALSE(server.HandleLine("a", "hello bad tag!").ok());
  EXPECT_FALSE(server.HandleLine("a", "hello " + std::string(65, 'x')).ok());
  std::string open = MustLine(&server, "a", "hello");
  EXPECT_EQ(open.find(" tag="), std::string::npos);
  EXPECT_FALSE(server.HandleLine("a", "eval @no/slash p=1 F(p, id) := "
                                      "friend(p, id)")
                   .ok());
  // Untagged responses keep their exact historical shape: no tag echo.
  std::string resp = MustLine(&server, "a", kFriendEval);
  EXPECT_NE(resp.find("admit bound=100 lease=100"), std::string::npos);
  EXPECT_EQ(resp.find(" tag="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-class tallies: the `classes` rendering, shed vs rejected split.

TEST(ServeObsTest, ClassesCommandSplitsShedFromRejected) {
  Shell shell;
  LoadCatalog(&shell);
  Server::Options options;
  options.sla.session_fetch_budget = 120;
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  (void)MustLine(&server, "a", "hello");
  (void)MustLine(&server, "a", kFriendEval);  // small, admitted
  (void)MustLine(&server, "a", kSecretEval);  // huge, rejected (contract)
  server.Drain();
  std::string shed = MustLine(&server, "a", kFriendEval);  // small, shed
  EXPECT_NE(shed.find("reject(draining)"), std::string::npos) << shed;

  // Positional, wall-clock-free, byte-for-byte — the exact rendering
  // scripts/serve_report.py recomputes from the access log.
  EXPECT_EQ(MustLine(&server, "a", "classes"),
            "classes: 3 request(s)\n"
            "  small n=2 admitted=1 degraded=0 rejected=0 shed=1 "
            "shed_rate=0.5000\n"
            "  medium n=0 admitted=0 degraded=0 rejected=0 shed=0 "
            "shed_rate=0.0000\n"
            "  large n=0 admitted=0 degraded=0 rejected=0 shed=0 "
            "shed_rate=0.0000\n"
            "  huge n=1 admitted=0 degraded=0 rejected=1 shed=0 "
            "shed_rate=0.0000\n");
}

// ---------------------------------------------------------------------------
// MetricsHttp: the scrape side door.

std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpTest, ServesPrometheusTextAndDrainAwareHealth) {
  obs::MetricsRegistry registry;
  registry.GetCounter("serve.shed.small").Increment(3);
  registry.GetHistogram("serve.e2e_ms.small", obs::DefaultLatencyBucketsMs())
      .Observe(1.5);
  std::atomic<bool> draining{false};
  MetricsHttp http(&registry, [&draining] { return draining.load(); },
                   MetricsHttp::Options{});
  ASSERT_TRUE(http.Listen().ok());
  ASSERT_NE(http.port(), 0);

  const std::string metrics = HttpGet(http.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("Connection: close"), std::string::npos);
  EXPECT_NE(metrics.find("# HELP serve_shed_small scalein metric "
                         "serve.shed.small"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE serve_shed_small counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("serve_shed_small 3"), std::string::npos);
  EXPECT_NE(metrics.find("serve_e2e_ms_small_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("serve_e2e_ms_small_count 1"), std::string::npos);

  const std::string healthy = HttpGet(http.port(), "/healthz");
  EXPECT_NE(healthy.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(healthy.find("ok\n"), std::string::npos);
  draining.store(true);
  const std::string drained = HttpGet(http.port(), "/healthz");
  EXPECT_NE(drained.find("HTTP/1.0 503 Service Unavailable"),
            std::string::npos);
  EXPECT_NE(drained.find("draining\n"), std::string::npos);

  const std::string missing = HttpGet(http.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);

  EXPECT_EQ(http.scrapes(), 4u);
  EXPECT_EQ(registry.GetCounter("serve.scrapes").value(), 4u);
  http.Shutdown();
}

// Lines of /proc/self/maps. A thread that exited but was never joined keeps
// its stack mapped: two more lines, the stack and its guard page.
size_t MappedRegions() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// Scrape connections share serve::Port's listener, so a finished scrape's
// thread is joined at the next accept. Unreaped, 200 scrapes add about 400
// lines.
TEST(MetricsHttpTest, SequentialScrapesDoNotAccumulateThreadStacks) {
  if (MappedRegions() == 0) GTEST_SKIP() << "no /proc/self/maps";
  obs::MetricsRegistry registry;
  MetricsHttp http(&registry, nullptr, MetricsHttp::Options{});
  ASSERT_TRUE(http.Listen().ok());
  // Warm-up: the allocator arenas and cached thread stacks settle first.
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(HttpGet(http.port(), "/healthz").find("200 OK"),
              std::string::npos);
  }
  const size_t before = MappedRegions();
  for (int i = 0; i < 200; ++i) {
    ASSERT_NE(HttpGet(http.port(), "/healthz").find("200 OK"),
              std::string::npos);
  }
  const size_t after = MappedRegions();
  http.Shutdown();
  EXPECT_EQ(http.scrapes(), 210u);
  EXPECT_LT(after, before + 40) << "before=" << before << " after=" << after;
}

// The per-class SLO series the server maintains: one histogram observation
// per terminal request, placed by the shared bucket rule.
TEST(ServeObsTest, PerClassSloHistogramsRecordTerminalRequests) {
  Shell shell;
  LoadCatalog(&shell);
  Server::Options options;
  options.sla.session_fetch_budget = 120;
  Server server(&shell, options);
  ASSERT_TRUE(server.Start().ok());
  (void)MustLine(&server, "a", "hello");
  (void)MustLine(&server, "a", kFriendEval);
  (void)MustLine(&server, "a", kSecretEval);
  obs::MetricsRegistry* metrics = server.shell_metrics();
  EXPECT_EQ(metrics
                ->GetHistogram("serve.e2e_ms.small",
                               obs::DefaultLatencyBucketsMs())
                .count(),
            1u);
  EXPECT_EQ(metrics
                ->GetHistogram("serve.e2e_ms.huge",
                               obs::DefaultLatencyBucketsMs())
                .count(),
            1u);
  EXPECT_EQ(metrics
                ->GetHistogram("serve.queue_wait_ms.small",
                               obs::DefaultLatencyBucketsMs())
                .count(),
            1u);
  // Contract rejections are not sheds: no shed counter for either class.
  EXPECT_EQ(metrics->GetCounter("serve.shed.huge").value(), 0u);
  server.Drain();
  (void)server.HandleLine("a", kFriendEval);  // sheds as draining
  EXPECT_EQ(metrics->GetCounter("serve.shed.small").value(), 1u);
}

}  // namespace
}  // namespace scalein::serve
