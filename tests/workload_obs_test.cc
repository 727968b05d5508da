#include "obs/workload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/shell.h"
#include "obs/correlation.h"
#include "obs/journal.h"
#include "util/failpoint.h"

namespace scalein::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void RemoveJournalFiles(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  for (int gen = 1; gen <= JournalStore::kRotations; ++gen) {
    std::filesystem::remove(path + "." + std::to_string(gen), ec);
  }
}

AccessCertificate MakeCert(int i) {
  AccessCertificate cert;
  cert.query_fingerprint = "fp" + std::to_string(i % 2);
  cert.query_id = "deadbeefdeadbeef-" + std::to_string(i + 1);
  cert.query_text = "Q(x) := r(x)";
  cert.static_bound = 100;
  cert.actual_fetches = static_cast<uint64_t>(10 + i);
  cert.index_lookups = 2;
  SealCertificate(&cert);
  return cert;
}

std::string Must(Shell* shell, std::string_view line) {
  Result<std::string> out = shell->Execute(line);
  SI_CHECK_MSG(out.ok(), out.status().message().c_str());
  return *out;
}

Shell LoadedShell() {
  Shell shell;
  Must(&shell, "schema relation person(id, name, city)");
  Must(&shell, "schema relation friend(id1, id2)");
  Must(&shell, "schema relation secret(a, b)");
  Must(&shell, "access access friend(id1) N=50");
  Must(&shell, "access key person(id)");
  Must(&shell, "row person 1,\"ada\",\"NYC\"");
  Must(&shell, "row person 2,\"bob\",\"LA\"");
  Must(&shell, "row person 3,\"cyd\",\"NYC\"");
  Must(&shell, "row friend 1,2");
  Must(&shell, "row friend 1,3");
  Must(&shell, "row secret 1,2");
  return shell;
}

constexpr const char* kFriendQuery =
    "eval p=1 Q(p, name) := exists id. friend(p, id) and person(id, name, "
    "\"NYC\")";
// No access statement covers `secret`, so Theorem 4.2 rejects this query as
// non-controllable at evaluation time.
constexpr const char* kSecretQuery = "eval a=1 S(a, b) := secret(a, b)";

// The bound-slack gauges are bucket-resolution: each reads the upper edge of
// the fixed slack bucket that holds the nearest rank. Slack on an edge reads
// exactly; slack between edges reads as the edge above it.
TEST(WorkloadAggregatorTest, SlackGaugesReadTheNearestRankBucketEdge) {
  WorkloadAggregator agg;
  auto observe = [&agg](double bound, uint64_t actual, bool tripped) {
    AccessCertificate cert;
    cert.query_fingerprint = "fp";
    cert.static_bound = bound;
    cert.actual_fetches = actual;
    cert.tripped = tripped;
    SealCertificate(&cert);
    agg.Observe(cert, -1, false);
  };
  EXPECT_EQ(agg.SlackPercentilePercent(50), 0);  // nothing bounded yet
  observe(100, 100, false);                      // 100%: an edge
  for (int i = 0; i < 3; ++i) observe(2550, 967, false);  // 263.7%
  observe(2550, 1, false);                       // 255,000%
  observe(-1, 7, false);                         // unbounded: not counted
  observe(10, 1000, true);                       // tripped: not counted

  MetricsRegistry registry;
  agg.ExportMetrics(&registry);
  EXPECT_EQ(registry.GetGauge("workload.bound_slack_p50").value(), 300);
  EXPECT_EQ(registry.GetGauge("workload.bound_slack_p99").value(), 300000);
  EXPECT_EQ(agg.SlackPercentilePercent(20), 100);
  EXPECT_EQ(agg.SlackPercentilePercent(80), 300);

  // Slack past the top edge (10^15 %) reads as the top edge.
  observe(1e18, 1, false);
  EXPECT_EQ(agg.SlackPercentilePercent(100), 1000000000000000);
  agg.Clear();
  EXPECT_EQ(agg.SlackPercentilePercent(99), 0);
}

TEST(JournalStoreTest, RoundTripPreservesOrderAndSeals) {
  const std::string path = ::testing::TempDir() + "journal_roundtrip.jsonl";
  RemoveJournalFiles(path);
  {
    JournalStore store(path);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(store.Append(MakeCert(i), /*latency_ms=*/1.5 * (i + 1),
                               /*noncontrollable=*/i == 2)
                      .ok());
    }
    EXPECT_EQ(store.appended(), 3u);
    EXPECT_EQ(store.rotations(), 0u);
  }
  // A fresh store over the same path replays append order, siblings intact.
  JournalStore reloaded(path);
  JournalLoadReport report;
  Result<std::vector<JournalEntry>> entries = reloaded.Load(&report);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ(report.sealed_ok, 3u);
  EXPECT_EQ(report.tampered, 0u);
  EXPECT_EQ(report.malformed, 0u);
  for (int i = 0; i < 3; ++i) {
    const JournalEntry& e = (*entries)[i];
    EXPECT_TRUE(e.seal_ok);
    EXPECT_TRUE(VerifyCertificate(e.cert));
    EXPECT_EQ(e.cert.actual_fetches, static_cast<uint64_t>(10 + i));
    EXPECT_EQ(e.cert.query_id,
              "deadbeefdeadbeef-" + std::to_string(i + 1));
    EXPECT_DOUBLE_EQ(e.latency_ms, 1.5 * (i + 1));
    EXPECT_EQ(e.noncontrollable, i == 2);
  }
  RemoveJournalFiles(path);
}

TEST(JournalStoreTest, RotatesAtSizeAndLoadsSurvivorsOldestFirst) {
  const std::string path = ::testing::TempDir() + "journal_rotation.jsonl";
  RemoveJournalFiles(path);
  JournalStore store(path, /*max_bytes=*/400);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.Append(MakeCert(i), -1.0, false).ok());
  }
  EXPECT_GT(store.rotations(), 0u);
  EXPECT_TRUE(std::filesystem::exists(path + ".1"));
  JournalLoadReport report;
  Result<std::vector<JournalEntry>> entries = store.Load(&report);
  ASSERT_TRUE(entries.ok());
  // Rotation drops the oldest generation, never the newest entries; what
  // survives still verifies and still reads back in append order.
  ASSERT_GT(entries->size(), 0u);
  ASSERT_LT(entries->size(), 8u);
  EXPECT_EQ(report.sealed_ok, entries->size());
  for (size_t i = 1; i < entries->size(); ++i) {
    EXPECT_LT((*entries)[i - 1].cert.actual_fetches,
              (*entries)[i].cert.actual_fetches);
  }
  EXPECT_EQ(entries->back().cert.actual_fetches, 17u);
  RemoveJournalFiles(path);
}

TEST(JournalStoreTest, TamperedEntryIsReportedNotFatal) {
  const std::string path = ::testing::TempDir() + "journal_tamper.jsonl";
  RemoveJournalFiles(path);
  JournalStore store(path);
  ASSERT_TRUE(store.Append(MakeCert(0), -1.0, false).ok());
  ASSERT_TRUE(store.Append(MakeCert(1), -1.0, false).ok());
  // Bump a sealed counter on disk: the seal must catch it on reload.
  std::string text = ReadFile(path);
  size_t pos = text.find("\"actual_fetches\":10");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 19, "\"actual_fetches\":99");
  { std::ofstream out(path, std::ios::trunc); out << text; }

  JournalLoadReport report;
  Result<std::vector<JournalEntry>> entries = store.Load(&report);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ(report.tampered, 1u);
  EXPECT_EQ(report.sealed_ok, 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("seal mismatch"), std::string::npos);
  EXPECT_FALSE((*entries)[0].seal_ok);
  EXPECT_TRUE((*entries)[1].seal_ok);
  // The offline JSONL reader (certify <file>) parses the same lines.
  Result<std::vector<AccessCertificate>> certs =
      CertificatesFromJsonl(ReadFile(path));
  ASSERT_TRUE(certs.ok());
  EXPECT_EQ(certs->size(), 2u);
  EXPECT_FALSE(VerifyCertificate((*certs)[0]));
  EXPECT_TRUE(VerifyCertificate((*certs)[1]));
  RemoveJournalFiles(path);
}

TEST(WorkloadShellTest, NonControllableEvalIsTalliedAndJournaled) {
  Shell shell = LoadedShell();
  Must(&shell, kFriendQuery);
  // The evaluation fails — and that failure is workload signal.
  Result<std::string> failed = shell.Execute(kSecretQuery);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("not controlled"),
            std::string::npos);
  EXPECT_EQ(shell.workload().noncontrollable_total(), 1u);
  EXPECT_EQ(shell.workload().observations(), 2u);
  std::string top = Must(&shell, "workload top 5");
  EXPECT_NE(top.find("2 observation(s), 1 non-controllable"),
            std::string::npos);
  EXPECT_NE(top.find("nonctrl=1"), std::string::npos);
  // The rejected query still sealed a no-static-bound certificate.
  std::vector<AccessCertificate> certs = shell.journal().certificates();
  ASSERT_EQ(certs.size(), 2u);
  EXPECT_EQ(certs[1].verdict, CertVerdict::kNoStaticBound);
  EXPECT_TRUE(VerifyCertificate(certs[1]));
  std::string detail =
      Must(&shell, "workload fingerprint " + certs[1].query_fingerprint);
  EXPECT_NE(detail.find("nonctrl=1"), std::string::npos);
  EXPECT_NE(detail.find(certs[1].query_id), std::string::npos);
}

TEST(WorkloadShellTest, TopRenderingIsByteIdenticalAcrossSessions) {
  auto run = [] {
    Shell shell = LoadedShell();
    for (int i = 0; i < 3; ++i) Must(&shell, kFriendQuery);
    (void)shell.Execute(kSecretQuery);
    (void)shell.Execute(kSecretQuery);
    return Must(&shell, "workload top 5");
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("5 observation(s), 2 non-controllable"),
            std::string::npos);
}

TEST(WorkloadShellTest, JournalPersistsWorkloadAcrossSessions) {
  const std::string path = ::testing::TempDir() + "journal_sessions.jsonl";
  RemoveJournalFiles(path);
  ::setenv("SCALEIN_JOURNAL_PATH", path.c_str(), 1);
  std::string live;
  {
    Shell shell = LoadedShell();
    for (int i = 0; i < 2; ++i) Must(&shell, kFriendQuery);
    (void)shell.Execute(kSecretQuery);
    live = Must(&shell, "workload top 5");
    ASSERT_NE(shell.journal_store(), nullptr);
    EXPECT_EQ(shell.journal_store()->appended(), 3u);
  }
  {
    // A fresh session replays the journal: same aggregates, same bytes,
    // before it has evaluated anything itself.
    Shell shell;
    EXPECT_EQ(shell.workload().observations(), 3u);
    EXPECT_EQ(shell.workload().noncontrollable_total(), 1u);
    EXPECT_EQ(Must(&shell, "workload top 5"), live);
    std::string bare = Must(&shell, "workload");
    EXPECT_NE(bare.find("replayed journal: 3 entries (3 sealed, 0 tampered, "
                        "0 malformed)"),
              std::string::npos);
  }
  ::unsetenv("SCALEIN_JOURNAL_PATH");
  RemoveJournalFiles(path);
}

// Journal durability faults must degrade to warnings: the answer is correct
// whether or not its certificate reached disk, so a failed append (disk
// full, I/O error) warns in the eval output but never fails the evaluation.
TEST(WorkloadShellTest, JournalAppendFailureWarnsButEvaluationSucceeds) {
  const std::string path = ::testing::TempDir() + "journal_faulty.jsonl";
  RemoveJournalFiles(path);
  ::setenv("SCALEIN_JOURNAL_PATH", path.c_str(), 1);
  Shell shell = LoadedShell();
  ASSERT_TRUE(
      util::Failpoints::Global().Configure("journal_append=error").ok());
  Result<std::string> out = shell.Execute(kFriendQuery);
  util::Failpoints::Global().Clear();
  ::unsetenv("SCALEIN_JOURNAL_PATH");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("1 answers"), std::string::npos) << *out;
  EXPECT_NE(out->find("warning: journal append failed"), std::string::npos)
      << *out;
  // The in-memory journal still carries the sealed certificate; only the
  // persistent store missed it.
  EXPECT_EQ(shell.journal().certificates().size(), 1u);
  ASSERT_NE(shell.journal_store(), nullptr);
  EXPECT_EQ(shell.journal_store()->appended(), 0u);
  RemoveJournalFiles(path);
}

// Same contract one layer down: a rotation failure surfaces as the Append
// status (which the shell renders as a warning), and a later fault-free
// append recovers without losing the store.
TEST(JournalStoreTest, RotateFailpointFailsAppendThenRecovers) {
  const std::string path = ::testing::TempDir() + "journal_rotfail.jsonl";
  RemoveJournalFiles(path);
  JournalStore store(path, /*max_bytes=*/64);  // every append rotates
  ASSERT_TRUE(store.Append(MakeCert(0), 1.0, false).ok());
  ASSERT_TRUE(
      util::Failpoints::Global().Configure("journal_rotate=error").ok());
  Status s = store.Append(MakeCert(1), 1.0, false);
  util::Failpoints::Global().Clear();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("journal_rotate"), std::string::npos);
  EXPECT_TRUE(store.Append(MakeCert(2), 1.0, false).ok());
  RemoveJournalFiles(path);
}

TEST(WorkloadShellTest, QueryIdJoinsCertificateEventsAndMetrics) {
  Shell shell = LoadedShell();
  Must(&shell, kFriendQuery);
  std::vector<AccessCertificate> certs = shell.journal().certificates();
  ASSERT_EQ(certs.size(), 1u);
  const std::string qid = certs[0].query_id;
  ASSERT_FALSE(qid.empty());
  EXPECT_EQ(qid, RenderQueryId(QueryId{SessionFingerprint(), 1}));
  // Every recorder event emitted inside the evaluation carries the same id.
  bool saw_correlated_certificate = false;
  for (const FlightEvent& e : shell.recorder().events()) {
    if (e.kind != EventKind::kCertificate) continue;
    saw_correlated_certificate = true;
    EXPECT_EQ(RenderQueryId(QueryId{e.qid_session, e.qid_seq}), qid);
  }
  EXPECT_TRUE(saw_correlated_certificate);
  // Outside an evaluation nothing is in flight.
  EXPECT_FALSE(CurrentQueryId().valid());
  // The workload gauges are live after the eval.
  EXPECT_NE(Must(&shell, "stats prom").find("workload_fingerprints 1"),
            std::string::npos);
  // A second eval mints the next sequence number.
  Must(&shell, kFriendQuery);
  certs = shell.journal().certificates();
  ASSERT_EQ(certs.size(), 2u);
  EXPECT_EQ(certs[1].query_id,
            RenderQueryId(QueryId{SessionFingerprint(), 2}));
}

}  // namespace
}  // namespace scalein::obs
