// E9: the multi-session serve layer under load.
//
// Default mode measures and writes BENCH_serve.json for
// scripts/bench_regress.py:
//   * Per-class determinism — each query class runs once, serially, and its
//     measured fetch count must sit within its static Theorem 4.2 bound
//     (`--check-bounds` verifies class_*.base_tuples_fetched <=
//     class_*.static_bound; diff mode pins the counts bit-stable).
//   * Closed-loop throughput/latency — K client sessions issue queries
//     back-to-back (serve.closed.* keys: throughput_qps, p50_ms, p99_ms).
//   * Open-loop Poisson arrivals — a fixed seeded arrival schedule replays
//     against the server (serve.open.* keys + admission verdict counts).
//   * Per-phase latency split — the closed loop runs with the structured
//     access log armed; its records are loaded back and summarised as
//     serve.phase.{queue_wait,exec,e2e}_{p50,p99}_ms sidecar keys.
//   * Instrumentation overhead — paired serial batches with the access log
//     off (serve.instr.plain_ms) and on (serve.instr.instrumented_ms);
//     `--check-bounds` gates the delta at --overhead-pct.
//
// `--overload` runs the 8x oversubscription scenario instead (no sidecar):
// 8 * max_running closed-loop clients hammer a mixed workload (cheap, join,
// over-budget, and unboundable queries) against one run slot per hardware
// thread. The scenario exits non-zero unless
//   * every response is a structured admission verdict (no crash, no hang,
//     no stray error),
//   * every *admitted* query completes within its envelope (a sound bound
//     can never trip its own fetch budget),
//   * shedding happens only through bound-based verdicts (reject
//     no-static-bound/budget/queue-*) — and some shedding did happen,
//   * the queue never exceeds its configured capacity, and
//   * the server stays responsive: a post-burst probe query admits promptly.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "io/shell.h"
#include "serve/access_log.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace scalein;
using bench::Header;

namespace {

constexpr size_t kPersons = 400;
constexpr size_t kFriendsPerPerson = 5;

// Query classes. With `access friend(id1) N=50` and `key person(id)`:
// cheap scans one friend list (bound 50), join adds a person lookup per
// friend (bound 100), heavy takes two friend hops (bound quadratic in N —
// larger than the serving session budget, so it degrades under load), and
// nobound touches the secret relation no access statement covers.
const char* kCheap = "F(p, id) := friend(p, id)";
const char* kJoin =
    "Q(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")";
const char* kHeavy =
    "H(p, name) := exists a. exists b. friend(p, a) and friend(a, b) and "
    "person(b, name, \"NYC\")";
const char* kNoBound = "S(p, b) := secret(p, b)";

std::string EvalLine(const char* query, uint64_t person) {
  return StrFormat("eval p=%llu ", static_cast<unsigned long long>(person)) +
         query;
}

void LoadCatalog(Shell* shell) {
  auto must = [shell](const std::string& line) {
    Result<std::string> out = shell->Execute(line);
    SI_CHECK(out.ok());
  };
  must("schema relation person(id, name, city)");
  must("schema relation friend(id1, id2)");
  must("schema relation secret(a, b)");
  must("access access friend(id1) N=50");
  must("access key person(id)");
  must("row secret 1,2");
  Rng rng(1234);
  for (size_t i = 0; i < kPersons; ++i) {
    must(StrFormat("row person %zu,\"p%zu\",\"%s\"", i, i,
                   rng.Bernoulli(0.5) ? "NYC" : "LA"));
  }
  for (size_t i = 0; i < kPersons; ++i) {
    for (size_t f = 0; f < kFriendsPerPerson; ++f) {
      must(StrFormat("row friend %zu,%llu", i,
                     static_cast<unsigned long long>(rng.Uniform(kPersons))));
    }
  }
}

// Pulls "<key>=<number>" or "(N <key>" style figures out of a deterministic
// serve response ("q1 admit bound=100 lease=100: ...\n...\n(2 answers, 4
// base tuples fetched)").
double ParseAfter(const std::string& text, const std::string& marker) {
  const size_t pos = text.find(marker);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + marker.size(), nullptr);
}

double ParseBefore(const std::string& text, const std::string& marker) {
  const size_t pos = text.find(marker);
  if (pos == std::string::npos) return -1.0;
  size_t start = text.rfind('\n', pos);
  start = start == std::string::npos ? 0 : start + 1;
  if (text[start] == '(') ++start;
  return std::strtod(text.c_str() + start, nullptr);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * (v.size() - 1));
  return v[idx];
}

struct LoopStats {
  std::vector<double> latencies_ms;
  uint64_t admitted = 0;
  uint64_t degraded = 0;
  uint64_t rejected = 0;
  uint64_t errors = 0;
  double wall_ms = 0;

  void Count(const Result<std::string>& out) {
    if (!out.ok()) {
      ++errors;
      return;
    }
    if (out->find(" admit ") != std::string::npos) {
      ++admitted;
    } else if (out->find(" degrade ") != std::string::npos) {
      ++degraded;
    } else if (out->find(" reject(") != std::string::npos) {
      ++rejected;
    } else {
      ++errors;
    }
  }

  void Merge(const LoopStats& other) {
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
    admitted += other.admitted;
    degraded += other.degraded;
    rejected += other.rejected;
    errors += other.errors;
  }
};

// K sessions issue `per_client` queries back-to-back (closed loop). The
// arrival *content* is seeded per client, so the workload is reproducible
// even though interleaving is not.
LoopStats ClosedLoop(serve::Server* server, size_t clients, size_t per_client,
                     uint64_t seed, bool with_heavy) {
  std::vector<LoopStats> per(clients);
  std::vector<std::thread> threads;
  bench::Timer wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([server, c, per_client, seed, with_heavy, &per] {
      const std::string sid = StrFormat("closed%zu", c);
      (void)server->HandleLine(sid, "hello");
      Rng rng(seed + c);
      for (size_t q = 0; q < per_client; ++q) {
        const uint64_t person = rng.Zipf(kPersons, 0.8);
        const uint64_t draw = rng.Uniform(with_heavy ? 10 : 2);
        const char* query = draw == 0 ? kCheap
                            : draw == 1 ? kJoin
                            : draw < 9  ? kHeavy
                                        : kNoBound;
        bench::Timer t;
        Result<std::string> out =
            server->HandleLine(sid, EvalLine(query, person));
        per[c].latencies_ms.push_back(t.ElapsedMs());
        per[c].Count(out);
      }
      (void)server->HandleLine(sid, "bye");
    });
  }
  for (std::thread& t : threads) t.join();
  LoopStats total;
  for (const LoopStats& p : per) total.Merge(p);
  total.wall_ms = wall.ElapsedMs();
  return total;
}

// Poisson arrivals at `rate_qps`, pre-drawn from a fixed seed and split
// round-robin over `clients` sessions; each client sleeps to its schedule
// (open loop: arrival times do not depend on completions).
LoopStats OpenLoop(serve::Server* server, size_t clients, size_t arrivals,
                   double rate_qps, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> schedule_ms(clients);
  std::vector<std::vector<std::string>> lines(clients);
  double t_ms = 0;
  for (size_t i = 0; i < arrivals; ++i) {
    t_ms += -std::log(1.0 - rng.NextDouble()) / rate_qps * 1000.0;
    const uint64_t person = rng.Zipf(kPersons, 0.8);
    const char* query = rng.Bernoulli(0.5) ? kCheap : kJoin;
    schedule_ms[i % clients].push_back(t_ms);
    lines[i % clients].push_back(EvalLine(query, person));
  }
  std::vector<LoopStats> per(clients);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  bench::Timer wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([server, c, start, &schedule_ms, &lines, &per] {
      const std::string sid = StrFormat("open%zu", c);
      (void)server->HandleLine(sid, "hello");
      for (size_t i = 0; i < schedule_ms[c].size(); ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            schedule_ms[c][i])));
        bench::Timer t;
        Result<std::string> out = server->HandleLine(sid, lines[c][i]);
        per[c].latencies_ms.push_back(t.ElapsedMs());
        per[c].Count(out);
      }
      (void)server->HandleLine(sid, "bye");
    });
  }
  for (std::thread& t : threads) t.join();
  LoopStats total;
  for (const LoopStats& p : per) total.Merge(p);
  total.wall_ms = wall.ElapsedMs();
  return total;
}

void AddLoop(bench::JsonReport* report, const std::string& prefix,
             const LoopStats& stats) {
  const size_t n = stats.latencies_ms.size();
  report->Add(prefix + ".queries", static_cast<uint64_t>(n));
  report->Add(prefix + ".throughput_qps",
              stats.wall_ms > 0 ? n / stats.wall_ms * 1000.0 : 0.0);
  report->Add(prefix + ".p50_ms", Percentile(stats.latencies_ms, 0.50));
  report->Add(prefix + ".p99_ms", Percentile(stats.latencies_ms, 0.99));
  report->Add(prefix + ".admitted", stats.admitted);
  report->Add(prefix + ".degraded", stats.degraded);
  report->Add(prefix + ".rejected", stats.rejected);
  report->Add(prefix + ".errors", stats.errors);
}

constexpr const char* kAccessLogPath = "BENCH_serve_access.jsonl";
constexpr const char* kInstrLogPath = "BENCH_serve_instr.jsonl";

// Drops every rotation generation of a prior run's log so loaded records
// come from this run only.
void RemoveLogGenerations(const char* path) {
  std::remove(path);
  std::remove((std::string(path) + ".1").c_str());
  std::remove((std::string(path) + ".2").c_str());
}

// Serial batch of heavy-class evaluations against a fresh server, min of
// three timed trials (after warmup). `log_path` empty = access log off; the
// plain/instrumented pair isolates the per-request observability cost the
// regression gate caps. Heavy queries keep the ratio honest: the access-log
// append is a constant few microseconds per request, so it is measured
// against requests that do real evaluation work, not protocol microqueries.
double InstrBatchMs(Shell* shell, const std::string& log_path) {
  serve::Server::Options options;
  options.sla.session_fetch_budget = 10000000;
  options.sla.max_running = 1;
  options.access_log_path = log_path;
  serve::Server server(shell, options);
  SI_CHECK(server.Start().ok());
  (void)server.HandleLine("instr", "hello");
  constexpr size_t kEvals = 100;
  for (size_t i = 0; i < 16; ++i) {
    (void)server.HandleLine("instr", EvalLine(kHeavy, i % kPersons));
  }
  double best = 0;
  for (int trial = 0; trial < 3; ++trial) {
    bench::Timer t;
    for (size_t i = 0; i < kEvals; ++i) {
      (void)server.HandleLine("instr", EvalLine(kHeavy, (17 * i) % kPersons));
    }
    const double ms = t.ElapsedMs();
    if (trial == 0 || ms < best) best = ms;
  }
  (void)server.HandleLine("instr", "bye");
  server.Drain();
  return best;
}

int RunOverload() {
  Header("E9b: 8x oversubscription overload",
         "PIQL-style admission control (paper §1, Thm 4.2 bounds as SLAs)",
         "every admitted query completes within its envelope; shedding is "
         "bound-based only; the server stays responsive");
  Shell shell;
  LoadCatalog(&shell);
  serve::Server::Options options;
  options.sla.session_fetch_budget = 2000;
  options.sla.max_running =
      std::max(1u, std::thread::hardware_concurrency());
  options.sla.queue_capacity = 32;
  options.sla.queue_class_capacity = 16;
  options.sla.queue_timeout_ms = 20;
  serve::Server server(&shell, options);
  SI_CHECK(server.Start().ok());

  const size_t clients = 8 * options.sla.max_running;
  constexpr size_t kPerClient = 30;
  std::atomic<uint64_t> envelope_violations{0};
  std::atomic<uint64_t> non_bound_sheds{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> sheds{0};
  std::atomic<size_t> max_queue_depth{0};

  std::atomic<bool> sampling{true};
  std::thread sampler([&server, &sampling, &max_queue_depth] {
    while (sampling.load(std::memory_order_relaxed)) {
      const size_t depth = server.queue_depth();
      size_t seen = max_queue_depth.load(std::memory_order_relaxed);
      while (depth > seen &&
             !max_queue_depth.compare_exchange_weak(seen, depth)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> threads;
  bench::Timer wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::string sid = StrFormat("ovl%zu", c);
      (void)server.HandleLine(sid, "hello");
      Rng rng(99 + c);
      for (size_t q = 0; q < kPerClient; ++q) {
        const uint64_t person = rng.Zipf(kPersons, 0.8);
        const uint64_t draw = rng.Uniform(10);
        const char* query = draw < 3   ? kCheap
                            : draw < 6 ? kJoin
                            : draw < 9 ? kHeavy
                                       : kNoBound;
        Result<std::string> out =
            server.HandleLine(sid, EvalLine(query, person));
        if (!out.ok()) {
          ++errors;
          continue;
        }
        if (out->find(" admit ") != std::string::npos) {
          // A sound static bound can never trip its own fetch envelope.
          if (out->find("tripped: fetch-budget") != std::string::npos) {
            ++envelope_violations;
          }
        } else if (out->find(" degrade ") != std::string::npos) {
          // Degraded runs may trip their reduced lease — that IS the
          // contract (a sound partial extent), not a violation.
        } else if (out->find(" reject(") != std::string::npos) {
          ++sheds;
          // Bound-based shedding only: every refusal must cite the static
          // bound (no-static-bound/budget) or bounded-queue backpressure.
          if (out->find("reject(no-static-bound)") == std::string::npos &&
              out->find("reject(budget)") == std::string::npos &&
              out->find("reject(queue-timeout)") == std::string::npos &&
              out->find("reject(queue-full)") == std::string::npos &&
              out->find("reject(queue-class-full)") == std::string::npos) {
            ++non_bound_sheds;
          }
        } else {
          ++errors;
        }
      }
      (void)server.HandleLine(sid, "bye");
    });
  }
  for (std::thread& t : threads) t.join();
  const double burst_ms = wall.ElapsedMs();
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();

  // Responsiveness probe: the instant the burst ends, a fresh session's
  // cheap query must admit and answer promptly.
  bench::Timer probe;
  (void)server.HandleLine("probe", "hello");
  Result<std::string> probed = server.HandleLine("probe", EvalLine(kCheap, 1));
  const double probe_ms = probe.ElapsedMs();
  (void)server.HandleLine("probe", "bye");

  std::printf("clients=%zu slots=%zu burst=%.0fms max-queue-depth=%zu\n",
              clients, options.sla.max_running, burst_ms,
              max_queue_depth.load());
  std::printf(
      "sheds=%llu errors=%llu envelope-violations=%llu "
      "non-bound-sheds=%llu probe=%.1fms\n",
      static_cast<unsigned long long>(sheds.load()),
      static_cast<unsigned long long>(errors.load()),
      static_cast<unsigned long long>(envelope_violations.load()),
      static_cast<unsigned long long>(non_bound_sheds.load()), probe_ms);

  int rc = 0;
  auto fail = [&rc](const char* what) {
    std::fprintf(stderr, "OVERLOAD VIOLATION: %s\n", what);
    rc = 1;
  };
  if (errors.load() != 0) fail("responses that were not admission verdicts");
  if (envelope_violations.load() != 0) {
    fail("an admitted query tripped its own fetch envelope");
  }
  if (non_bound_sheds.load() != 0) fail("shedding without a bound to cite");
  if (sheds.load() == 0) {
    fail("8x oversubscription shed nothing — scenario lost its teeth");
  }
  if (max_queue_depth.load() > options.sla.queue_capacity) {
    fail("queue grew past its configured capacity");
  }
  if (!probed.ok() ||
      probed->find(" admit ") == std::string::npos) {
    fail("post-burst probe was not admitted");
  }
  if (probe_ms > 5000.0) fail("post-burst probe took > 5s");
  if (server.queue_depth() != 0 || server.running() != 0) {
    fail("queue or run slots leaked after the burst");
  }
  std::printf(rc == 0 ? "overload scenario OK\n"
                      : "overload scenario FAILED\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--overload") == 0) return RunOverload();
  }

  Header("E9: multi-session serve layer",
         "PIQL-style admission control (paper §1, Thm 4.2 bounds as SLAs)",
         "per-class fetch counts within their static bounds; stable "
         "closed/open-loop latency under concurrent sessions");
  bench::JsonReport report("serve");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  report.Add("hw_threads", static_cast<uint64_t>(hw));
  // How many CPUs the host really ran at once, probed before any timed
  // batch, so a failing timing gate can be read against the host.
  const double effective_cpus = bench::EffectiveCpus();
  report.Add("host.effective_cpus", effective_cpus);
  std::printf("host: %u hardware thread(s), %.2f effective CPU(s)\n", hw,
              effective_cpus);

  // The bench controls its own observability plane: ambient env must not
  // flip the access log on (plain run) or redirect it (instrumented run).
  ::unsetenv("SCALEIN_ACCESS_LOG_PATH");
  ::unsetenv("SCALEIN_ACCESS_LOG_MAX_BYTES");
  RemoveLogGenerations(kAccessLogPath);
  RemoveLogGenerations(kInstrLogPath);

  Shell shell;
  LoadCatalog(&shell);
  serve::Server::Options options;
  options.sla.session_fetch_budget = 100000;
  options.sla.max_running = hw;
  options.access_log_path = kAccessLogPath;
  serve::Server server(&shell, options);
  SI_CHECK(server.Start().ok());

  // Per-class serial runs: deterministic fetch counts the regression gate
  // pins against their static bounds (and bit-stable across runs).
  struct ClassSpec {
    const char* key;
    const char* query;
  };
  for (const ClassSpec& spec : {ClassSpec{"class_cheap", kCheap},
                                ClassSpec{"class_join", kJoin},
                                ClassSpec{"class_heavy", kHeavy}}) {
    const std::string sid = std::string("serial_") + spec.key;
    (void)server.HandleLine(sid, "hello");
    Result<std::string> out = server.HandleLine(sid, EvalLine(spec.query, 1));
    SI_CHECK(out.ok());
    const double bound = ParseAfter(*out, "bound=");
    const double fetched = ParseBefore(*out, " base tuples fetched");
    const double answers = ParseBefore(*out, " answers");
    SI_CHECK(bound >= 0 && fetched >= 0);
    report.Add(std::string(spec.key) + ".static_bound", bound);
    report.Add(std::string(spec.key) + ".base_tuples_fetched",
               static_cast<uint64_t>(fetched));
    report.Add(std::string(spec.key) + ".answers",
               static_cast<uint64_t>(answers));
    (void)server.HandleLine(sid, "bye");
  }

  // Closed loop: min(hw, 4) sessions back-to-back.
  const size_t clients = std::min<size_t>(hw, 4);
  LoopStats closed =
      ClosedLoop(&server, clients, /*per_client=*/64, /*seed=*/7,
                 /*with_heavy=*/false);
  AddLoop(&report, "serve.closed", closed);
  std::printf("closed loop: %zu clients, %.0f qps, p99 %.2fms\n", clients,
              closed.latencies_ms.size() / closed.wall_ms * 1000.0,
              Percentile(closed.latencies_ms, 0.99));

  // Per-phase latency split, recomputed from the structured access log the
  // closed loop just wrote — the same artifact scripts/serve_report.py
  // reads offline. Filtered to the closed-loop sessions so the serial
  // class probes above don't skew the percentiles.
  {
    serve::AccessLogLoadReport log_report;
    Result<std::vector<serve::AccessLogRecord>> records =
        serve::LoadAccessLogRecords(kAccessLogPath, &log_report);
    SI_CHECK(records.ok() && log_report.malformed == 0);
    std::vector<double> queue_wait, exec, e2e;
    for (const serve::AccessLogRecord& rec : *records) {
      if (rec.session_id.rfind("closed", 0) != 0) continue;
      queue_wait.push_back(rec.queue_wait_ms);
      exec.push_back(rec.exec_ms);
      e2e.push_back(rec.e2e_ms);
    }
    SI_CHECK(e2e.size() == closed.latencies_ms.size());
    report.Add("serve.phase.records", static_cast<uint64_t>(e2e.size()));
    report.Add("serve.phase.queue_wait_p50_ms", Percentile(queue_wait, 0.50));
    report.Add("serve.phase.queue_wait_p99_ms", Percentile(queue_wait, 0.99));
    report.Add("serve.phase.exec_p50_ms", Percentile(exec, 0.50));
    report.Add("serve.phase.exec_p99_ms", Percentile(exec, 0.99));
    report.Add("serve.phase.e2e_p50_ms", Percentile(e2e, 0.50));
    report.Add("serve.phase.e2e_p99_ms", Percentile(e2e, 0.99));
    std::printf("phase split (closed loop): queue_wait p99 %.3fms, "
                "exec p99 %.3fms, e2e p99 %.3fms over %zu records\n",
                Percentile(queue_wait, 0.99), Percentile(exec, 0.99),
                Percentile(e2e, 0.99), e2e.size());
  }

  // Open loop: seeded Poisson arrivals at a rate the closed loop proved
  // sustainable (half its throughput), so queueing stays transient.
  const double rate_qps = std::max(
      50.0, closed.latencies_ms.size() / closed.wall_ms * 1000.0 / 2.0);
  LoopStats open =
      OpenLoop(&server, clients, /*arrivals=*/256, rate_qps, /*seed=*/11);
  AddLoop(&report, "serve.open", open);
  report.Add("serve.open.offered_qps", rate_qps);
  std::printf("open loop: %.0f qps offered, p99 %.2fms\n", rate_qps,
              Percentile(open.latencies_ms, 0.99));

  server.Drain();

  // Instrumentation overhead: identical serial batches with the access log
  // off, then on. The delta is the per-request cost of the observability
  // plane's only traffic-scaled sink; bench_regress.py --check-bounds caps
  // it at --overhead-pct (+1 ms cushion for timer granularity).
  const double plain_ms = InstrBatchMs(&shell, "");
  const double instrumented_ms = InstrBatchMs(&shell, kInstrLogPath);
  report.Add("serve.instr.plain_ms", plain_ms);
  report.Add("serve.instr.instrumented_ms", instrumented_ms);
  std::printf("instrumentation: plain %.3fms vs instrumented %.3fms "
              "(%+.2f%%)\n",
              plain_ms, instrumented_ms,
              plain_ms > 0 ? 100.0 * (instrumented_ms - plain_ms) / plain_ms
                           : 0.0);

  SI_CHECK(closed.errors == 0 && open.errors == 0);
  return 0;
}
