// E9: the multi-session serve layer, one job per gate.
//
// Default mode measures and writes BENCH_serve.json for
// scripts/bench_regress.py:
//   * Per-class determinism — each query class runs once, serially, and its
//     measured fetch count must sit within its static Theorem 4.2 bound
//     (`--check-bounds` verifies class_*.base_tuples_fetched <=
//     class_*.static_bound; diff mode pins the counts bit-stable).
//   * Instrumentation overhead — serial batches of heavy evaluations on a
//     server with the access log off and on, interleaved in alternating
//     pairs (bench::CompareInterleaved). serve.instr.overhead_ratio is the
//     median per-pair instrumented/plain ratio with its 95% bootstrap CI;
//     `--check-bounds` gates the median at --overhead-pct plus a 1 ms
//     cushion over the median plain batch.
// Serving latency is the wire benchmark's business (wirebench/, the
// `point` workload and its traced serve.queue_wait_ms_p99), not this one's.
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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "io/shell.h"
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

constexpr const char* kInstrLogPath = "BENCH_serve_instr.jsonl";

// Drops every rotation generation of a prior run's log, so no run starts
// close enough to the rotation size to rotate while it is timed.
void RemoveLogGenerations(const char* path) {
  std::remove(path);
  std::remove((std::string(path) + ".1").c_str());
  std::remove((std::string(path) + ".2").c_str());
}

// A fresh single-slot server for the instrumentation batches, access log
// off (`log_path` empty) or on, with its session open and warmed up.
std::unique_ptr<serve::Server> InstrServer(Shell* shell,
                                           const std::string& log_path) {
  serve::Server::Options options;
  options.sla.session_fetch_budget = 10000000;
  options.sla.max_running = 1;
  options.access_log_path = log_path;
  auto server = std::make_unique<serve::Server>(shell, options);
  SI_CHECK(server->Start().ok());
  (void)server->HandleLine("instr", "hello");
  for (size_t i = 0; i < 16; ++i) {
    (void)server->HandleLine("instr", EvalLine(kHeavy, i % kPersons));
  }
  return server;
}

// One timed serial batch of heavy-class evaluations. Heavy queries keep the
// ratio honest: the access-log append is a constant few microseconds per
// request, so it is measured against requests that do real evaluation work,
// not protocol microqueries.
double InstrBatchMs(serve::Server* server) {
  constexpr size_t kEvals = 100;
  bench::Timer t;
  for (size_t i = 0; i < kEvals; ++i) {
    (void)server->HandleLine("instr", EvalLine(kHeavy, (17 * i) % kPersons));
  }
  return t.ElapsedMs();
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
         "per-class fetch counts within their static bounds; the access log "
         "costs at most 3% (+1 ms) of a serial batch");
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
  // flip the access log on (plain server) or redirect it (instrumented).
  ::unsetenv("SCALEIN_ACCESS_LOG_PATH");
  ::unsetenv("SCALEIN_ACCESS_LOG_MAX_BYTES");
  RemoveLogGenerations(kInstrLogPath);

  Shell shell;
  LoadCatalog(&shell);
  {
    serve::Server::Options options;
    options.sla.session_fetch_budget = 100000;
    options.sla.max_running = hw;
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
      Result<std::string> out =
          server.HandleLine(sid, EvalLine(spec.query, 1));
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
    server.Drain();
  }

  // Instrumentation overhead: the same serial batch on a plain server and
  // on one with the access log armed, in alternating pairs so host drift
  // cancels within a pair. The ratio is the per-request cost of the
  // observability plane's only traffic-scaled sink.
  constexpr size_t kInstrPairs = 40;
  std::unique_ptr<serve::Server> plain = InstrServer(&shell, "");
  std::unique_ptr<serve::Server> instrumented =
      InstrServer(&shell, kInstrLogPath);
  const bench::Comparison instr = bench::CompareInterleaved(
      [&] { return InstrBatchMs(plain.get()); },
      [&] { return InstrBatchMs(instrumented.get()); }, kInstrPairs);
  plain->Drain();
  instrumented->Drain();
  report.Add("serve.instr.plain_ms", instr.a_ms);
  report.Add("serve.instr.instrumented_ms", instr.b_ms);
  report.Add("serve.instr.overhead_ratio", instr.median);
  report.Add("serve.instr.overhead_ratio_ci_low", instr.ci_low);
  report.Add("serve.instr.overhead_ratio_ci_high", instr.ci_high);
  report.Add("serve.instr.pairs", static_cast<uint64_t>(instr.ratios.size()));
  std::printf("instrumentation: median plain %.3fms vs instrumented %.3fms; "
              "median pair ratio %+.2f%% (95%% CI [%+.2f%%, %+.2f%%], %zu "
              "pairs)\n",
              instr.a_ms, instr.b_ms, 100.0 * (instr.median - 1.0),
              100.0 * (instr.ci_low - 1.0), 100.0 * (instr.ci_high - 1.0),
              instr.ratios.size());
  return 0;
}
