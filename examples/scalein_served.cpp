// Multi-session query server over the scalein library: loads a catalog
// script, then serves concurrent client sessions with bound-based admission
// control (src/serve). Every arriving query's static Theorem 4.2 bound is
// compared to the session's SLA fetch lease up front and the server
// deterministically admits, queues, degrades, or rejects it — overload sheds
// by *proof*, not by falling over.
//
// TCP mode (default):
//   SCALEIN_SERVE_PORT=7474 ./build/examples/scalein_served catalog.txt
//   — listens on 127.0.0.1:$SCALEIN_SERVE_PORT (0/unset: ephemeral, printed
//   on stdout). Clients send newline-terminated protocol lines (hello /
//   eval ... / budget / bye, see src/serve/server.h) and receive
//   length-prefixed frames (src/serve/message.h). SIGTERM/SIGINT drains
//   gracefully: in-flight queries are preempted via their governor
//   cancellation tokens, queued work sheds as draining.
//
// Scripted mode (CI acceptance / deterministic replay):
//   ./build/examples/scalein_served --script catalog.txt < arrivals.txt
//   — each stdin line is "<session-id> <protocol-line>"; responses print to
//   stdout. Single-threaded, so for a fixed arrival script the admission
//   transcript is byte-identical on every run. The `#busy <n>` directive
//   models occupied run slots to exercise queue/queue-timeout.
//
// SLA knobs (all env): SCALEIN_SLA_SESSION_BUDGET, SCALEIN_SLA_SERVER_BUDGET,
// SCALEIN_SLA_QUERY_DEADLINE_MS, SCALEIN_SLA_ROW_CAP, SCALEIN_SLA_DEGRADE,
// SCALEIN_SLA_DEGRADE_FLOOR, SCALEIN_SLA_QUEUE_CAP,
// SCALEIN_SLA_QUEUE_CLASS_CAP, SCALEIN_SLA_QUEUE_TIMEOUT_MS,
// SCALEIN_SLA_MAX_RUNNING (run slots, default 1: the server's one
// concurrency setting). See docs/usage.md.
//
// Observability plane: SCALEIN_ACCESS_LOG_PATH arms the structured JSONL
// access log (rotated at SCALEIN_ACCESS_LOG_MAX_BYTES;
// scripts/serve_report.py reads it offline); SCALEIN_METRICS_PORT (TCP mode
// only) opens a loopback HTTP scrape endpoint serving GET /metrics
// (Prometheus text) and GET /healthz (drain-aware). See
// docs/observability.md.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include <memory>

#include "io/shell.h"
#include "serve/metrics_http.h"
#include "serve/port.h"
#include "serve/server.h"
#include "util/strings.h"

namespace {

std::atomic<bool> g_stop{false};

extern "C" void HandleTermSignal(int /*signum*/) {
  g_stop.store(true, std::memory_order_relaxed);
}

int Fail(const char* what, const scalein::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool scripted = false;
  const char* catalog_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--script") == 0) {
      scripted = true;
    } else {
      catalog_path = argv[i];
    }
  }

  scalein::Shell shell;
  if (catalog_path != nullptr) {
    std::ifstream in(catalog_path);
    if (!in) {
      std::fprintf(stderr, "cannot open catalog '%s'\n", catalog_path);
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (scalein::StripWhitespace(line).empty()) continue;
      scalein::Result<std::string> out = shell.Execute(line);
      if (!out.ok()) return Fail("catalog", out.status());
    }
  }

  scalein::serve::Server::Options options;
  options.sla = scalein::serve::SlaConfig::FromEnv();
  options.scripted = scripted;
  scalein::serve::Server server(&shell, options);
  if (scalein::Status s = server.Start(); !s.ok()) return Fail("start", s);
  std::printf("%s\n", options.sla.ToString().c_str());

  if (scripted) {
    // Deterministic single-threaded replay: "<sid> <protocol-line>" per
    // stdin line; the full response transcript goes to stdout.
    std::string line;
    int rc = 0;
    while (std::getline(std::cin, line)) {
      std::string_view stripped = scalein::StripWhitespace(line);
      if (stripped.empty()) continue;
      if (stripped == "quit") break;
      const size_t sp = stripped.find(' ');
      if (sp == std::string_view::npos) {
        std::fprintf(stderr, "script: expected '<sid> <line>', got '%s'\n",
                     std::string(stripped).c_str());
        return 1;
      }
      const std::string sid(stripped.substr(0, sp));
      scalein::Result<std::string> out =
          server.HandleLine(sid, stripped.substr(sp + 1));
      if (out.ok()) {
        std::fputs(out->c_str(), stdout);
      } else {
        std::printf("error: %s\n", out.status().ToString().c_str());
        if (out.status().code() == scalein::StatusCode::kDataLoss) rc = 1;
      }
    }
    server.Drain();
    return rc;
  }

  std::signal(SIGTERM, HandleTermSignal);
  std::signal(SIGINT, HandleTermSignal);
  scalein::serve::Port::Options port_options;
  if (const char* p = std::getenv("SCALEIN_SERVE_PORT");
      p != nullptr && p[0] != '\0') {
    port_options.port = static_cast<uint16_t>(std::atoi(p));
  }
  scalein::serve::Port port(&server, port_options);
  if (scalein::Status s = port.Listen(); !s.ok()) return Fail("listen", s);
  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(port.port()));
  // Scrape side door (TCP mode only, so scripted transcripts stay pure):
  // SCALEIN_METRICS_PORT arms GET /metrics + /healthz on loopback.
  std::unique_ptr<scalein::serve::MetricsHttp> metrics_http;
  if (const char* mp = std::getenv("SCALEIN_METRICS_PORT");
      mp != nullptr && mp[0] != '\0') {
    scalein::serve::MetricsHttp::Options http_options;
    http_options.port = static_cast<uint16_t>(std::atoi(mp));
    metrics_http = std::make_unique<scalein::serve::MetricsHttp>(
        server.shell_metrics(), [&server] { return server.draining(); },
        http_options);
    if (scalein::Status s = metrics_http->Listen(); !s.ok()) {
      return Fail("metrics listen", s);
    }
    std::printf("metrics on 127.0.0.1:%u\n",
                static_cast<unsigned>(metrics_http->port()));
  }
  std::fflush(stdout);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("draining\n");
  server.Drain();
  // Keep /healthz answering 503 "draining" while connections wind down;
  // shut the scrape door last.
  port.Shutdown();
  if (metrics_http != nullptr) metrics_http->Shutdown();
  return 0;
}
