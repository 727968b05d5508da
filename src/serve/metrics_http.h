#ifndef SCALEIN_SERVE_METRICS_HTTP_H_
#define SCALEIN_SERVE_METRICS_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "obs/metrics.h"
#include "serve/listener.h"
#include "util/status.h"

namespace scalein::serve {

/// The scrape side door: a deliberately tiny HTTP/1.0-ish responder on a
/// loopback port, enabled by SCALEIN_METRICS_PORT, serving exactly two
/// routes so a Prometheus scraper or load balancer needs no client library:
///
///   GET /metrics  → 200, the registry's text exposition (version 0.0.4)
///   GET /healthz  → 200 "ok" while serving, 503 "draining" once the
///                   server started draining (drain-aware, so an LB stops
///                   routing before the listener goes away)
///
/// Anything else is a 404. One request per connection (`Connection: close`),
/// which keeps the parser to "read until blank line, look at the first
/// line". Same lifecycle and blast-radius contract as serve::Port, through
/// the same serve::Listener: one accept thread, one short-lived thread per
/// connection, a `serve_http` failpoint whose injected faults count
/// serve.io_faults and drop only that connection.
class MetricsHttp {
 public:
  struct Options {
    uint16_t port = 0;  ///< 0 = ephemeral (resolved after Listen)
  };

  /// `registry` must outlive the endpoint. `draining` is polled per /healthz
  /// request; pass the server's draining() so health flips with drain.
  MetricsHttp(obs::MetricsRegistry* registry, std::function<bool()> draining,
              Options options);
  MetricsHttp(const MetricsHttp&) = delete;
  MetricsHttp& operator=(const MetricsHttp&) = delete;

  /// Binds 127.0.0.1:<port>, listens, and spawns the accept loop.
  Status Listen() { return listener_.Listen(); }

  /// The bound port (after Listen; ephemeral requests resolve here).
  uint16_t port() const { return listener_.port(); }

  /// Closes the listener and every live connection, then joins all
  /// threads. Idempotent; called by the destructor.
  void Shutdown() { listener_.Shutdown(); }

  /// Requests answered (any route) over the endpoint's lifetime.
  uint64_t scrapes() const { return scrapes_.load(std::memory_order_relaxed); }

 private:
  void Serve(int fd);

  obs::MetricsRegistry* const registry_;
  const std::function<bool()> draining_;
  std::atomic<uint64_t> scrapes_{0};
  Listener listener_;  ///< last: its destructor joins Serve's threads first
};

}  // namespace scalein::serve

#endif  // SCALEIN_SERVE_METRICS_HTTP_H_
