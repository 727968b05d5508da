#ifndef SCALEIN_SERVE_PORT_H_
#define SCALEIN_SERVE_PORT_H_

#include <cstdint>

#include "serve/listener.h"
#include "serve/server.h"
#include "util/status.h"

namespace scalein::serve {

/// The TCP front door: accepts connections on a loopback port and pumps
/// each one through Server::HandleLine — one OS thread per connection
/// (serve/listener.h accepts, tracks and reaps them), so
/// admitted queries of different connections run in parallel up to the
/// server's run slots (connection threads otherwise block on the socket or
/// in the admission queue). Requests are newline-terminated lines,
/// responses are serve/message.h frames.
///
/// Failure injection: `serve_accept`, `serve_read`, and `serve_write`
/// failpoint sites fire per accepted connection / read chunk / written
/// frame. A fired site counts serve.io_faults and closes that connection
/// gracefully — the server and its other sessions are unaffected, which is
/// exactly the blast-radius contract the chaos lane asserts.
class Port {
 public:
  struct Options {
    uint16_t port = 0;  ///< 0 = ephemeral (resolved after Listen)
  };

  /// `server` must be Start()ed and outlive the port.
  Port(Server* server, Options options);
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Binds 127.0.0.1:<port>, listens, and spawns the accept loop.
  Status Listen() { return listener_.Listen(); }

  /// The bound port (after Listen; ephemeral requests resolve here).
  uint16_t port() const { return listener_.port(); }

  /// Closes the listener and every live connection, then joins all
  /// threads. Idempotent; called by the destructor.
  void Shutdown() { listener_.Shutdown(); }

  /// Connections accepted over the port's lifetime.
  uint64_t accepted() const { return listener_.accepted(); }

 private:
  void Serve(int fd, uint64_t conn_id);

  Server* const server_;
  Listener listener_;  ///< last: its destructor joins Serve's threads first
};

}  // namespace scalein::serve

#endif  // SCALEIN_SERVE_PORT_H_
