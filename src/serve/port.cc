#include "serve/port.h"

#include <sys/socket.h>
#include <unistd.h>

#include "obs/flight_recorder.h"
#include "serve/message.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace scalein::serve {
namespace {

/// Writes all of `frame`; false when the peer is gone.
bool SendAll(int fd, const std::string& frame) {
  size_t written = 0;
  while (written < frame.size()) {
    // MSG_NOSIGNAL: writing to a peer that already closed fails with EPIPE
    // and ends this connection, instead of raising SIGPIPE and killing the
    // whole server.
    const ssize_t w = ::send(fd, frame.data() + written,
                             frame.size() - written, MSG_NOSIGNAL);
    if (w <= 0) return false;
    written += static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

Port::Port(Server* server, Options options)
    : server_(server),
      listener_({options.port, /*backlog=*/64, "serve_accept"},
                server->shell_metrics(),
                [this](int fd, uint64_t conn_id) { Serve(fd, conn_id); }) {}

void Port::Serve(int fd, uint64_t conn_id) {
  const std::string sid = StrFormat("conn%llu",
                                    static_cast<unsigned long long>(conn_id));
  std::string pending;
  size_t scanned = 0;  // bytes of `pending` known to hold no newline
  char chunk[4096];
  bool session_opened = false;
  bool faulted = false;
  while (!listener_.stopping()) {
    if (!SCALEIN_FAILPOINT("serve_read").ok()) {
      server_->shell_metrics()->GetCounter("serve.io_faults").Increment();
      faulted = true;
      break;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;  // disconnect (or shutdown-induced error)
    pending.append(chunk, static_cast<size_t>(n));
    size_t nl;
    bool closing = false;
    while ((nl = pending.find('\n', scanned)) != std::string::npos) {
      std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      scanned = 0;
      const std::string_view stripped = StripWhitespace(line);
      Result<std::string> out = server_->HandleLine(sid, stripped);
      if (out.ok() && stripped == "hello") session_opened = true;
      const std::string frame =
          out.ok() ? EncodeFrame(true, *out)
                   : EncodeFrame(false, out.status().ToString() + "\n");
      if (!SCALEIN_FAILPOINT("serve_write").ok()) {
        server_->shell_metrics()->GetCounter("serve.io_faults").Increment();
        faulted = true;
        closing = true;
        break;
      }
      if (!SendAll(fd, frame)) {
        closing = true;
        break;
      }
      // The flush phase: the response frame is on the wire. Unstamped (the
      // request's QueryId is not visible at the port layer), but adjacent
      // to the stamped serve-phase lifecycle event in the ring.
      obs::RecordFlightNums(obs::EventKind::kServePhase, "flush",
                            {{"bytes", static_cast<double>(frame.size())}});
      if (stripped == "bye") {
        session_opened = false;
        closing = true;
        break;
      }
    }
    if (closing) break;
    scanned = pending.size();
    if (pending.size() > kMaxLineBytes) {
      // One framed refusal, then FIN after it, so the peer reads the error
      // and then end of stream; only this connection closes.
      const Status refused = Status::InvalidArgument(StrFormat(
          "line exceeds %zu bytes without a newline", kMaxLineBytes));
      (void)SendAll(fd, EncodeFrame(false, refused.ToString() + "\n"));
      ::shutdown(fd, SHUT_WR);
      break;
    }
  }
  (void)faulted;
  // Client disconnect is a preemption event: close the session so its
  // envelope's cancellation token stops any still-running evaluation.
  if (session_opened) (void)server_->CloseSession(sid);
}

}  // namespace scalein::serve
