#include "serve/port.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

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
    : server_(server), options_(options) {}

Port::~Port() { Shutdown(); }

Status Port::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind: " + err);
  }
  if (::listen(listen_fd_, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Port::AcceptLoop() {
  uint64_t next_conn = 0;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (errno == EINTR) continue;
      break;  // listener closed or broken: stop accepting
    }
    if (!SCALEIN_FAILPOINT("serve_accept").ok()) {
      // Injected accept fault: this connection is the blast radius —
      // count it, drop it, keep serving everyone else.
      server_->shell_metrics()->GetCounter("serve.io_faults").Increment();
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t conn_id = ++next_conn;
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    live_fds_.insert(fd);
    conn_threads_.emplace_back([this, fd, conn_id] { Serve(fd, conn_id); });
  }
}

void Port::Serve(int fd, uint64_t conn_id) {
  const std::string sid = StrFormat("conn%llu",
                                    static_cast<unsigned long long>(conn_id));
  std::string pending;
  size_t scanned = 0;  // bytes of `pending` known to hold no newline
  char chunk[4096];
  bool session_opened = false;
  bool faulted = false;
  while (!stopping_.load(std::memory_order_relaxed)) {
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
  std::lock_guard<std::mutex> lock(mu_);
  if (live_fds_.erase(fd) != 0) ::close(fd);
}

void Port::CloseAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
}

void Port::Shutdown() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  CloseAll();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  listen_fd_ = -1;
}

}  // namespace scalein::serve
