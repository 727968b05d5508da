#include "serve/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <system_error>
#include <utility>

#include "util/failpoint.h"

namespace scalein::serve {

Listener::Listener(Options options, obs::MetricsRegistry* faults,
                   Handler handler)
    : options_(options), faults_(faults), handler_(std::move(handler)) {}

Listener::~Listener() { Shutdown(); }

Status Listener::Listen() {
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
  if (::listen(listen_fd_, options_.backlog) < 0) {
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

void Listener::AcceptLoop() {
  while (!stopping()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping()) break;
      if (errno == EINTR) continue;
      break;  // listener closed or broken: stop accepting
    }
    if (!SCALEIN_FAILPOINT(options_.accept_failpoint).ok()) {
      // Injected accept fault: this connection is the blast radius —
      // count it, drop it, keep serving everyone else.
      faults_->GetCounter("serve.io_faults").Increment();
      ::close(fd);
      continue;
    }
    ReapFinished();
    const uint64_t conn_id =
        accepted_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping()) {
      ::close(fd);
      break;
    }
    std::thread thread;
    try {
      thread = std::thread([this, fd, conn_id] { RunConnection(fd, conn_id); });
    } catch (const std::system_error&) {
      // No thread to serve it (out of threads or address space): drop this
      // connection like an injected fault and keep accepting.
      faults_->GetCounter("serve.io_faults").Increment();
      ::close(fd);
      continue;
    }
    live_fds_.insert(fd);
    conn_threads_.emplace(conn_id, std::move(thread));
  }
}

void Listener::RunConnection(int fd, uint64_t conn_id) {
  handler_(fd, conn_id);
  std::lock_guard<std::mutex> lock(mu_);
  live_fds_.erase(fd);
  ::close(fd);
  finished_.push_back(conn_id);
}

void Listener::ReapFinished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t id : finished_) {
      auto it = conn_threads_.find(id);
      done.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
    finished_.clear();
  }
  // The handlers have returned; each join waits at most for a thread exit.
  for (std::thread& t : done) t.join();
}

void Listener::Shutdown() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::map<uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(conn_threads_);
  }
  for (auto& [conn_id, t] : threads) t.join();
  listen_fd_ = -1;
}

}  // namespace scalein::serve
