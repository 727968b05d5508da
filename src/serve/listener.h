#ifndef SCALEIN_SERVE_LISTENER_H_
#define SCALEIN_SERVE_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace scalein::serve {

/// The loopback accept loop both front doors (serve::Port and
/// serve::MetricsHttp) share: binds 127.0.0.1:<port>, accepts on one
/// thread, and runs each connection's handler on a thread of its own.
///
/// A connection thread whose handler has returned is joined when the next
/// connection is accepted, so a long-lived listener holds threads (and
/// their stacks) only for live connections and for those that finished
/// since the last accept. No thread is detached: Shutdown joins the rest,
/// and no handler runs after it returns.
class Listener {
 public:
  /// Serves one accepted connection; `conn_id` counts accepted connections
  /// from 1. The listener closes `fd` after the handler returns.
  using Handler = std::function<void(int fd, uint64_t conn_id)>;

  struct Options {
    uint16_t port = 0;  ///< 0 = ephemeral (resolved by Listen)
    int backlog = 64;
    /// Failpoint site hit once per accepted connection. A fired site counts
    /// serve.io_faults and drops only that connection, before its handler
    /// runs and without counting it as accepted.
    const char* accept_failpoint = "";
  };

  /// `faults` (where serve.io_faults is counted) must outlive the listener.
  Listener(Options options, obs::MetricsRegistry* faults, Handler handler);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds, listens, and spawns the accept loop.
  Status Listen();

  /// The bound port (after Listen; ephemeral requests resolve here).
  uint16_t port() const { return port_; }

  /// True once Shutdown began; handlers poll it between reads.
  bool stopping() const { return stopping_.load(std::memory_order_relaxed); }

  /// Connections accepted (past the failpoint) over the listener's lifetime.
  uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Closes the listener, shuts down every live connection so blocked
  /// reads return, and joins every thread. Idempotent; called by the
  /// destructor.
  void Shutdown();

 private:
  void AcceptLoop();
  /// Runs on a connection thread: the handler, then close and mark done.
  void RunConnection(int fd, uint64_t conn_id);
  /// Joins the threads of connections whose handler has returned.
  void ReapFinished();

  const Options options_;
  obs::MetricsRegistry* const faults_;
  const Handler handler_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> accepted_{0};
  std::mutex mu_;
  std::set<int> live_fds_;          ///< under mu_
  std::vector<uint64_t> finished_;  ///< handler returned, not joined; mu_
  std::map<uint64_t, std::thread> conn_threads_;  ///< by conn id; under mu_
  std::thread accept_thread_;
};

}  // namespace scalein::serve

#endif  // SCALEIN_SERVE_LISTENER_H_
