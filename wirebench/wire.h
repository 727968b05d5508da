#ifndef WIREBENCH_WIRE_H_
#define WIREBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "data.h"
#include "serve/message.h"

namespace wirebench {

/// One scalein_served child process. The environment is the parent's minus
/// every SCALEIN_* variable, plus `env` — so the server runs its defaults
/// except for what the benchmark sets on purpose.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Launches `binary catalog` and waits for its "listening on" line.
  /// Returns an empty string on success, else what went wrong.
  std::string Start(const std::string& binary, const std::string& catalog,
                    const std::vector<std::string>& env);
  uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) of the live server, in MiB; <0 if unknown.
  double PeakRssMb() const;

  /// CPU time the server process has used so far, all threads, in ns; <0
  /// if unknown.
  double CpuNs() const;

  /// SIGTERM, then waits for the exit (SIGKILL after 20 s). Returns an empty
  /// string for exit code 0, else the exit status.
  std::string Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

/// One client connection speaking the framed protocol (serve/message.h).
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string Open(uint16_t port);
  /// Sends one protocol line and reads one whole response frame.
  std::string Call(const std::string& line, bool* ok, std::string* payload);
  void Close();

 private:
  int fd_ = -1;
  scalein::serve::FrameDecoder decoder_;
};

/// One fresh server serving a fixed request stream over `connections`
/// closed-loop connections (request i goes to connection i % connections).
struct WireRound {
  double setup_s = 0;     ///< launch -> first hello answered
  double wall_s = 0;      ///< first send -> last response
  double cpu_s = 0;       ///< server CPU time over the same span
  double rss_mb = 0;      ///< server VmHWM after the last response
  std::vector<double> latency_ms;
  uint64_t fetched = 0;
  Tally tally;
};

WireRound RunWireRound(const std::string& server_binary,
                       const std::string& catalog,
                       const std::vector<Request>& stream, int connections,
                       const std::string& access_log_path);

}  // namespace wirebench

#endif  // WIREBENCH_WIRE_H_
