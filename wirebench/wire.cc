#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <thread>

extern char** environ;

namespace wirebench {

namespace {

/// Fetch budget per session: high enough that no request degrades over a
/// run. SessionEnvelope::Refund never returns spent fetches, so the default
/// 100k lease would run dry on a long-lived session.
const char* kSessionBudget = "SCALEIN_SLA_SESSION_BUDGET=1000000000000000";

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) (void)Stop();
}

std::string ServerProcess::Start(const std::string& binary,
                                 const std::string& catalog,
                                 const std::vector<std::string>& env) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SCALEIN_", 8) != 0) env_strings.emplace_back(*e);
  }
  env_strings.insert(env_strings.end(), env.begin(), env.end());
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::string bin = binary;
  std::string cat = catalog;
  char* argv[] = {bin.data(), cat.data(), nullptr};

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return "pipe: " + std::string(strerror(errno));
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return "fork: " + std::string(strerror(errno));
  }
  if (pid == 0) {
    // The server must not outlive a driver that dies without Stop().
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execve(argv[0], argv, envp.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];

  // The server prints "listening on 127.0.0.1:<port>" once the catalog is
  // loaded and the port is bound.
  std::string out;
  const std::string marker = "listening on 127.0.0.1:";
  for (;;) {
    const size_t at = out.find(marker);
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::strtoul(out.c_str() + at + marker.size(), nullptr, 10));
      return std::string();
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 120000) <= 0) return "server did not start in 120 s";
    char chunk[512];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n <= 0) return "server exited before listening: " + Stop();
    out.append(chunk, static_cast<size_t>(n));
  }
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

double ServerProcess::CpuNs() const {
  clockid_t clock;
  timespec ts{};
  if (::clock_getcpuclockid(pid_, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    return -1.0;
  }
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

std::string ServerProcess::Stop() {
  if (pid_ <= 0) return std::string();
  ::kill(pid_, SIGTERM);
  int status = 0;
  pid_t done = 0;
  for (int i = 0; i < 2000 && done == 0; ++i) {
    done = ::waitpid(pid_, &status, WNOHANG);
    if (done == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  if (done == 0) return "did not exit within 20 s of SIGTERM";
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return std::string();
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  return "signal " + std::to_string(WTERMSIG(status));
}

Connection::~Connection() { Close(); }

std::string Connection::Open(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return "socket: " + std::string(strerror(errno));
  int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return "connect: " + std::string(strerror(errno));
  }
  return std::string();
}

std::string Connection::Call(const std::string& line, bool* ok,
                             std::string* payload) {
  const std::string wire = line + "\n";
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t w =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) return "send: " + std::string(strerror(errno));
    sent += static_cast<size_t>(w);
  }
  char chunk[16384];
  while (!decoder_.Next(ok, payload)) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return "disconnected";
    decoder_.Feed(std::string_view(chunk, static_cast<size_t>(n)));
  }
  return std::string();
}

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

namespace {

struct Lane {
  std::vector<double> latency_ms;
  uint64_t fetched = 0;
  Tally tally;
};

void DriveLane(Connection* conn, const std::vector<Request>& stream,
               size_t first, size_t step, Lane* lane) {
  bool ok = false;
  std::string body;
  for (size_t i = first; i < stream.size(); i += step) {
    const Request& req = stream[i];
    const uint64_t t0 = NowNs();
    const std::string err = conn->Call(req.line, &ok, &body);
    const uint64_t t1 = NowNs();
    if (!err.empty()) {
      // The connection is gone: every request it still owed fails.
      for (; i < stream.size(); i += step) lane->tally.Fail(err);
      return;
    }
    if (!ok) {
      lane->tally.Fail("error frame: " + body);
      continue;
    }
    const EvalReply reply = ParseEvalReply(body);
    if (!reply.admitted || reply.partial) {
      lane->tally.Fail("not a full admit: " + body.substr(0, body.find('\n')));
    } else if (reply.answers != static_cast<int64_t>(req.expected)) {
      lane->tally.Fail("answers " + std::to_string(reply.answers) +
                       " != expected " + std::to_string(req.expected) +
                       " for '" + req.line + "'");
    } else {
      lane->tally.Ok();
      lane->fetched += static_cast<uint64_t>(reply.fetched);
      lane->latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
  }
}

}  // namespace

WireRound RunWireRound(const std::string& server_binary,
                       const std::string& catalog,
                       const std::vector<Request>& stream, int connections,
                       const std::string& access_log_path) {
  WireRound round;
  std::vector<std::string> env = {kSessionBudget, "SCALEIN_SERVE_PORT=0"};
  if (!access_log_path.empty()) {
    env.push_back("SCALEIN_ACCESS_LOG_PATH=" + access_log_path);
    // No rotation within a round: every record is read back.
    env.push_back("SCALEIN_ACCESS_LOG_MAX_BYTES=4294967296");
  }
  ServerProcess server;
  const uint64_t launch_ns = NowNs();
  if (std::string err = server.Start(server_binary, catalog, env);
      !err.empty()) {
    round.tally.Broken(err);
    return round;
  }
  // Connections open once per round: the port never reaps connection
  // threads, so reconnecting per request would grow the server.
  std::vector<std::unique_ptr<Connection>> conns;
  bool ok = false;
  std::string body;
  for (int c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<Connection>());
    std::string err = conns.back()->Open(server.port());
    if (err.empty()) err = conns.back()->Call("hello", &ok, &body);
    if (err.empty() && !ok) err = "hello refused: " + body;
    if (!err.empty()) {
      round.tally.Broken(err);
      (void)server.Stop();
      return round;
    }
    if (c == 0) round.setup_s = static_cast<double>(NowNs() - launch_ns) / 1e9;
  }

  std::vector<Lane> lanes(static_cast<size_t>(connections));
  const double cpu_start_ns = server.CpuNs();
  const uint64_t start_ns = NowNs();
  if (connections == 1) {
    DriveLane(conns[0].get(), stream, 0, 1, &lanes[0]);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back(DriveLane, conns[c].get(), std::cref(stream),
                           static_cast<size_t>(c),
                           static_cast<size_t>(connections), &lanes[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  round.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  round.cpu_s = (server.CpuNs() - cpu_start_ns) / 1e9;
  for (const Lane& lane : lanes) {
    round.latency_ms.insert(round.latency_ms.end(), lane.latency_ms.begin(),
                            lane.latency_ms.end());
    round.fetched += lane.fetched;
    round.tally.Merge(lane.tally);
  }

  // Read the bye frame before closing: closing with unread responses kills
  // the server with SIGPIPE.
  for (auto& conn : conns) {
    if (std::string err = conn->Call("bye", &ok, &body); !err.empty()) {
      round.tally.Broken("bye: " + err);
    }
    conn->Close();
  }
  round.rss_mb = server.PeakRssMb();
  if (std::string err = server.Stop(); !err.empty()) {
    round.tally.Broken("server " + err);
  }
  return round;
}

}  // namespace wirebench
