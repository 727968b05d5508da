#include "serve/metrics_http.h"

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <utility>

#include "serve/message.h"

namespace scalein::serve {

MetricsHttp::MetricsHttp(obs::MetricsRegistry* registry,
                         std::function<bool()> draining, Options options)
    : registry_(registry),
      draining_(std::move(draining)),
      listener_({options.port, /*backlog=*/16, "serve_http"}, registry,
                [this](int fd, uint64_t) { Serve(fd); }) {}

namespace {

/// Minimal HTTP response; `body` ships verbatim with Content-Length so
/// curl and Prometheus both terminate cleanly despite Connection: close.
std::string HttpResponse(const char* status_line, const char* content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += status_line;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

void MetricsHttp::Serve(int fd) {
  // Read until the header terminator (or the client stops sending); only
  // the request line matters, but draining the headers keeps clients that
  // wait for us to read them from deadlocking against our write.
  std::string request;
  char chunk[2048];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos &&
         request.size() < kMaxLineBytes) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    request.append(chunk, static_cast<size_t>(n));
    if (request.find('\n') != std::string::npos &&
        request.compare(0, 4, "GET ") != 0) {
      break;  // not a GET; no point waiting for more headers
    }
  }
  std::string response;
  const size_t line_end = request.find('\n');
  std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  // "GET <path> HTTP/1.x" — tolerate a missing version (HTTP/0.9-style).
  std::string path;
  if (line.compare(0, 4, "GET ") == 0) {
    path = line.substr(4);
    const size_t sp = path.find(' ');
    if (sp != std::string::npos) path.resize(sp);
  }
  if (path == "/metrics") {
    response = HttpResponse("200 OK", "text/plain; version=0.0.4",
                            registry_->ToPrometheusText());
  } else if (path == "/healthz") {
    const bool draining = draining_ != nullptr && draining_();
    response = draining ? HttpResponse("503 Service Unavailable",
                                       "text/plain", "draining\n")
                        : HttpResponse("200 OK", "text/plain", "ok\n");
  } else if (!path.empty()) {
    response = HttpResponse("404 Not Found", "text/plain", "not found\n");
  } else {
    response = HttpResponse("400 Bad Request", "text/plain", "bad request\n");
  }
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  registry_->GetCounter("serve.scrapes").Increment();
  size_t written = 0;
  while (written < response.size()) {
    // MSG_NOSIGNAL: a scraper that hung up costs only its own connection.
    const ssize_t w = ::send(fd, response.data() + written,
                             response.size() - written, MSG_NOSIGNAL);
    if (w <= 0) break;
    written += static_cast<size_t>(w);
  }
}

}  // namespace scalein::serve
