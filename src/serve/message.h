#ifndef SCALEIN_SERVE_MESSAGE_H_
#define SCALEIN_SERVE_MESSAGE_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace scalein::serve {

/// Wire protocol of the serve port (serve/port.h). Requests travel client →
/// server as newline-terminated text lines (exactly the Server::HandleLine
/// grammar). Responses travel server → client as length-prefixed frames:
///
///   (+|-)<decimal-length>\n<length payload bytes>
///
/// '+' prefixes a successful response body, '-' an error message (the
/// Status text of a refused protocol line — admission rejects are *not*
/// errors; they arrive as '+' frames whose body carries the structured
/// reject verdict and retry-after hint). Length-prefixing keeps multi-line
/// response bodies (answer sets, stats output) unambiguous on a stream.
std::string EncodeFrame(bool ok, std::string_view payload);

/// The most a peer may send without a newline: a protocol line on the serve
/// port, or an HTTP request head on the metrics port. Past it the port
/// answers with one error frame and closes that connection, so a client
/// cannot grow the server's memory without bound.
inline constexpr size_t kMaxLineBytes = 64 * 1024;

/// Incremental frame parser for the client side: Feed() arbitrary received
/// chunks, then drain complete frames with Next(). Malformed input (no
/// leading +/-, non-digit length) surfaces as an error frame so a confused
/// peer fails loudly instead of stalling.
class FrameDecoder {
 public:
  void Feed(std::string_view bytes);

  /// Pops the next complete frame into (*ok, *payload); returns false when
  /// more bytes are needed.
  bool Next(bool* ok, std::string* payload);

 private:
  std::string buf_;
  bool corrupt_ = false;
};

}  // namespace scalein::serve

#endif  // SCALEIN_SERVE_MESSAGE_H_
