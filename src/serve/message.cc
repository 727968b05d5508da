#include "serve/message.h"

#include <cstdio>

#include "util/strings.h"

namespace scalein::serve {

std::string EncodeFrame(bool ok, std::string_view payload) {
  char head[32];
  const int n = std::snprintf(head, sizeof(head), "%c%zu\n", ok ? '+' : '-',
                              payload.size());
  std::string out(head, static_cast<size_t>(n));
  out.append(payload);
  return out;
}

void FrameDecoder::Feed(std::string_view bytes) { buf_.append(bytes); }

bool FrameDecoder::Next(bool* ok, std::string* payload) {
  if (corrupt_) return false;
  if (buf_.empty()) return false;
  const char kind = buf_[0];
  if (kind != '+' && kind != '-') {
    corrupt_ = true;
    *ok = false;
    *payload = "frame error: expected '+' or '-' prefix";
    return true;
  }
  const size_t nl = buf_.find('\n');
  if (nl == std::string::npos) return false;
  const Result<uint64_t> len =
      ParseInteger<uint64_t>(std::string_view(buf_).substr(1, nl - 1));
  if (!len.ok()) {
    corrupt_ = true;
    *ok = false;
    *payload = "frame error: bad length: " + len.status().message();
    return true;
  }
  // nl < buf_.size(), so the subtraction cannot wrap; a huge length waits.
  if (buf_.size() - (nl + 1) < *len) return false;
  *ok = kind == '+';
  payload->assign(buf_, nl + 1, *len);
  buf_.erase(0, nl + 1 + *len);
  return true;
}

}  // namespace scalein::serve
