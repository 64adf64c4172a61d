#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>

namespace perfbench {
namespace {

/// Receive timeout per recv(): a wedged server fails the request instead of
/// hanging the run.
constexpr int kRecvTimeoutSeconds = 10;

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    char x = a[i];
    char y = b[i];
    if (x >= 'A' && x <= 'Z') x = static_cast<char>(x - 'A' + 'a');
    if (y >= 'A' && y <= 'Z') y = static_cast<char>(y - 'A' + 'a');
    if (x != y) return false;
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

}  // namespace

bool HttpClient::connect_fresh() {
  disconnect();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  ++connects_;
  const int one = 1;
  (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = kRecvTimeoutSeconds;
  (void)setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    disconnect();
    return false;
  }
  return true;
}

void HttpClient::disconnect() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpClient::fill() {
  char chunk[16384];
  for (;;) {
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool HttpClient::exchange(const std::string& request, HttpReply& out,
                          bool& nothing_received) {
  nothing_received = true;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd_, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }

  std::size_t head_end = std::string::npos;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return false;
    nothing_received = false;
  }
  nothing_received = false;
  const std::string_view head(buffer_.data(), head_end);

  // Status line: "HTTP/1.x NNN reason".
  if (head.size() < 12 || head.substr(0, 7) != "HTTP/1.") return false;
  int status = 0;
  const auto [ptr, ec] =
      std::from_chars(head.data() + 9, head.data() + 12, status);
  if (ec != std::errc() || ptr != head.data() + 12) return false;

  bool have_length = false;
  std::size_t length = 0;
  bool close_requested = head.substr(0, 8) == "HTTP/1.0";
  std::size_t line_start = head.find("\r\n");
  while (line_start != std::string_view::npos) {
    line_start += 2;
    const std::size_t line_end = head.find("\r\n", line_start);
    const std::string_view line = head.substr(
        line_start, line_end == std::string_view::npos ? std::string_view::npos
                                                       : line_end - line_start);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      const std::string_view name = trim(line.substr(0, colon));
      const std::string_view value = trim(line.substr(colon + 1));
      if (iequals(name, "Content-Length")) {
        const auto [end, err] =
            std::from_chars(value.data(), value.data() + value.size(), length);
        if (err != std::errc() || end != value.data() + value.size()) {
          return false;
        }
        have_length = true;
      } else if (iequals(name, "Connection")) {
        close_requested = iequals(value, "close");
      }
    }
    line_start = line_end;
  }
  if (!have_length) return false;

  const std::size_t body_start = head_end + 4;
  while (buffer_.size() - body_start < length) {
    if (!fill()) return false;
  }
  out.status = status;
  out.body.assign(buffer_, body_start, length);
  out.close = close_requested;
  buffer_.erase(0, body_start + length);
  return true;
}

bool HttpClient::post(std::string_view target, std::string_view body,
                      HttpReply& out) {
  std::string request;
  request.reserve(target.size() + body.size() + 96);
  request += "POST ";
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
             "Content-Length: ";
  request += std::to_string(body.size());
  request += "\r\n\r\n";
  request += body;

  const bool reused = fd_ >= 0;
  if (!reused && !connect_fresh()) return false;
  bool nothing_received = false;
  bool ok = exchange(request, out, nothing_received);
  if (!ok && reused && nothing_received) {
    // The server closed the idle connection before this request reached
    // it; one retry on a fresh connection is safe because nothing was
    // answered.
    ok = connect_fresh() && exchange(request, out, nothing_received);
  }
  if (!ok || out.close) disconnect();
  return ok;
}

}  // namespace perfbench
