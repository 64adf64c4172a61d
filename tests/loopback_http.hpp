// Minimal blocking HTTP/1.1 client for the loopback server tests (serve,
// campaign jobs, access log, concurrency stress). One request per
// connection ("Connection: close"); a failed socket or connect comes back as
// status 0, which the drain tests treat as an acceptable outcome.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <string>

namespace bgpsim::loopback {

struct ClientResponse {
  int status = 0;
  std::string head;  ///< status line + response headers
  std::string body;

  /// Case-insensitive response-header lookup ("" when absent).
  std::string header(const std::string& name) const {
    std::string lower_head = head;
    for (char& c : lower_head) c = static_cast<char>(std::tolower(c));
    std::string needle = "\r\n" + name + ":";
    for (char& c : needle) c = static_cast<char>(std::tolower(c));
    const std::size_t at = lower_head.find(needle);
    if (at == std::string::npos) return {};
    std::size_t begin = at + needle.size();
    std::size_t end = head.find("\r\n", begin);
    if (end == std::string::npos) end = head.size();
    while (begin < end && head[begin] == ' ') ++begin;
    while (end > begin && head[end - 1] == ' ') --end;
    return head.substr(begin, end - begin);
  }
};

/// `headers` must be complete CRLF-terminated lines.
inline ClientResponse http_request(std::uint16_t port, const std::string& method,
                                   const std::string& target,
                                   const std::string& body = std::string(),
                                   const std::string& headers = std::string()) {
  ClientResponse out;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return out;
  }
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  if (!body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += headers;
  request += "Connection: close\r\n\r\n" + body;
  (void)send(fd, request.data(), request.size(), 0);

  std::string raw;
  char buf[8192];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);

  if (raw.rfind("HTTP/1.1 ", 0) == 0 && raw.size() > 12) {
    out.status = std::stoi(raw.substr(9, 3));
  }
  const std::size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) {
    out.head = raw.substr(0, split);
    out.body = raw.substr(split + 4);
  }
  return out;
}

}  // namespace bgpsim::loopback
