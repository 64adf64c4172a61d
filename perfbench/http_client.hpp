// Blocking loopback HTTP/1.1 client with keep-alive.
//
// Reads each response by its Content-Length and keeps the connection for
// the next request unless the response carries `Connection: close` (which
// the query server sends on every response today). Connects are counted,
// so a server that starts keeping connections alive shows up as fewer
// connects per request without any change here.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;
  bool close = false;  ///< the server asked to close the connection
};

class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) : port_(port) {}
  ~HttpClient() { disconnect(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One POST with a JSON body. Returns false on any transport failure
  /// (connect, send, receive, timeout or an unparseable response); the
  /// connection is then dropped and the next call reconnects. A reused
  /// connection that the server closed while idle is retried once on a
  /// fresh connection.
  bool post(std::string_view target, std::string_view body, HttpReply& out);

  std::uint64_t connects() const { return connects_; }

 private:
  bool connect_fresh();
  void disconnect();
  /// Send one request on the open connection and read its reply.
  /// `nothing_received` tells a peer that closed before answering apart
  /// from a failure midway through a reply.
  bool exchange(const std::string& request, HttpReply& out,
                bool& nothing_received);
  /// recv() more bytes into buffer_; false on EOF, error or timeout.
  bool fill();

  std::uint16_t port_;
  int fd_ = -1;
  std::string buffer_;  ///< received bytes not yet consumed
  std::uint64_t connects_ = 0;
};

}  // namespace perfbench
