// Tests for the benchmark's own arithmetic and client: span self time with
// nested and overlapping children, percentile and sample-count reporting,
// and the keep-alive client's reconnect path against a stub listener.
// Run by perfbench/run.py before every benchmark run (and by ctest in the
// perfbench build directory); exits non-zero on any failed check.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "http_client.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                 \
      ++g_failures;                                                        \
    }                                                                      \
  } while (0)

using perfbench::Span;

Span span(std::int64_t start, std::int64_t end, std::uint64_t id = 0,
          std::uint64_t parent = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_time() {
  const Span parent = span(0, 100);
  // No children: all of it is self time.
  CHECK(perfbench::self_ns(parent, {}) == 100);
  // Sequential nested children.
  const std::vector<Span> nested = {span(10, 20), span(30, 50)};
  CHECK(perfbench::covered_ns(parent, nested) == 30);
  CHECK(perfbench::self_ns(parent, nested) == 70);
  // Overlapping children (concurrent threads) count their union once, in
  // any input order.
  const std::vector<Span> overlapping = {span(55, 70), span(10, 40), span(30, 60)};
  CHECK(perfbench::covered_ns(parent, overlapping) == 60);
  CHECK(perfbench::self_ns(parent, overlapping) == 40);
  // A child inside another child adds nothing.
  const std::vector<Span> contained = {span(10, 50), span(20, 30)};
  CHECK(perfbench::self_ns(parent, contained) == 60);
  // Touching intervals merge without a gap or double count.
  const std::vector<Span> touching = {span(10, 20), span(20, 30)};
  CHECK(perfbench::covered_ns(parent, touching) == 20);
  // Children reaching outside the parent are clipped to it; one wholly
  // outside covers nothing.
  const std::vector<Span> outside = {span(-10, 20), span(90, 120), span(150, 160)};
  CHECK(perfbench::covered_ns(parent, outside) == 30);
  CHECK(perfbench::self_ns(parent, outside) == 70);
}

void test_lanes() {
  perfbench::Tracer tracer(2);
  perfbench::SpanLane& a = tracer.lane(0);
  perfbench::SpanLane& b = tracer.lane(1);
  std::uint64_t root = 0;
  {
    perfbench::ScopedSpan outer(&a, "root", 0, 7);
    root = outer.id();
    perfbench::ScopedSpan inner(&a, "child", outer.id(), 7);
    a.record("measured", outer.id(), 7, 5, 9);
  }
  b.record("other", 0, 8, 1, 2);
  const std::vector<Span> spans = tracer.collect();
  CHECK(spans.size() == 4);
  // Ids are unique across lanes and never 0.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    CHECK(spans[i].id != 0);
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      CHECK(spans[i].id != spans[j].id);
    }
  }
  const auto children = perfbench::children_by_parent(spans);
  CHECK(children.count(root) == 1 && children.at(root).size() == 2);
  CHECK(spans[0].end_ns >= spans[1].end_ns);  // outer closes last
  CHECK(tracer.durations_us("measured").size() == 1);
  CHECK(tracer.durations_us("measured")[0] == 4.0 / 1e3);
  // A null lane records nothing.
  { perfbench::ScopedSpan none(nullptr, "ignored"); CHECK(none.id() == 0); }
}

void test_percentiles() {
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);  // unsorted input
  const perfbench::Summary s = perfbench::summarize(ten);
  CHECK(s.n == 10);
  CHECK(s.p50 == 5.0);
  CHECK(s.p90 == 9.0);
  CHECK(s.p99 == 10.0);
  CHECK(s.max == 10.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  CHECK(perfbench::percentile_sorted(hundred, 0.99) == 99.0);
  CHECK(perfbench::percentile_sorted(hundred, 0.90) == 90.0);
  CHECK(perfbench::percentile_sorted({42.0}, 0.5) == 42.0);
  CHECK(perfbench::summarize({}).n == 0);
  CHECK(perfbench::summarize({}).p50 == 0.0);
  CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);

  // Reportable percentile: at least ten samples above it.
  CHECK(perfbench::highest_reportable_percentile(0) == 0.0);
  CHECK(perfbench::highest_reportable_percentile(19) == 0.0);
  CHECK(perfbench::highest_reportable_percentile(20) == 50.0);
  CHECK(perfbench::highest_reportable_percentile(99) == 50.0);
  CHECK(perfbench::highest_reportable_percentile(100) == 90.0);
  CHECK(perfbench::highest_reportable_percentile(999) == 90.0);
  CHECK(perfbench::highest_reportable_percentile(1000) == 99.0);
  CHECK(perfbench::highest_reportable_percentile(10000) == 99.9);
}

/// One scripted answer of the stub listener.
struct Scripted {
  int status;
  std::string body;
  bool close_header;  ///< send "Connection: close"
  bool close_after;   ///< close the socket after this answer
  bool split;         ///< send the body in two writes
};

/// Loopback listener that answers requests from a script, connection after
/// connection, and counts the connections it accepted.
class StubListener {
 public:
  explicit StubListener(std::vector<Scripted> script) : script_(std::move(script)) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    listen(fd_, 4);
    socklen_t len = sizeof(addr);
    getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~StubListener() {
    // Unblocks accept() if a failed check left the script unfinished.
    shutdown(fd_, SHUT_RDWR);
    thread_.join();
    close(fd_);
  }
  StubListener(const StubListener&) = delete;
  StubListener& operator=(const StubListener&) = delete;

  std::uint16_t port() const { return port_; }
  int accepted() const { return accepted_.load(); }

 private:
  /// Read one request (head + Content-Length body); false on EOF.
  static bool read_request(int conn, std::string& pending) {
    char buf[4096];
    std::size_t head_end;
    while ((head_end = pending.find("\r\n\r\n")) == std::string::npos) {
      const ssize_t n = recv(conn, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      pending.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t length = 0;
    const std::size_t at = pending.find("Content-Length: ");
    if (at != std::string::npos && at < head_end) {
      length = std::stoul(pending.substr(at + 16));
    }
    while (pending.size() < head_end + 4 + length) {
      const ssize_t n = recv(conn, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      pending.append(buf, static_cast<std::size_t>(n));
    }
    pending.erase(0, head_end + 4 + length);
    return true;
  }

  void serve() {
    std::size_t next = 0;
    while (next < script_.size()) {
      const int conn = accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      ++accepted_;
      std::string pending;
      while (next < script_.size() && read_request(conn, pending)) {
        const Scripted& answer = script_[next++];
        std::string head = "HTTP/1.1 " + std::to_string(answer.status) +
                           " X\r\nContent-Type: application/json\r\n"
                           "Content-Length: " +
                           std::to_string(answer.body.size()) + "\r\n";
        if (answer.close_header) head += "Connection: close\r\n";
        head += "\r\n";
        if (answer.split) {
          const std::size_t half = answer.body.size() / 2;
          const std::string first = head + answer.body.substr(0, half);
          send(conn, first.data(), first.size(), MSG_NOSIGNAL);
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          send(conn, answer.body.data() + half, answer.body.size() - half,
               MSG_NOSIGNAL);
        } else {
          const std::string all = head + answer.body;
          send(conn, all.data(), all.size(), MSG_NOSIGNAL);
        }
        if (answer.close_after) break;
      }
      close(conn);
    }
  }

  std::vector<Scripted> script_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<int> accepted_{0};
  std::thread thread_;
};

void test_keep_alive_client() {
  // 1-2 reuse one connection; 3 says close (reconnect for 4); 4 is closed
  // by the server without a header (idle close: 5 retries on a fresh
  // connection); 6 arrives in two writes.
  std::vector<Scripted> script = {
      {200, "{\"n\": 1}", false, false, false},
      {200, "{\"n\": 2}", false, false, false},
      {404, "{\"n\": 3}", true, true, false},
      {200, "{\"n\": 4}", false, true, false},
      {200, "{\"n\": 5}", false, false, false},
      {200, "{\"n\": 6, \"pad\": \"xxxxxxxxxxxxxxxxxxxxxxxx\"}", false, true, true},
  };
  std::vector<std::string> bodies;
  for (const Scripted& s : script) bodies.push_back(s.body);
  {
    StubListener stub(std::move(script));
    perfbench::HttpClient client(stub.port());
    perfbench::HttpReply reply;
    const std::uint64_t expected_connects[] = {1, 1, 1, 2, 3, 3};
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      CHECK(client.post("/v1/attack", "{}", reply));
      CHECK(reply.body == bodies[i]);
      CHECK(reply.status == (i == 2 ? 404 : 200));
      CHECK(reply.close == (i == 2));
      CHECK(client.connects() == expected_connects[i]);
    }
    CHECK(stub.accepted() == 3);
  }
}

void test_refused() {
  // Nothing listens on the port a closed listener had: post() fails and
  // still counts its connect attempt.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  close(fd);
  perfbench::HttpClient client(ntohs(addr.sin_port));
  perfbench::HttpReply reply;
  CHECK(!client.post("/v1/attack", "{}", reply));
  CHECK(client.connects() == 1);
}

}  // namespace

int main() {
  test_self_time();
  test_lanes();
  test_percentiles();
  test_keep_alive_client();
  test_refused();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
