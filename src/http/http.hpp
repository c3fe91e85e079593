// darnet::http -- a minimal, dependency-free HTTP/1.1 server and client
// over POSIX sockets. This is the wire protocol in front of the serving
// tier (ROADMAP item 3): just enough HTTP to expose POST /classify,
// GET /metrics and GET /healthz to a load balancer, and a tiny blocking
// client so tests and tools/ci/check.sh can exercise the edge over real
// loopback TCP without curl.
//
// Scope is deliberately small: request line + headers + Content-Length
// bodies, `Connection: close` semantics (one request per connection),
// no TLS, no chunked transfer, no pipelining. Anything outside that
// subset earns a 400. The server is an accept loop on a
// parallel::ServiceThread feeding a bounded queue of accepted sockets
// to a small pool of handler ServiceThreads; when the queue is full the
// accept loop answers 503 inline and closes -- overload never grows an
// unbounded backlog (the same bounded-admission posture as
// serve::Server).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "parallel/pool.hpp"
#include "serve/serve.hpp"
#include "sync/sync.hpp"

namespace darnet::http {

/// One parsed request. Header names are lower-cased on parse.
struct Request {
  std::string method;
  std::string target;
  std::string body;
  std::map<std::string, std::string> headers;
};

/// What a handler returns; serialised with Content-Length and
/// Connection: close.
struct Response {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// The application hook: called on a handler thread per request. Must be
/// thread-safe (the pool invokes it concurrently).
using Handler = std::function<Response(const Request&)>;

struct HttpServerConfig {
  /// TCP port to bind (loopback). 0 picks an ephemeral port; read it
  /// back via HttpServer::port().
  std::uint16_t port = 0;
  /// Handler threads. Requests that block on inference futures hold one
  /// each, so size this to the acceptable in-flight request count.
  int workers = 2;
  /// Accepted-socket queue bound; beyond it the accept loop answers 503.
  std::size_t pending_capacity = 64;
  /// Largest accepted request (head + body) in bytes; beyond it, 400.
  std::size_t max_request_bytes = 1u << 20;
  /// Clock for request-latency accounting. Null means
  /// std::chrono::steady_clock. Only tests/test_http.cpp sets it, to a
  /// virtual-time source that makes the HTTP tier's time math
  /// test-drivable (the same seam as serve::ShardConfig::time_source);
  /// src/sim builds no HttpServer.
  std::shared_ptr<const serve::TimeSource> time_source;
};

/// The embedded server. Binds and starts serving in the constructor;
/// stop() (idempotent, also run by the destructor) closes the listener,
/// drains queued connections and joins every thread.
class HttpServer {
 public:
  HttpServer(Handler handler, HttpServerConfig config);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (resolves ephemeral port 0 to the real one).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  void stop();

  /// Aggregate counters (consistent snapshot).
  struct Stats {
    std::uint64_t connections{0};
    std::uint64_t requests{0};
    std::uint64_t bad_requests{0};
    std::uint64_t overloaded{0};
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Listener {
    int fd{-1};
  };

  void accept_loop();
  void handler_loop();
  void handle_connection(int fd);
  [[nodiscard]] std::chrono::steady_clock::time_point clock_now()
      const noexcept;

  const Handler handler_;
  const HttpServerConfig config_;
  // Bound before any thread starts; the fd value never changes (stop()
  // shutdown()s it to unblock the accept loop, exactly once).
  const Listener listener_;
  const std::uint16_t port_;

  mutable sync::Mutex mu_{"http/server"};
  sync::CondVar conn_cv_;
  // Accepted sockets awaiting a handler; bounded by pending_capacity
  // (the accept loop answers 503 instead of pushing past it).
  std::deque<int> pending_ DARNET_GUARDED_BY(mu_);
  bool stopping_ DARNET_GUARDED_BY(mu_){false};
  Stats stats_ DARNET_GUARDED_BY(mu_);

  // Claimed (swapped out) under mu_ by the first stop(), joined with no
  // lock held -- the serve::Server drain idiom.
  parallel::ServiceThread acceptor_ DARNET_GUARDED_BY(mu_);
  std::vector<parallel::ServiceThread> workers_ DARNET_GUARDED_BY(mu_);
};

/// Minimal blocking loopback client: one request per call, Connection:
/// close. `status` is 0 when the transport itself failed (connect/read).
struct ClientResponse {
  int status{0};
  std::string body;
};
[[nodiscard]] ClientResponse request(const std::string& host,
                                     std::uint16_t port,
                                     const std::string& method,
                                     const std::string& target,
                                     const std::string& body = {});
[[nodiscard]] ClientResponse get(const std::string& host, std::uint16_t port,
                                 const std::string& target);
[[nodiscard]] ClientResponse post(const std::string& host,
                                  std::uint16_t port,
                                  const std::string& target,
                                  const std::string& body);

}  // namespace darnet::http
