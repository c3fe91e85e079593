// darnet::http::Edge -- the classify/metrics/health surface of the HTTP
// edge: route dispatch plus the (deliberately tiny) JSON body protocol.
//
//   POST /classify   {"session":7,"tenant":1,"frame":[...],"imu":[...]}
//                    -> 200 {"session":7,"status":"ok","class":3,
//                            "alert":false,"degraded":false,
//                            "latency_us":184,"version":1}
//                    `frame`/`imu` are flat row-major float arrays whose
//                    lengths must match the configured tensor shapes;
//                    `tenant` and `imu` are optional (default tenant 0 /
//                    zero window). `session` and `tenant` are unsigned
//                    decimal integers: a sign, fraction, exponent or
//                    trailing byte is a 400. A quota rejection maps to
//                    HTTP 429 and shed/timeout to 503, with "status"
//                    naming the verdict.
//   GET  /metrics    -> 200, the process-wide obs registry as JSON
//                    (docs/OBSERVABILITY.md names every row).
//   GET  /healthz    -> 200 {"status":"ok","shards":N,"version":V}
//
// The Edge borrows the Router: construct the router first, stop() the
// edge before draining the router (handler threads may be parked on
// inference futures, which drain resolves).
#pragma once

#include <cstdint>
#include <vector>

#include "http/http.hpp"
#include "serve/router.hpp"

namespace darnet::http {

struct EdgeConfig {
  HttpServerConfig http;
  /// Expected single-request tensor shapes (leading batch dim 1), e.g.
  /// {1, 16} frames and {1, 8, 3} IMU windows for the synthetic fleet
  /// ensemble.
  std::vector<int> frame_shape{1, 16};
  std::vector<int> imu_shape{1, 8, 3};
  /// Per-request deadline budget; <= 0 serves without a deadline.
  std::int64_t deadline_us = 0;
};

class Edge {
 public:
  /// `router` must outlive this Edge (and be drained only after stop()).
  Edge(serve::Router& router, EdgeConfig config);

  [[nodiscard]] std::uint16_t port() const noexcept {
    return server_.port();
  }
  void stop() { server_.stop(); }
  [[nodiscard]] HttpServer::Stats http_stats() const {
    return server_.stats();
  }

 private:
  [[nodiscard]] Response handle(const Request& request);
  [[nodiscard]] Response handle_classify(const Request& request);

  serve::Router& router_;
  const EdgeConfig config_;
  HttpServer server_;  // last member: its threads call handle()
};

}  // namespace darnet::http
