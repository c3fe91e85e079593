// Tests for the HTTP edge: the dependency-free HTTP/1.1 server/client
// pair over real loopback TCP (routing, malformed bytes, the bounded
// 503 backlog) and the Edge's JSON classify protocol wired to a
// serve::Router (happy path, 400/404/405, quota 429).
//
// Note: std::thread is banned outside src/parallel, so concurrency here
// comes from the HttpServer's own accept/handler threads; the test
// thread drives them through blocking client calls and raw sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/streaming.hpp"
#include "http/edge.hpp"
#include "http/http.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "serve/router.hpp"
#include "util/rng.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;

constexpr int kFeatures = 4;
constexpr int kClasses = 6;

std::shared_ptr<engine::EnsembleClassifier> make_dense_ensemble() {
  util::Rng rng(2024);
  auto model = std::make_shared<nn::Sequential>();
  model->emplace<nn::Dense>(kFeatures, kClasses, rng);
  auto frames =
      std::make_shared<engine::NeuralClassifier>(model, kClasses, "dense");
  return std::make_shared<engine::EnsembleClassifier>(
      frames, nullptr, bayes::ClassMap::darnet_default());
}

serve::Router::Snapshot make_snapshot(int shards, std::uint64_t version) {
  serve::Router::Snapshot snapshot;
  snapshot.version = version;
  for (int s = 0; s < shards; ++s) {
    snapshot.replicas.push_back(make_dense_ensemble());
  }
  return snapshot;
}

/// Raw loopback connection for wire-level tests the well-formed client
/// cannot express (garbage bytes, idle connections clogging the
/// backlog). Close() is idempotent.
struct RawConn {
  int fd{-1};
  explicit RawConn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawConn() { close(); }
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  void send(const std::string& bytes) {
    EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  std::string read_all() {
    std::string reply;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      reply.append(chunk, static_cast<std::size_t>(n));
    }
    return reply;
  }
};

std::string frame_json(const Tensor& frame) {
  std::string out = "[";
  for (std::size_t i = 0; i < frame.numel(); ++i) {
    if (i) out += ",";
    out += std::to_string(frame[i]);
  }
  return out + "]";
}

TEST(HttpServer, ServesParsedRequestsOverLoopback) {
  http::HttpServerConfig config;  // port 0: ephemeral
  http::HttpServer server(
      [](const http::Request& request) {
        http::Response response;
        if (request.target == "/echo") {
          response.body = request.method + "|" + request.body + "|" +
                          std::to_string(request.headers.count("host"));
          return response;
        }
        response.status = 404;
        response.body = "{\"error\":\"nope\"}";
        return response;
      },
      config);
  ASSERT_GT(server.port(), 0);

  http::ClientResponse reply =
      http::post("127.0.0.1", server.port(), "/echo", "payload");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "POST|payload|1");  // headers lower-cased

  reply = http::get("127.0.0.1", server.port(), "/echo");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "GET||1");

  reply = http::get("127.0.0.1", server.port(), "/missing");
  EXPECT_EQ(reply.status, 404);

  server.stop();
  const http::HttpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.connections, 3u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.bad_requests, 1u);  // the handler's 404
  EXPECT_EQ(stats.overloaded, 0u);

  // Stopped server: the client reports a transport failure (status 0).
  reply = http::get("127.0.0.1", server.port(), "/echo");
  EXPECT_EQ(reply.status, 0);
}

TEST(HttpServer, MalformedBytesEarnA400) {
  http::HttpServerConfig config;
  http::HttpServer server(
      [](const http::Request&) { return http::Response{}; }, config);

  RawConn garbage(server.port());
  garbage.send("this is not http\r\n\r\n");
  const std::string reply = garbage.read_all();
  EXPECT_NE(reply.find("400"), std::string::npos) << reply;
  garbage.close();

  // EOF before a full head is also malformed, never a hang.
  RawConn eof(server.port());
  ASSERT_EQ(::shutdown(eof.fd, SHUT_WR), 0);
  EXPECT_NE(eof.read_all().find("400"), std::string::npos);
  eof.close();

  // Framing: Content-Length is one run of ASCII digits, no header is given
  // twice, and chunked framing is not spoken. Each request carries a
  // complete body, so a lenient parser would answer 200.
  const std::string head = "POST /x HTTP/1.1\r\n";
  const std::string framing[] = {
      head + "Content-Length: +5\r\n\r\nhello",
      head + "Content-Length: \t5\r\n\r\nhello",
      head + "Content-Length: 5 \r\n\r\nhello",
      head + "Content-Length: 5abc\r\n\r\nhello",
      head + "Content-Length: -1\r\n\r\nhello",
      head + "Content-Length: 0x5\r\n\r\nhello",
      head + "Content-Length: 99999999999999999999999\r\n\r\nhello",
      head + "Content-Length: \r\n\r\nhello",
      head + "Content-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
      head + "Host: a\r\nhost: b\r\nContent-Length: 5\r\n\r\nhello",
      head + "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
  };
  for (const std::string& bytes : framing) {
    RawConn conn(server.port());
    conn.send(bytes);
    ASSERT_EQ(::shutdown(conn.fd, SHUT_WR), 0);
    EXPECT_EQ(conn.read_all().rfind("HTTP/1.1 400 ", 0), 0u) << bytes;
  }

  server.stop();
  EXPECT_GE(server.stats().bad_requests, 2u + std::size(framing));
}

TEST(HttpServer, BoundedBacklogAnswers503Inline) {
  http::HttpServerConfig config;
  config.workers = 1;
  config.pending_capacity = 1;
  http::HttpServer server(
      [](const http::Request&) { return http::Response{}; }, config);

  // Three idle connections against one worker and a one-deep backlog:
  // the worker parks reading the first, the backlog holds one more, and
  // the accept loop must answer the overflow 503 inline -- the bounded
  // admission contract. (Which connection overflows depends on when the
  // worker dequeues, so assert on the counter, not a specific socket.)
  RawConn a(server.port());
  RawConn b(server.port());
  RawConn c(server.port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().overloaded == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().overloaded, 1u);

  a.close();
  b.close();
  c.close();
  server.stop();
}

TEST(HttpEdge, RoutesHealthzMetricsAndErrors) {
  serve::RouterConfig router_config;
  router_config.shards = 2;
  serve::Router router(make_snapshot(2, 1), router_config);
  http::EdgeConfig edge_config;
  edge_config.frame_shape = {1, kFeatures};
  http::Edge edge(router, edge_config);

  http::ClientResponse reply =
      http::get("127.0.0.1", edge.port(), "/healthz");
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"shards\":2"), std::string::npos);
  EXPECT_NE(reply.body.find("\"version\":1"), std::string::npos);

  reply = http::get("127.0.0.1", edge.port(), "/metrics");
  EXPECT_EQ(reply.status, 200);
  // The obs registry JSON carries the documented serving rows (the
  // router sets its shard-count gauge at construction; serve/* counters
  // only appear once a batch is actually served).
  EXPECT_NE(reply.body.find("route/shards"), std::string::npos);

  EXPECT_EQ(http::post("127.0.0.1", edge.port(), "/healthz", "{}").status,
            405);
  EXPECT_EQ(http::get("127.0.0.1", edge.port(), "/classify").status, 405);
  EXPECT_EQ(http::get("127.0.0.1", edge.port(), "/nowhere").status, 404);

  edge.stop();
  router.drain();
}

TEST(HttpEdge, ClassifyMatchesTheStreamingReferenceBitForBit) {
  serve::RouterConfig router_config;
  serve::Router router(make_snapshot(1, 1), router_config);
  http::EdgeConfig edge_config;
  edge_config.frame_shape = {1, kFeatures};
  http::Edge edge(router, edge_config);

  // Reference: the single-threaded stream over the same frames.
  auto ensemble = make_dense_ensemble();
  engine::StreamingClassifier stream(ensemble, engine::StreamingConfig{});
  util::Rng rng(11);
  for (int t = 0; t < 4; ++t) {
    const Tensor frame = Tensor::uniform({1, kFeatures}, 1.0f, rng);
    const engine::StreamingVerdict want = stream.step(frame, Tensor{});
    const std::string body =
        "{\"session\":7,\"frame\":" + frame_json(frame) + "}";
    http::ClientResponse reply =
        http::post("127.0.0.1", edge.port(), "/classify", body);
    EXPECT_EQ(reply.status, 200) << reply.body;
    EXPECT_NE(reply.body.find("\"session\":7"), std::string::npos);
    EXPECT_NE(reply.body.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(reply.body.find("\"class\":" + std::to_string(want.predicted)),
              std::string::npos)
        << reply.body;
  }

  // Body protocol violations are the client's fault: 400, not 500.
  EXPECT_EQ(http::post("127.0.0.1", edge.port(), "/classify",
                       "{\"frame\":[1,2,3,4]}")
                .status,
            400);  // no session
  EXPECT_EQ(http::post("127.0.0.1", edge.port(), "/classify",
                       "{\"session\":1,\"frame\":[1,2]}")
                .status,
            400);  // frame/shape mismatch
  EXPECT_EQ(http::post("127.0.0.1", edge.port(), "/classify", "junk").status,
            400);
  // Hostile floats on the same session: non-finite values, values out of
  // float range, and spellings outside the strict array grammar. Any of
  // them reaching the model would poison the session's smoothed state.
  for (const char* frame :
       {"[nan,2,3,4]", "[1,-nan,3,4]", "[inf,2,3,4]", "[1,2,-inf,4]",
        "[1e39,2,3,4]", "[1,2,3,-1e39]", "[0x1p3,2,3,4]", "[+1,2,3,4]",
        "[1,,2,3,4]", "[1,2,3,4,]", "[1 2,3,4]", "[1,2,3,4", "[,1,2,3,4]"}) {
    EXPECT_EQ(http::post("127.0.0.1", edge.port(), "/classify",
                         std::string("{\"session\":7,\"frame\":") + frame +
                             "}")
                  .status,
              400)
        << frame;
  }
  // Integers are strict too: no sign, fraction, exponent or trailing
  // bytes, and a tenant that is present must be well formed (an absent
  // one is tenant 0).
  for (const char* ids :
       {"\"session\":-1", "\"session\":+7", "\"session\":7.9",
        "\"session\":7abc", "\"session\":1e3",
        "\"session\":7,\"tenant\":-1", "\"session\":7,\"tenant\":2.5",
        "\"session\":7,\"tenant\":x", "\"session\":7,\"tenant\":3x"}) {
    EXPECT_EQ(http::post("127.0.0.1", edge.port(), "/classify",
                         std::string("{") + ids + ",\"frame\":[1,2,3,4]}")
                  .status,
              400)
        << ids;
  }
  EXPECT_EQ(router.stats().routed, 4u);  // the 400s never reached serving

  // JSON whitespace around every element is fine...
  http::ClientResponse padded = http::post(
      "127.0.0.1", edge.port(), "/classify",
      "{\"session\": 7 ,\"tenant\":\t0,"
      "\"frame\": [ 0.25 ,\t-0.5,\r\n1e-3 , 0 ] }");
  EXPECT_EQ(padded.status, 200) << padded.body;
  // ...and the session the hostile frames were aimed at still answers a
  // finite confidence.
  const std::size_t at = padded.body.find("\"confidence\":");
  ASSERT_NE(at, std::string::npos) << padded.body;
  EXPECT_TRUE(std::isfinite(
      std::strtod(padded.body.c_str() + at + sizeof("\"confidence\":") - 1,
                  nullptr)))
      << padded.body;

  edge.stop();
  router.drain();
  EXPECT_EQ(router.stats().routed, 5u);
}

/// Frame model that records the last batch it was asked to classify, so
/// a test can see exactly which floats the edge handed to serving.
struct RecordingClassifier final : engine::ProbabilisticClassifier {
  sync::Mutex mu{"test/recording"};
  Tensor last DARNET_GUARDED_BY(mu);

  Tensor probabilities(const Tensor& inputs) override {
    {
      sync::Lock lock(mu);
      last = inputs;
    }
    Tensor p({inputs.dim(0), kClasses});
    p.fill(1.0f / static_cast<float>(kClasses));
    return p;
  }
  int num_classes() const override { return kClasses; }
  std::string describe() const override { return "recording"; }
};

// The extremes of float, printed the way clients print floats ("%.9g"),
// must reach the model bit for bit: subnormals are not out of range, and
// FLT_MAX's nine-digit spelling rounds back to FLT_MAX, not to infinity.
TEST(HttpEdge, FloatExtremesReachTheModelBitExactly) {
  auto recorder = std::make_shared<RecordingClassifier>();
  serve::Router::Snapshot snapshot;
  snapshot.version = 1;
  snapshot.replicas.push_back(std::make_shared<engine::EnsembleClassifier>(
      recorder, nullptr, bayes::ClassMap::darnet_default()));
  serve::Router router(std::move(snapshot), serve::RouterConfig{});
  http::EdgeConfig edge_config;
  edge_config.frame_shape = {1, kFeatures};
  http::Edge edge(router, edge_config);

  const float sent[kFeatures] = {std::numeric_limits<float>::denorm_min(),
                                 std::numeric_limits<float>::min(),
                                 std::numeric_limits<float>::max(), -0.0f};
  std::string body = "{\"session\":3,\"frame\":[";
  char number[32];
  for (int i = 0; i < kFeatures; ++i) {
    std::snprintf(number, sizeof(number), i == 0 ? "%.9g" : ",%.9g",
                  static_cast<double>(sent[i]));
    body += number;
  }
  body += "]}";
  http::ClientResponse reply =
      http::post("127.0.0.1", edge.port(), "/classify", body);
  ASSERT_EQ(reply.status, 200) << body << " -> " << reply.body;

  edge.stop();
  router.drain();
  sync::Lock lock(recorder->mu);
  ASSERT_EQ(recorder->last.numel(), static_cast<std::size_t>(kFeatures));
  for (int i = 0; i < kFeatures; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(recorder->last[i]),
              std::bit_cast<std::uint32_t>(sent[i]))
        << "element " << i << " of " << body;
  }
}

TEST(HttpEdge, QuotaRejectionMapsTo429) {
  serve::RouterConfig router_config;
  router_config.quotas[3] = serve::TenantQuota{1.0, 0.0};  // 1 shot, no refill
  serve::Router router(make_snapshot(1, 1), router_config);
  http::EdgeConfig edge_config;
  edge_config.frame_shape = {1, kFeatures};
  http::Edge edge(router, edge_config);

  const std::string body =
      "{\"session\":9,\"tenant\":3,\"frame\":[0.1,0.2,0.3,0.4]}";
  EXPECT_EQ(http::post("127.0.0.1", edge.port(), "/classify", body).status,
            200);
  http::ClientResponse clipped =
      http::post("127.0.0.1", edge.port(), "/classify", body);
  EXPECT_EQ(clipped.status, 429);
  EXPECT_NE(clipped.body.find("\"status\":\"rejected\""), std::string::npos)
      << clipped.body;

  edge.stop();
  router.drain();
  EXPECT_EQ(router.stats().quota_rejected, 1u);
}

/// Counting serve::TimeSource frozen at a fixed instant; handler threads
/// read it concurrently, so the call counter is atomic.
struct CountingSource final : serve::TimeSource {
  explicit CountingSource(std::chrono::steady_clock::time_point at)
      : at_(at) {}
  [[nodiscard]] std::chrono::steady_clock::time_point now()
      const noexcept override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return at_;
  }
  mutable std::atomic<std::uint64_t> calls{0};

 private:
  std::chrono::steady_clock::time_point at_;
};

// The per-request latency timer in HttpServer::handle_connection must
// read the injected TimeSource, never std::chrono::steady_clock
// directly (rule time-source-purity: the clock_now() seam is the only
// sanctioned read).
TEST(HttpTimeSource, RequestTimerReadsTheInjectedClock) {
  auto clock = std::make_shared<CountingSource>(
      std::chrono::steady_clock::time_point{std::chrono::hours{1}});
  http::HttpServerConfig config;
  config.time_source = clock;
  http::HttpServer server(
      [](const http::Request&) { return http::Response{}; }, config);
  ASSERT_GT(server.port(), 0);

  EXPECT_EQ(http::get("127.0.0.1", server.port(), "/ping").status, 200);
  server.stop();
  // One read stamps the request start unconditionally; obs-enabled
  // builds read again for the http/request_ns histogram.
  EXPECT_GE(clock->calls.load(), 1u)
      << "request timer bypassed the injected TimeSource";
}

// The Edge stamps classify deadlines from Router::clock_now(), which
// forwards to the shard TimeSource. The fake sits decades past the
// steady epoch while the host's steady clock (uptime-based) is far
// behind it, so a 1 ms deadline discriminates: one hidden wall-clock
// read at the stamping site and the deadline would be decades in the
// triage clock's past, timing out every request.
TEST(HttpEdge, DeadlineStampReadsTheRouterClock) {
  const auto far_future =
      std::chrono::steady_clock::time_point{std::chrono::hours{24 * 3650}};
  ASSERT_LT(std::chrono::steady_clock::now(), far_future)
      << "host steady clock too old for this regression to discriminate";
  auto clock = std::make_shared<CountingSource>(far_future);

  serve::RouterConfig router_config;
  router_config.shard.time_source = clock;
  serve::Router router(make_snapshot(1, 1), router_config);
  http::EdgeConfig edge_config;
  edge_config.frame_shape = {1, kFeatures};
  edge_config.deadline_us = 1000;
  http::Edge edge(router, edge_config);

  const std::string body =
      "{\"session\":5,\"frame\":[0.1,0.2,0.3,0.4]}";
  http::ClientResponse reply =
      http::post("127.0.0.1", edge.port(), "/classify", body);
  EXPECT_EQ(reply.status, 200) << reply.body;
  EXPECT_NE(reply.body.find("\"status\":\"ok\""), std::string::npos)
      << reply.body;
  EXPECT_GT(clock->calls.load(), 0u)
      << "deadline stamp bypassed the router's TimeSource";

  edge.stop();
  router.drain();
  EXPECT_EQ(router.stats().routed, 1u);
}

}  // namespace
