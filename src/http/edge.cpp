#include "http/edge.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace darnet::http {

namespace {

using tensor::Tensor;

/// Locates `"key"` at top level and returns the offset just past the
/// following ':', or npos. Tolerant of whitespace, not of nesting -- the
/// classify body is flat by contract.
[[nodiscard]] std::size_t value_offset(const std::string& body,
                                       const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  std::size_t pos = body.find(quoted);
  if (pos == std::string::npos) return std::string::npos;
  pos = body.find(':', pos + quoted.size());
  if (pos == std::string::npos) return std::string::npos;
  return pos + 1;
}

/// Advances past JSON whitespace.
[[nodiscard]] const char* skip_space(const char* cursor, const char* end) {
  while (cursor < end && (*cursor == ' ' || *cursor == '\t' ||
                          *cursor == '\n' || *cursor == '\r')) {
    ++cursor;
  }
  return cursor;
}

/// Parses the unsigned decimal integer after `key`: digits only (no sign,
/// fraction or exponent), JSON whitespace around them, then `,` or `}`.
/// Returns false on absent key, malformed number or out-of-range value.
[[nodiscard]] bool parse_u64(const std::string& body, const std::string& key,
                             std::uint64_t& out) {
  const std::size_t pos = value_offset(body, key);
  if (pos == std::string::npos) return false;
  const char* const end = body.data() + body.size();
  std::uint64_t value = 0;
  const auto [next, ec] =
      std::from_chars(skip_space(body.data() + pos, end), end, value);
  if (ec != std::errc{}) return false;
  const char* cursor = skip_space(next, end);
  if (cursor == end || (*cursor != ',' && *cursor != '}')) return false;
  out = value;
  return true;
}

/// Parses the flat float array after `key` into a tensor of `shape`:
/// numbers separated by exactly one comma, JSON whitespace allowed around
/// each. std::from_chars reads each element as a float directly, with no
/// locale and no detour through double. Returns false on absent key,
/// malformed array, length mismatch, or an element that is not a finite
/// float (nan, inf, or out of float range).
[[nodiscard]] bool parse_tensor(const std::string& body,
                                const std::string& key,
                                const std::vector<int>& shape, Tensor& out) {
  const std::size_t pos = value_offset(body, key);
  if (pos == std::string::npos) return false;
  const char* cursor = body.data() + pos;
  const char* const end = body.data() + body.size();
  const auto expect = [&](char c) {
    cursor = skip_space(cursor, end);
    if (cursor == end || *cursor != c) return false;
    ++cursor;
    return true;
  };

  if (!expect('[')) return false;
  Tensor parsed(shape);
  for (std::size_t i = 0; i < parsed.numel(); ++i) {
    if (i > 0 && !expect(',')) return false;
    cursor = skip_space(cursor, end);
    float value = 0.0f;
    const auto [next, ec] = std::from_chars(cursor, end, value);
    if (ec != std::errc{} || !std::isfinite(value)) return false;
    parsed[i] = value;
    cursor = next;
  }
  // A further element means the array is longer than the shape.
  if (!expect(']')) return false;
  out = std::move(parsed);
  return true;
}

[[nodiscard]] Response json_error(int status, const std::string& message) {
  Response response;
  response.status = status;
  response.body = "{\"error\":\"" + message + "\"}";
  return response;
}

}  // namespace

Edge::Edge(serve::Router& router, EdgeConfig config)
    : router_(router),
      config_(std::move(config)),
      server_([this](const Request& request) { return handle(request); },
              config_.http) {}

Response Edge::handle(const Request& request) {
  if (request.target == "/healthz") {
    if (request.method != "GET") return json_error(405, "GET only");
    Response response;
    response.body = "{\"status\":\"ok\",\"shards\":" +
                    std::to_string(router_.shards()) + ",\"version\":" +
                    std::to_string(router_.snapshot_version()) + "}";
    return response;
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") return json_error(405, "GET only");
    Response response;
    response.body = obs::registry().to_json();
    return response;
  }
  if (request.target == "/classify") {
    if (request.method != "POST") return json_error(405, "POST only");
    DARNET_COUNTER_ADD("http/classify_requests_total", 1);
    return handle_classify(request);
  }
  return json_error(404, "no such route");
}

Response Edge::handle_classify(const Request& request) {
  engine::ClassifyRequest classify;
  if (!parse_u64(request.body, "session", classify.session_id)) {
    return json_error(400, "missing or malformed session");
  }
  // An absent tenant is the anonymous tenant 0; a malformed one is not.
  if (value_offset(request.body, "tenant") != std::string::npos &&
      !parse_u64(request.body, "tenant", classify.tenant_id)) {
    return json_error(400, "malformed tenant");
  }
  if (!parse_tensor(request.body, "frame", config_.frame_shape,
                    classify.frame)) {
    return json_error(400, "frame must be a flat array matching the "
                           "configured shape");
  }
  classify.imu_window = Tensor(config_.imu_shape);
  if (value_offset(request.body, "imu") != std::string::npos &&
      !parse_tensor(request.body, "imu", config_.imu_shape,
                    classify.imu_window)) {
    return json_error(400, "imu must be a flat array matching the "
                           "configured shape");
  }
  if (config_.deadline_us > 0) {
    classify.deadline = router_.clock_now() +
                        std::chrono::microseconds(config_.deadline_us);
  }

  const std::uint64_t session = classify.session_id;
  serve::Server::Submission submission =
      router_.submit(std::move(classify));
  serve::Response served = submission.response.get();

  if (served.status != serve::Status::kOk) {
    Response response;
    // Quota/backpressure rejections are the client's pacing problem
    // (429); shed and timeout are server-side load (503).
    response.status =
        served.status == serve::Status::kRejected ? 429 : 503;
    response.body = std::string("{\"session\":") + std::to_string(session) +
                    ",\"status\":\"" +
                    serve::status_name(served.status) + "\"}";
    return response;
  }

  const engine::StreamingVerdict& verdict = served.result.verdict;
  char confidence[32];
  std::snprintf(confidence, sizeof(confidence), "%.6f",
                static_cast<double>(
                    verdict.distribution.at(0, verdict.predicted)));
  Response response;
  response.body =
      "{\"session\":" + std::to_string(session) +
      ",\"status\":\"ok\",\"class\":" + std::to_string(verdict.predicted) +
      ",\"confidence\":" + confidence +
      std::string(",\"alert\":") + (verdict.alert ? "true" : "false") +
      ",\"degraded\":" + (served.result.degraded ? "true" : "false") +
      ",\"latency_us\":" + std::to_string(served.result.latency_us) +
      ",\"version\":" + std::to_string(router_.snapshot_version()) + "}";
  return response;
}

}  // namespace darnet::http
