#include "http/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace darnet::http {

namespace {

[[nodiscard]] const char* status_text(int status) noexcept {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 429:
      return "Too Many Requests";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
  }
  return "Unknown";
}

[[nodiscard]] std::string serialise(const Response& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    status_text(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer went away; nothing useful left to do
    }
    sent += static_cast<std::size_t>(n);
  }
}

void send_response(int fd, const Response& response) {
  send_all(fd, serialise(response));
}

/// Strict Content-Length value: one or more ASCII digits, nothing else
/// (no sign, no whitespace, no suffix), and no overflow.
[[nodiscard]] bool parse_content_length(const std::string& value,
                                        std::size_t& out) {
  if (value.empty()) return false;
  std::size_t n = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::size_t>(c - '0');
    if (n > (SIZE_MAX - digit) / 10) return false;
    n = n * 10 + digit;
  }
  out = n;
  return true;
}

/// Reads one request (head + Content-Length body) off `fd`. Returns
/// false on transport error, oversize, or malformed head -- which
/// includes any header name given twice (compared case-insensitively), a
/// non-digit Content-Length and any Transfer-Encoding (only
/// Content-Length framing is spoken here).
[[nodiscard]] bool read_request(int fd, std::size_t max_bytes,
                                Request& request) {
  std::string buffer;
  std::size_t head_end = std::string::npos;
  char chunk[4096];
  while (true) {
    head_end = buffer.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    if (buffer.size() > max_bytes) return false;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }

  // Request line: METHOD SP TARGET SP VERSION.
  const std::size_t line_end = buffer.find("\r\n");
  const std::string line = buffer.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  request.method = line.substr(0, sp1);
  request.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (line.compare(sp2 + 1, std::string::npos, "HTTP/1.1") != 0 &&
      line.compare(sp2 + 1, std::string::npos, "HTTP/1.0") != 0) {
    return false;
  }

  // Headers: lower-cased names, trimmed values.
  std::size_t pos = line_end + 2;
  while (pos < head_end) {
    const std::size_t end = buffer.find("\r\n", pos);
    const std::string header = buffer.substr(pos, end - pos);
    pos = end + 2;
    const std::size_t colon = header.find(':');
    if (colon == std::string::npos) return false;
    std::string name = header.substr(0, colon);
    std::transform(name.begin(), name.end(), name.begin(), [](char c) {
      return static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    });
    std::size_t value_begin = colon + 1;
    while (value_begin < header.size() && header[value_begin] == ' ') {
      ++value_begin;
    }
    if (name == "transfer-encoding") return false;
    if (!request.headers.emplace(name, header.substr(value_begin)).second) {
      return false;  // a repeated header would silently overwrite the first
    }
  }

  std::size_t content_length = 0;
  const auto it = request.headers.find("content-length");
  if (it != request.headers.end() &&
      !parse_content_length(it->second, content_length)) {
    return false;
  }
  const std::size_t body_begin = head_end + 4;
  // Subtract rather than add: body_begin + content_length can wrap.
  if (body_begin > max_bytes || content_length > max_bytes - body_begin) {
    return false;
  }
  while (buffer.size() < body_begin + content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  request.body = buffer.substr(body_begin, content_length);
  return true;
}

[[nodiscard]] int bind_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("http::HttpServer: socket() failed");
  }
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 64) < 0) {
    (void)::close(fd);
    throw std::runtime_error("http::HttpServer: bind/listen failed");
  }
  return fd;
}

[[nodiscard]] std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    (void)::close(fd);
    throw std::runtime_error("http::HttpServer: getsockname failed");
  }
  return ntohs(addr.sin_port);
}

}  // namespace

HttpServer::HttpServer(Handler handler, HttpServerConfig config)
    : handler_(std::move(handler)),
      config_(config),
      listener_{bind_loopback(config.port)},
      port_(bound_port(listener_.fd)) {
  if (!handler_) {
    (void)::close(listener_.fd);
    throw std::invalid_argument("http::HttpServer: handler must be set");
  }
  if (config_.workers < 1) {
    (void)::close(listener_.fd);
    throw std::invalid_argument("http::HttpServer: workers must be >= 1");
  }
  if (config_.pending_capacity < 1) {
    (void)::close(listener_.fd);
    throw std::invalid_argument(
        "http::HttpServer: pending_capacity must be >= 1");
  }
  // Start the threads before taking mu_ (their loops acquire it from
  // their own stacks), then publish the handles under the lock.
  std::vector<parallel::ServiceThread> workers;
  workers.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers.emplace_back([this] { handler_loop(); });
  }
  parallel::ServiceThread acceptor([this] { accept_loop(); });
  sync::Lock lock(mu_);
  workers_ = std::move(workers);
  acceptor_ = std::move(acceptor);
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listener_.fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (stop()) or irrecoverable
    }
    DARNET_COUNTER_ADD("http/connections_total", 1);
    bool overloaded = false;
    {
      sync::Lock lock(mu_);
      ++stats_.connections;
      if (stopping_) {
        overloaded = true;  // refuse late arrivals during shutdown
      } else if (pending_.size() >= config_.pending_capacity) {
        // Bounded backlog: beyond capacity the edge answers 503 inline
        // rather than queueing unboundedly.
        overloaded = true;
        ++stats_.overloaded;
      } else {
        pending_.push_back(fd);
      }
    }
    if (overloaded) {
      DARNET_COUNTER_ADD("http/overload_rejected_total", 1);
      Response response;
      response.status = 503;
      response.body = "{\"error\":\"overloaded\"}";
      send_response(fd, response);
      (void)::close(fd);
    } else {
      conn_cv_.notify_one();
    }
  }
}

void HttpServer::handler_loop() {
  for (;;) {
    int fd = -1;
    {
      sync::UniqueLock lock(mu_);
      conn_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping, backlog drained
      fd = pending_.front();
      pending_.pop_front();
    }
    handle_connection(fd);
  }
}

std::chrono::steady_clock::time_point HttpServer::clock_now() const noexcept {
  return config_.time_source ? config_.time_source->now()
                             : std::chrono::steady_clock::now();
}

void HttpServer::handle_connection(int fd) {
  const auto started = clock_now();
  Request request;
  Response response;
  if (!read_request(fd, config_.max_request_bytes, request)) {
    response.status = 400;
    response.body = "{\"error\":\"malformed request\"}";
    DARNET_COUNTER_ADD("http/bad_requests_total", 1);
    sync::Lock lock(mu_);
    ++stats_.bad_requests;
  } else {
    DARNET_COUNTER_ADD("http/requests_total", 1);
    {
      sync::Lock lock(mu_);
      ++stats_.requests;
    }
    try {
      response = handler_(request);
    } catch (const std::exception&) {
      response = Response{};
      response.status = 500;
      response.body = "{\"error\":\"handler failed\"}";
    }
    if (response.status >= 400 && response.status < 500) {
      DARNET_COUNTER_ADD("http/bad_requests_total", 1);
      sync::Lock lock(mu_);
      ++stats_.bad_requests;
    }
  }
  send_response(fd, response);
  (void)::close(fd);
  DARNET_HISTOGRAM_NS(
      "http/request_ns",
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock_now() -
                                                           started)
          .count());
}

void HttpServer::stop() {
  parallel::ServiceThread acceptor;
  std::vector<parallel::ServiceThread> workers;
  bool first = false;
  {
    sync::Lock lock(mu_);
    first = !stopping_;
    stopping_ = true;
    acceptor = std::move(acceptor_);
    workers.swap(workers_);
  }
  if (first) {
    // Unblock the accept loop; its next accept() fails and it exits.
    ::shutdown(listener_.fd, SHUT_RDWR);
  }
  conn_cv_.notify_all();
  if (acceptor.joinable()) acceptor.join();
  for (auto& worker : workers) worker.join();
  if (first) {
    (void)::close(listener_.fd);
    // Handlers drain the backlog before exiting (the wait predicate only
    // returns on empty), so anything left here arrived after the join --
    // refuse it.
    std::deque<int> leftovers;
    {
      sync::Lock lock(mu_);
      leftovers.swap(pending_);
    }
    for (const int fd : leftovers) (void)::close(fd);
  }
}

HttpServer::Stats HttpServer::stats() const {
  sync::Lock lock(mu_);
  return stats_;
}

ClientResponse request(const std::string& host, std::uint16_t port,
                       const std::string& method, const std::string& target,
                       const std::string& body) {
  ClientResponse out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    (void)::close(fd);
    return out;
  }
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "Host: " + host + "\r\n";
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  wire += "Connection: close\r\n\r\n";
  wire += body;
  send_all(fd, wire);

  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  (void)::close(fd);

  // "HTTP/1.1 <status> ..." + head, body after the blank line.
  const std::size_t sp = reply.find(' ');
  if (sp == std::string::npos || sp + 4 > reply.size()) return out;
  try {
    out.status = std::stoi(reply.substr(sp + 1, 3));
  } catch (...) {
    return out;
  }
  const std::size_t head_end = reply.find("\r\n\r\n");
  if (head_end != std::string::npos) {
    out.body = reply.substr(head_end + 4);
  }
  return out;
}

ClientResponse get(const std::string& host, std::uint16_t port,
                   const std::string& target) {
  return request(host, port, "GET", target);
}

ClientResponse post(const std::string& host, std::uint16_t port,
                    const std::string& target, const std::string& body) {
  return request(host, port, "POST", target, body);
}

}  // namespace darnet::http
