#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>

#include "engine/session.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using darnet::serve::Response;
using darnet::serve::Status;

// Each closed-loop client owns four sessions it visits round-robin.
constexpr int kSessionsPerClient = 4;
// router_open: a sixth to a quarter of what the two shards complete with
// a full queue, so batches stay small and flush on the max_delay_us timer.
constexpr double kOpenRate = 800.0;
constexpr int kOpenSessions = 64;
// router_burst: 64 requests per burst on average (640 req/s) fill batch-8
// passes and drain well within the period.
constexpr int kMinBurst = 48;
constexpr int kMaxBurst = 80;
constexpr std::size_t kBurstSessions = 96;
constexpr double kBurstPeriodS = 0.1;
// The saturation probe keeps this many requests queued across the shards
// (below either shard's queue bound), one per session at a time.
constexpr std::size_t kSaturationWindow = 48;
constexpr std::size_t kSaturationSessions = 2 * kSaturationWindow;
// A session replays its behaviour in episodes of this many same-class
// frames, as a driver holds one activity for a while; its order repeats
// after kRounds rounds of one episode per class.
constexpr int kEpisode = 8;
constexpr int kRounds = 48;

/// A session's replay order over the held-out set, in same-class
/// episodes: each round visits every class once, in an order the seed
/// picks, and each class cycles through its samples in a seeded shuffle.
/// Any stretch of a session therefore sees the classes in equal shares,
/// however many requests a run manages to send.
std::vector<int> session_order(std::uint64_t seed, std::uint64_t session,
                               const HeldOut& held) {
  darnet::util::Rng rng(seed * 0x100000001b3ULL + session);
  const int classes =
      1 + *std::max_element(held.labels.begin(), held.labels.end());
  std::vector<std::vector<int>> by_class(static_cast<std::size_t>(classes));
  for (int i = 0; i < held.size(); ++i) {
    by_class[static_cast<std::size_t>(held.labels[static_cast<std::size_t>(i)])]
        .push_back(i);
  }
  for (auto& members : by_class) rng.shuffle(members);

  std::vector<std::size_t> round(by_class.size());
  std::iota(round.begin(), round.end(), std::size_t{0});
  std::vector<int> order;
  for (int r = 0; r < kRounds; ++r) {
    rng.shuffle(round);
    for (const std::size_t c : round) {
      const auto& members = by_class[c];
      for (int k = 0; k < kEpisode; ++k) {
        order.push_back(members[static_cast<std::size_t>(r * kEpisode + k) %
                                members.size()]);
      }
    }
  }
  return order;
}

std::vector<std::vector<int>> session_orders(std::uint64_t seed,
                                             int sessions,
                                             const HeldOut& held) {
  std::vector<std::vector<int>> orders;
  for (int s = 0; s < sessions; ++s) {
    orders.push_back(
        session_order(seed, static_cast<std::uint64_t>(s), held));
  }
  return orders;
}

// ---- host and server counters --------------------------------------------

CpuTicks read_proc_stat() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return parse_proc_stat(line).value_or(CpuTicks{});
}

rusage read_rusage() {
  rusage usage{};
  (void)getrusage(RUSAGE_SELF, &usage);
  return usage;
}

/// What the load generator's threads add up to over a phase, and the
/// reading of peak RSS once the phase has sent `rss_at` requests (taken by
/// whichever thread sends that one).
struct LoadGen {
  std::uint64_t rss_at{0};
  double rss_mb{0.0};
  std::atomic<std::int64_t> cpu_us{0};

  void sending(std::uint64_t seq) {
    if (seq == rss_at) rss_mb = status_mb("VmHWM");
  }
  /// Adds the calling thread's CPU time since `start` (thread_cpu_us()).
  void add_thread_cpu(std::int64_t start) { cpu_us += thread_cpu_us() - start; }
};

ShardTimes shard_totals() {
  const auto latency =
      darnet::obs::registry().histogram("serve/request_latency_ns").snapshot();
  const auto execute =
      darnet::obs::registry().histogram("serve/batch_execute_ns").snapshot();
  return {latency.sum_ns, latency.count, execute.sum_ns, execute.count};
}

ShardTimes operator-(const ShardTimes& a, const ShardTimes& b) {
  return {a.latency_ns - b.latency_ns, a.latencies - b.latencies,
          a.execute_ns - b.execute_ns, a.executions - b.executions};
}

ServeDelta serve_totals(const darnet::serve::Router& router) {
  const darnet::serve::Router::Stats stats = router.stats();
  ServeDelta out;
  out.routed = stats.routed;
  out.quota_rejected = stats.quota_rejected;
  for (const auto& shard : stats.per_shard) {
    out.submitted += shard.submitted;
    out.rejected += shard.rejected;
    out.shed += shard.shed;
    out.timeouts += shard.timeouts;
    out.completed += shard.completed;
    out.batches += shard.batches;
    out.batched_rows += shard.batched_rows;
  }
  return out;
}

/// Router totals once every admitted request has been accounted for: a
/// shard bumps its batch counters just after resolving the batch's
/// futures, so a read right after the last verdict can run ahead of them.
ServeDelta settled_serve_totals(const darnet::serve::Router& router) {
  const auto give_up = Clock::now() + std::chrono::seconds(2);
  ServeDelta totals = serve_totals(router);
  while (totals.completed + totals.shed + totals.timeouts + totals.rejected <
             totals.submitted &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    totals = serve_totals(router);
  }
  return totals;
}

ServeDelta operator-(const ServeDelta& a, const ServeDelta& b) {
  return {a.routed - b.routed,       a.quota_rejected - b.quota_rejected,
          a.submitted - b.submitted, a.rejected - b.rejected,
          a.shed - b.shed,           a.timeouts - b.timeouts,
          a.completed - b.completed, a.batches - b.batches,
          a.batched_rows - b.batched_rows};
}

HttpDelta http_totals(const darnet::http::Edge& edge) {
  const auto stats = edge.http_stats();
  return {stats.connections, stats.requests, stats.bad_requests,
          stats.overloaded};
}

HttpDelta operator-(const HttpDelta& a, const HttpDelta& b) {
  return {a.connections - b.connections, a.requests - b.requests,
          a.bad_requests - b.bad_requests, a.overloaded - b.overloaded};
}

// ---- verdicts ---------------------------------------------------------------

/// The value of `"key":` in a flat JSON object, or an empty view.
std::string_view json_value(std::string_view body, std::string_view key) {
  std::string quoted = "\"";
  quoted.append(key).append("\":");
  const std::size_t pos = body.find(quoted);
  if (pos == std::string_view::npos) return {};
  body.remove_prefix(pos + quoted.size());
  return body.substr(0, body.find_first_of(",}"));
}

void read_http_verdict(const darnet::http::ClientResponse& response,
                       Record& record) {
  const std::string_view body = response.body;
  const std::string_view status = json_value(body, "status");
  if (response.status == 200) {
    const std::string_view cls = json_value(body, "class");
    if (status != "\"ok\"" || cls.empty()) {
      record.outcome = Outcome::kTransportError;  // garbled reply
      return;
    }
    const auto [end, ec] =
        std::from_chars(cls.data(), cls.data() + cls.size(), record.predicted);
    record.outcome = ec == std::errc() && end == cls.data() + cls.size()
                         ? Outcome::kOk
                         : Outcome::kTransportError;
    record.alert = json_value(body, "alert") == "true";
  } else if (response.status == 0) {
    record.outcome = Outcome::kTransportError;
  } else if (status == "\"shed\"") {
    record.outcome = Outcome::kShed;
  } else if (status == "\"timeout\"") {
    record.outcome = Outcome::kTimeout;
  } else if (status == "\"rejected\"") {
    record.outcome = Outcome::kRejected;
  } else if (response.status >= 400 && response.status < 500) {
    record.outcome = Outcome::kHttp4xx;
  } else {
    record.outcome = Outcome::kHttp5xx;
  }
}

void read_router_verdict(std::future<Response>& future, Record& record) {
  try {
    const Response response = future.get();
    record.done = Clock::now();
    switch (response.status) {
      case Status::kOk:
        record.outcome = Outcome::kOk;
        record.predicted = response.result.verdict.predicted;
        record.alert = response.result.verdict.alert;
        break;
      case Status::kShed:
        record.outcome = Outcome::kShed;
        break;
      case Status::kTimeout:
        record.outcome = Outcome::kTimeout;
        break;
      case Status::kRejected:
        record.outcome = Outcome::kRejected;
        break;
    }
  } catch (const std::exception&) {
    // A failed batch: the edge answers these with a 500.
    record.done = Clock::now();
    record.outcome = Outcome::kHttp5xx;
  }
  record.counted = true;
}

darnet::engine::ClassifyRequest make_request(const HeldOut& held,
                                             std::uint64_t session,
                                             int frame) {
  darnet::engine::ClassifyRequest request;
  request.session_id = session;
  request.frame = held.frames[static_cast<std::size_t>(frame)];
  request.imu_window = held.imu[static_cast<std::size_t>(frame)];
  return request;
}

// ---- closed loop ------------------------------------------------------------

/// `clients` threads, each sending its next request as soon as the
/// previous one is answered, either over HTTP or straight into the router.
std::vector<Record> closed_loop(Fixture& fixture, std::uint64_t seed,
                                double seconds, std::uint64_t session_base,
                                bool via_http, int clients, LoadGen& load) {
  const HeldOut& held = fixture.held_out();
  const auto orders = session_orders(seed, clients * kSessionsPerClient, held);
  std::atomic<std::uint64_t> next_seq{0};
  std::vector<std::vector<Record>> per_client(
      static_cast<std::size_t>(clients));
  const auto start = Clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  const auto client = [&](int c) {
    const std::int64_t cpu_start = thread_cpu_us();
    std::vector<Record>& records = per_client[static_cast<std::size_t>(c)];
    std::vector<std::size_t> steps(kSessionsPerClient, 0);
    auto previous_done = start;
    std::string body;
    body.reserve(held.wire.front().size() + 64);
    for (int turn = 0; Clock::now() < stop_at; ++turn) {
      const int local = turn % kSessionsPerClient;
      const int index = c * kSessionsPerClient + local;
      const auto& order = orders[static_cast<std::size_t>(index)];
      Record record;
      record.session = session_base + static_cast<std::uint64_t>(index);
      record.frame = order[steps[static_cast<std::size_t>(local)]++ %
                           order.size()];
      record.thread = c;
      record.due = previous_done;
      if (via_http) {
        body.assign("{\"session\":");
        body.append(std::to_string(record.session)).append(",");
        body.append(held.wire[static_cast<std::size_t>(record.frame)]);
        record.seq = next_seq++;
        load.sending(record.seq);
        record.sent = Clock::now();
        const auto response =
            darnet::http::post("127.0.0.1", fixture.port(), "/classify", body);
        record.done = Clock::now();
        read_http_verdict(response, record);
        record.counted = true;
      } else {
        auto request = make_request(held, record.session, record.frame);
        record.seq = next_seq++;
        load.sending(record.seq);
        record.sent = Clock::now();
        auto submission = fixture.router().submit(std::move(request));
        record.submitted = Clock::now();
        read_router_verdict(submission.response, record);
      }
      previous_done = record.done;
      records.push_back(record);
    }
    load.add_thread_cpu(cpu_start);
  };
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  }

  std::vector<Record> records;
  for (auto& part : per_client) {
    records.insert(records.end(), part.begin(), part.end());
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  return records;
}

/// One thread keeping kSaturationWindow requests in flight through
/// Router::submit for `seconds`, sessions round-robin: batches fill, so the
/// completion rate is the highest rate the shards sustain with a bounded
/// queue. Futures are taken oldest first, so `done` is only good for
/// counting.
std::vector<Record> saturated_loop(Fixture& fixture, std::uint64_t seed,
                                   double seconds,
                                   std::uint64_t session_base) {
  const HeldOut& held = fixture.held_out();
  const auto orders = session_orders(seed, kSaturationSessions, held);
  std::vector<Record> records;
  std::deque<std::pair<std::size_t, std::future<Response>>> in_flight;
  const auto stop_at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (;;) {
    if (in_flight.size() < kSaturationWindow && Clock::now() < stop_at) {
      const std::size_t k = records.size();
      const std::size_t s = k % kSaturationSessions;
      const auto& order = orders[s];
      Record record;
      record.seq = k;
      record.session = session_base + s;
      record.frame = order[(k / kSaturationSessions) % order.size()];
      auto request = make_request(held, record.session, record.frame);
      record.due = record.sent = Clock::now();
      auto submission = fixture.router().submit(std::move(request));
      record.submitted = Clock::now();
      records.push_back(record);
      in_flight.emplace_back(k, std::move(submission.response));
      continue;
    }
    if (in_flight.empty()) break;
    read_router_verdict(in_flight.front().second,
                        records[in_flight.front().first]);
    in_flight.pop_front();
  }
  return records;
}

// ---- open loop --------------------------------------------------------------

/// One FIFO of in-flight futures per shard. A shard resolves its requests
/// in admission order, so a waiter blocked on the oldest future never
/// delays the timestamp of a later one.
struct Waiter {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<Record*, std::future<Response>>> queue;
  bool closed{false};

  void push(Record* record, std::future<Response> future) {
    {
      std::lock_guard lock(mu);
      queue.emplace_back(record, std::move(future));
    }
    cv.notify_one();
  }
  void close() {
    {
      std::lock_guard lock(mu);
      closed = true;
    }
    cv.notify_one();
  }
  void run(LoadGen& load) {
    const std::int64_t cpu_start = thread_cpu_us();
    for (;;) {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return closed || !queue.empty(); });
      if (queue.empty()) {
        lock.unlock();
        load.add_thread_cpu(cpu_start);
        return;
      }
      auto [record, future] = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      read_router_verdict(future, *record);
    }
  }
};

/// Scheduled arrivals into Router::submit from one generator thread; one
/// waiter thread per shard timestamps the verdicts.
std::vector<Record> open_loop(Fixture& fixture, std::vector<Record> records,
                              LoadGen& load) {
  const HeldOut& held = fixture.held_out();
  darnet::serve::Router& router = fixture.router();
  std::vector<Waiter> waiters(static_cast<std::size_t>(router.shards()));
  {
    std::vector<std::jthread> threads;
    for (std::size_t w = 0; w < waiters.size(); ++w) {
      threads.emplace_back([&waiters, &load, w] { waiters[w].run(load); });
    }
    // Requests that fall due together (a burst) are built before their
    // due time, so the generator only submits once it is due.
    std::vector<darnet::engine::ClassifyRequest> due_now;
    try {
      for (std::size_t first = 0; first < records.size();) {
        std::size_t last = first;
        due_now.clear();
        while (last < records.size() && records[last].due == records[first].due) {
          due_now.push_back(
              make_request(held, records[last].session, records[last].frame));
          ++last;
        }
        std::this_thread::sleep_until(records[first].due);
        for (std::size_t i = first; i < last; ++i) {
          Record& record = records[i];
          const int shard = router.shard_for(record.session);
          record.thread = 1 + shard;
          load.sending(record.seq);
          record.sent = Clock::now();
          auto submission = router.submit(std::move(due_now[i - first]));
          record.submitted = Clock::now();
          waiters[static_cast<std::size_t>(shard)].push(
              &record, std::move(submission.response));
        }
        first = last;
      }
    } catch (...) {
      for (Waiter& waiter : waiters) waiter.close();
      throw;
    }
    for (Waiter& waiter : waiters) waiter.close();
  }
  return records;
}

/// Poisson arrivals at kOpenRate, sessions round-robin. Due times are
/// offsets from the clock's epoch until run_phase anchors them.
std::vector<Record> poisson_schedule(std::uint64_t seed, double seconds,
                                     std::uint64_t session_base,
                                     const HeldOut& held) {
  const auto orders = session_orders(seed, kOpenSessions, held);
  darnet::util::Rng rng(seed);
  std::vector<Record> records;
  double t = 0.0;
  for (std::uint64_t k = 0;; ++k) {
    t += -std::log(1.0 - rng.uniform()) / kOpenRate;
    if (t >= seconds) break;
    const std::uint64_t s = k % kOpenSessions;
    const auto& order = orders[s];
    Record record;
    record.seq = k;
    record.session = session_base + s;
    record.frame = order[(k / kOpenSessions) % order.size()];
    record.due = Clock::time_point{} +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(t));
    records.push_back(record);
  }
  return records;
}

/// A burst every kBurstPeriodS, its size running through every value in
/// kMinBurst..kMaxBurst once per block of bursts in an order the seed
/// shuffles, so every seed offers the same load. Requests are taken
/// round-robin from kBurstSessions sessions, so no session has two in one
/// burst; due times as in poisson_schedule. Varying the size keeps the
/// median off the boundary between two batch passes: with one fixed size
/// the requests of every burst finish in the same groups of eight, and the
/// median jumps between two groups' completion times.
std::vector<Record> burst_schedule(std::uint64_t seed, double seconds,
                                   std::uint64_t session_base,
                                   const HeldOut& held) {
  const auto orders = session_orders(seed, kBurstSessions, held);
  darnet::util::Rng rng(seed);
  std::vector<int> sizes(kMaxBurst - kMinBurst + 1);
  std::iota(sizes.begin(), sizes.end(), kMinBurst);
  std::vector<std::size_t> steps(kBurstSessions, 0);
  std::size_t next_session = 0;
  std::vector<Record> records;
  const auto bursts = static_cast<std::size_t>(seconds / kBurstPeriodS);
  for (std::size_t b = 0; b < bursts; ++b) {
    const auto due = Clock::time_point{} +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(b) * kBurstPeriodS));
    if (b % sizes.size() == 0) rng.shuffle(sizes);
    const int size = sizes[b % sizes.size()];
    for (int i = 0; i < size; ++i) {
      const std::size_t s = next_session;
      next_session = (next_session + 1) % kBurstSessions;
      const auto& order = orders[s];
      Record record;
      record.seq = records.size();
      record.session = session_base + s;
      record.frame = order[steps[s]++ % order.size()];
      record.due = due;
      records.push_back(record);
    }
  }
  return records;
}

}  // namespace

double status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  const std::string status((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  return static_cast<double>(parse_status_kb(status, field).value_or(0)) /
         1024.0;
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kEdgeClosed, Workload::kRouterOpen,
                           Workload::kRouterBurst}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) noexcept {
  switch (workload) {
    case Workload::kEdgeClosed: return "edge_closed";
    case Workload::kRouterOpen: return "router_open";
    case Workload::kRouterBurst: return "router_burst";
    case Workload::kRouterClosed: return "router_closed";
    case Workload::kRouterSaturated: return "router_saturated";
  }
  return "?";
}

Phase run_phase(Workload workload, Fixture& fixture, std::uint64_t seed,
                double seconds, std::uint64_t session_base, int clients) {
  const HeldOut& held = fixture.held_out();
  Phase phase;
  phase.workload = workload;

  // Schedules are built before the clocks start.
  std::vector<Record> schedule;
  if (workload == Workload::kRouterOpen) {
    schedule = poisson_schedule(seed, seconds, session_base, held);
  } else if (workload == Workload::kRouterBurst) {
    schedule = burst_schedule(seed, seconds, session_base, held);
  }

  LoadGen load;
  load.rss_at = static_cast<std::uint64_t>(kRssRequestsPerSecond * seconds);
  const ServeDelta serve_before = settled_serve_totals(fixture.router());
  const HttpDelta http_before = http_totals(fixture.edge());
  const ShardTimes shard_before = shard_totals();
  const CpuTicks ticks_before = read_proc_stat();
  const std::int64_t sampler_before = fixture.speed().cpu_us();
  const rusage cpu_before = read_rusage();
  // The calling thread generates the open and saturated loads itself.
  const std::int64_t generator_before = thread_cpu_us();
  const auto start = Clock::now();

  switch (workload) {
    case Workload::kEdgeClosed:
    case Workload::kRouterClosed:
      phase.records =
          closed_loop(fixture, seed, seconds, session_base,
                      workload == Workload::kEdgeClosed, clients, load);
      break;
    case Workload::kRouterSaturated:
      phase.records =
          saturated_loop(fixture, seed, seconds, session_base);
      break;
    case Workload::kRouterOpen:
    case Workload::kRouterBurst:
      // Schedules hold offsets from the clock's epoch; anchor them now.
      for (Record& record : schedule) {
        record.due = start + (record.due - Clock::time_point{});
      }
      phase.records = open_loop(fixture, std::move(schedule), load);
      break;
  }

  load.add_thread_cpu(generator_before);
  const auto end = Clock::now();
  phase.wall_s = std::chrono::duration<double>(end - start).count();
  phase.cpu_us = cpu_us_delta(cpu_before, read_rusage()) -
                 (fixture.speed().cpu_us() - sampler_before);
  phase.loadgen_cpu_us = load.cpu_us;
  phase.slice_us = fixture.speed().slice_us(start, end);
  phase.steal_pct = steal_pct(ticks_before, read_proc_stat());
  phase.rss_at_end = load.rss_mb == 0.0;
  phase.rss_mb = phase.rss_at_end ? status_mb("VmHWM") : load.rss_mb;
  phase.serve = settled_serve_totals(fixture.router()) - serve_before;
  phase.http = http_totals(fixture.edge()) - http_before;
  phase.shard = shard_totals() - shard_before;
  return phase;
}

std::vector<double> healthz_rtts_us(Fixture& fixture, int clients,
                                    double seconds, std::uint64_t& failures) {
  std::vector<std::vector<double>> per_client(
      static_cast<std::size_t>(clients));
  std::atomic<std::uint64_t> failed{0};
  const auto stop_at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        while (Clock::now() < stop_at) {
          const auto sent = Clock::now();
          const auto reply =
              darnet::http::get("127.0.0.1", fixture.port(), "/healthz");
          const auto done = Clock::now();
          if (reply.status != 200) ++failed;
          per_client[static_cast<std::size_t>(c)].push_back(
              std::chrono::duration<double, std::micro>(done - sent).count());
        }
      });
    }
  }
  failures += failed;
  std::vector<double> rtts;
  for (const auto& part : per_client) {
    rtts.insert(rtts.end(), part.begin(), part.end());
  }
  return rtts;
}

std::uint64_t check_verdicts(Phase& phase, const std::vector<Tensor>& fused,
                             const darnet::engine::StreamingConfig& config) {
  std::map<std::uint64_t, darnet::engine::SessionState> sessions;
  std::uint64_t mismatches = 0;
  for (Record& record : phase.records) {  // seq order = per-session order
    if (record.outcome != Outcome::kOk) continue;
    const darnet::engine::StreamingVerdict want = darnet::engine::advance(
        sessions[record.session], fused[static_cast<std::size_t>(record.frame)],
        config);
    if (want.predicted != record.predicted || want.alert != record.alert) {
      record.outcome = Outcome::kVerdictMismatch;
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace perfbench
