#include "stats.hpp"

#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty() || !(q > 0.0) || q > 1.0) {
    throw std::invalid_argument("percentile: need samples and q in (0, 1]");
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, rank);
}

double highest_supported_quantile(std::size_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (samples_beyond(n, q) >= 10) best = q;
  }
  return best;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double trimmed_mean(std::vector<double> values, double trim) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto drop = static_cast<std::size_t>(
      std::floor(std::clamp(trim, 0.0, 0.49) *
                 static_cast<double>(values.size())));
  return mean(std::vector<double>(
      values.begin() + static_cast<std::ptrdiff_t>(drop),
      values.end() - static_cast<std::ptrdiff_t>(drop)));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::int64_t cpu_us(const rusage& usage) {
  const auto us = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000 +
           static_cast<std::int64_t>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

std::int64_t cpu_us_delta(const rusage& before, const rusage& after) {
  return cpu_us(after) - cpu_us(before);
}

std::int64_t thread_cpu_us() {
  timespec ts{};
  (void)clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1'000;
}

double at_reference_speed(double value, double measured_slice_us,
                          double reference_slice_us, double cpu_share) {
  if (!(measured_slice_us > 0.0)) return value;
  const double speed = reference_slice_us / measured_slice_us;
  return value * (cpu_share * speed + (1.0 - cpu_share));
}

std::optional<std::uint64_t> parse_status_kb(std::string_view status,
                                             std::string_view field) {
  for (std::size_t at = 0; at < status.size();) {
    const std::size_t eol = std::min(status.find('\n', at), status.size());
    std::string_view line = status.substr(at, eol - at);
    at = eol + 1;
    if (!line.starts_with(field) || line.size() <= field.size() ||
        line[field.size()] != ':') {
      continue;
    }
    line.remove_prefix(field.size() + 1);
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string_view::npos) return std::nullopt;
    line.remove_prefix(start);
    std::uint64_t kb = 0;
    const auto [end, ec] =
        std::from_chars(line.data(), line.data() + line.size(), kb);
    if (ec != std::errc() ||
        !line.substr(static_cast<std::size_t>(end - line.data()))
             .starts_with(" kB")) {
      return std::nullopt;
    }
    return kb;
  }
  return std::nullopt;
}

std::optional<CpuTicks> parse_proc_stat(std::string_view text) {
  const std::size_t eol = text.find('\n');
  std::string_view line = text.substr(0, eol);
  if (!line.starts_with("cpu ")) return std::nullopt;
  line.remove_prefix(4);

  std::array<std::uint64_t, 8> fields{};
  std::size_t parsed = 0;
  while (parsed < fields.size()) {
    const std::size_t start = line.find_first_not_of(' ');
    if (start == std::string_view::npos) break;
    line.remove_prefix(start);
    const auto [end, ec] =
        std::from_chars(line.data(), line.data() + line.size(),
                        fields[parsed]);
    if (ec != std::errc()) return std::nullopt;
    line.remove_prefix(static_cast<std::size_t>(end - line.data()));
    ++parsed;
  }
  if (parsed < 4) return std::nullopt;
  return CpuTicks{fields[0], fields[1], fields[2], fields[3],
                  fields[4], fields[5], fields[6], fields[7]};
}

double steal_pct(const CpuTicks& before, const CpuTicks& after) {
  if (after.total() <= before.total()) return 0.0;
  const auto elapsed = static_cast<double>(after.total() - before.total());
  return 100.0 * static_cast<double>(after.steal - before.steal) / elapsed;
}

const char* outcome_name(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kHttp4xx: return "http_4xx";
    case Outcome::kHttp5xx: return "http_5xx";
    case Outcome::kTransportError: return "transport_error";
    case Outcome::kShed: return "shed";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kRejected: return "rejected";
    case Outcome::kVerdictMismatch: return "verdict_mismatch";
  }
  return "?";
}

std::uint64_t OutcomeCounts::total() const {
  return std::accumulate(n.begin(), n.end(), std::uint64_t{0});
}

std::vector<std::string> conservation_errors(
    std::uint64_t sent, const std::vector<std::uint64_t>& seqs,
    const OutcomeCounts& counts, const ServeDelta& serve,
    const HttpDelta* http) {
  std::vector<std::string> errors;
  const auto expect = [&](bool ok, const std::string& what,
                          std::uint64_t got, std::uint64_t want) {
    if (!ok) {
      errors.push_back(what + ": " + std::to_string(got) + " vs " +
                       std::to_string(want));
    }
  };

  // Sequence ledger: each number in [0, sent) counted exactly once.
  std::vector<std::uint8_t> seen(sent, 0);
  std::uint64_t lost = 0, duplicated = 0, foreign = 0;
  for (const std::uint64_t seq : seqs) {
    if (seq >= sent) {
      ++foreign;
    } else if (seen[seq]++ != 0) {
      ++duplicated;
    }
  }
  for (const std::uint8_t s : seen) lost += s == 0 ? 1 : 0;
  expect(lost == 0, "sequence numbers never counted", lost, 0);
  expect(duplicated == 0, "sequence numbers counted twice", duplicated, 0);
  expect(foreign == 0, "sequence numbers out of range", foreign, 0);
  expect(counts.total() == sent, "sent != sum of outcomes", sent,
         counts.total());

  // Router counters. Every outcome except a transport failure, or an
  // HTTP-level error the edge answered itself, carries a router verdict.
  const std::uint64_t served =
      counts[Outcome::kOk] + counts[Outcome::kVerdictMismatch];
  const std::uint64_t routed_known = served + counts[Outcome::kShed] +
                                     counts[Outcome::kTimeout] +
                                     counts[Outcome::kRejected];
  const std::uint64_t transport = counts[Outcome::kTransportError];
  // Router::stats() counts a quota rejection instead of routing it.
  const std::uint64_t router_calls = serve.routed + serve.quota_rejected;
  expect(router_calls >= routed_known &&
             router_calls <= routed_known + transport,
         "router calls vs verdicts seen", router_calls, routed_known);
  expect(serve.submitted == serve.routed, "shard submitted vs routed",
         serve.submitted, serve.routed);
  expect(serve.completed == served, "shard completed vs ok verdicts",
         serve.completed, served);
  expect(serve.shed == counts[Outcome::kShed], "shard shed vs shed seen",
         serve.shed, counts[Outcome::kShed]);
  expect(serve.timeouts == counts[Outcome::kTimeout],
         "shard timeouts vs timeouts seen", serve.timeouts,
         counts[Outcome::kTimeout]);
  expect(serve.rejected + serve.quota_rejected == counts[Outcome::kRejected],
         "shard + quota rejected vs rejected seen",
         serve.rejected + serve.quota_rejected, counts[Outcome::kRejected]);
  expect(serve.batched_rows == serve.completed,
         "shard batched rows vs completed", serve.batched_rows,
         serve.completed);

  if (http != nullptr) {
    expect(http->connections <= sent && http->connections + transport >= sent,
           "edge connections vs requests sent", http->connections, sent);
    // Every routed request passed the handler; a connection either reached
    // it or was answered inline (overloaded, malformed).
    expect(http->requests >= router_calls, "edge handled vs router calls",
           http->requests, router_calls);
    expect(http->requests + http->overloaded <= http->connections,
           "edge handled + inline 503s vs connections",
           http->requests + http->overloaded, http->connections);
    // The edge counts every 4xx it answers, 429 quota/backpressure
    // rejections included.
    const std::uint64_t answered_4xx =
        counts[Outcome::kHttp4xx] + counts[Outcome::kRejected];
    expect(http->bad_requests == answered_4xx,
           "edge 4xx vs 4xx seen", http->bad_requests, answered_4xx);
    expect(http->overloaded <= counts[Outcome::kHttp5xx],
           "edge inline 503s vs 5xx seen", http->overloaded,
           counts[Outcome::kHttp5xx]);
  } else {
    expect(router_calls == sent, "router calls vs requests sent",
           router_calls, sent);
  }
  return errors;
}

double engine_us_at(double rows, double b1_us, double b8_us) {
  return b1_us + (b8_us - b1_us) * (rows - 1.0) / 7.0;
}

Residual stage_residual(const std::vector<Stage>& stages,
                        double end_to_end_mean_us) {
  Residual out;
  for (const Stage& stage : stages) out.sum_us += stage.mean_us;
  out.residual_us = end_to_end_mean_us - out.sum_us;
  out.residual_pct = end_to_end_mean_us > 0.0
                         ? 100.0 * out.residual_us / end_to_end_mean_us
                         : 0.0;
  return out;
}

}  // namespace perfbench
