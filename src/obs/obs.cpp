#include "obs/obs.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sync/sync.hpp"

namespace darnet::obs {

// -- Time & thread identity --------------------------------------------------

std::uint64_t now_ns() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace {

/// A T constructed on first use and never destroyed: the registry, and
/// the trace rings with their mutex, must outlive every other static. A
/// pool worker woken by the global ThreadPool's destructor during static
/// destruction can still register a metric (sync/lock_wait_us) or record
/// a span, and a registry destroyed before the pool left it waiting on a
/// dead mutex at exit. A union member is destroyed only by the union's
/// destructor, and this one's is empty.
template <typename T>
union Immortal {
  template <typename... Args>
  explicit Immortal(Args&&... args) : value(std::forward<Args>(args)...) {}
  ~Immortal() {}
  T value;
};

std::size_t next_thread_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::size_t thread_shard() noexcept {
  thread_local const std::size_t slot = next_thread_slot();
  return slot & (kMaxShards - 1);
}

// -- Counter / Histogram folds -----------------------------------------------

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

void Histogram::record(std::uint64_t ns) noexcept {
  Shard& s = shards_[thread_shard()];
  s.counts[static_cast<std::size_t>(bucket_of(ns))].fetch_add(
      1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum_ns.fetch_add(ns, std::memory_order_relaxed);
}

int Histogram::bucket_of(std::uint64_t ns) noexcept {
  const int b = static_cast<int>(std::bit_width(ns >> 8));
  return std::min(b, kBuckets - 1);
}

std::uint64_t Histogram::bucket_lower_ns(int i) noexcept {
  if (i <= 0) return 0;
  return std::uint64_t{256} << (i - 1);
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot snap;
  for (const Shard& s : shards_) {
    for (int b = 0; b < kBuckets; ++b) {
      snap.counts[static_cast<std::size_t>(b)] +=
          s.counts[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
    }
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum_ns += s.sum_ns.load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum_ns.store(0, std::memory_order_relaxed);
  }
}

// -- Registry ----------------------------------------------------------------

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.front() == '/' || name.back() == '/') return false;
  int segments = 1;
  for (const char c : name) {
    if (c == '/') {
      ++segments;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  if (name.find("//") != std::string_view::npos) return false;
  return segments >= 2;
}

struct MetricsRegistry::Impl {
  mutable sync::Mutex mu{"obs/registry"};
  // std::map: stable addresses are irrelevant (values are unique_ptrs) but
  // sorted iteration gives deterministic JSON for free.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
      DARNET_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges
      DARNET_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms
      DARNET_GUARDED_BY(mu);

  // REQUIRES: mu held (reads all three kind maps).
  void check_name(std::string_view name, std::string_view kind) const {
    DARNET_ASSERT_HELD(mu);
    if (!valid_metric_name(name)) {
      throw std::invalid_argument(
          "obs::MetricsRegistry: invalid metric name '" + std::string(name) +
          "' (want subsystem/verb_noun, lowercase [a-z0-9_])");
    }
    const bool clash =
        (kind != "counter" && counters.contains(name)) ||
        (kind != "gauge" && gauges.contains(name)) ||
        (kind != "histogram" && histograms.contains(name));
    if (clash) {
      throw std::invalid_argument("obs::MetricsRegistry: '" +
                                  std::string(name) +
                                  "' already registered under another kind");
    }
  }
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::counter(std::string_view name) {
  sync::Lock lock(impl_->mu);
  impl_->check_name(name, "counter");
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    it = impl_->counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  sync::Lock lock(impl_->mu);
  impl_->check_name(name, "gauge");
  auto it = impl_->gauges.find(name);
  if (it == impl_->gauges.end()) {
    it = impl_->gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  sync::Lock lock(impl_->mu);
  impl_->check_name(name, "histogram");
  auto it = impl_->histograms.find(name);
  if (it == impl_->histograms.end()) {
    it = impl_->histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::size_t MetricsRegistry::size() const {
  sync::Lock lock(impl_->mu);
  return impl_->counters.size() + impl_->gauges.size() +
         impl_->histograms.size();
}

namespace {

void append_json_string(std::ostringstream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';  // control chars never appear in metric names/details
    } else {
      out << c;
    }
  }
  out << '"';
}

void append_double(std::ostringstream& out, double v) {
  out << std::setprecision(17) << v << std::setprecision(6);
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  sync::Lock lock(impl_->mu);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : impl_->counters) {
    if (!first) out << ',';
    first = false;
    append_json_string(out, name);
    out << ':' << c->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : impl_->gauges) {
    if (!first) out << ',';
    first = false;
    append_json_string(out, name);
    out << ':';
    append_double(out, g->value());
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : impl_->histograms) {
    if (!first) out << ',';
    first = false;
    append_json_string(out, name);
    const Histogram::Snapshot snap = h->snapshot();
    out << ":{\"count\":" << snap.count << ",\"sum_ns\":" << snap.sum_ns
        << ",\"mean_ns\":";
    append_double(out, snap.mean_ns());
    out << ",\"buckets\":[";
    bool first_bucket = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = snap.counts[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      if (!first_bucket) out << ',';
      first_bucket = false;
      out << '[' << Histogram::bucket_lower_ns(b) << ',' << n << ']';
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("obs::write_json: cannot open " + path);
  }
  out << to_json() << '\n';
  if (!out) throw std::runtime_error("obs::write_json: write failed");
}

void MetricsRegistry::reset() {
  sync::Lock lock(impl_->mu);
  for (auto& [_, c] : impl_->counters) c->reset();
  for (auto& [_, g] : impl_->gauges) g->reset();
  for (auto& [_, h] : impl_->histograms) h->reset();
}

MetricsRegistry& registry() {
  static Immortal<MetricsRegistry> instance;
  return instance.value;
}

// -- Trace ring --------------------------------------------------------------

namespace {

struct TraceEvent {
  std::uint64_t start_ns{0};
  std::uint64_t dur_ns{0};
  const char* name{nullptr};
  std::uint32_t tid{0};
  char detail[kSpanDetailCap]{};
};

/// One ring per thread: the owner thread writes, exporters read at
/// quiescent points (no spans in flight), so event slots need no atomics;
/// `recorded` is atomic only so concurrent *count* reads are well-defined.
struct Ring {
  explicit Ring(std::uint32_t thread_id) : tid(thread_id) {
    events.resize(kTraceRingCapacity);
  }
  std::vector<TraceEvent> events;
  std::atomic<std::uint64_t> recorded{0};
  std::uint32_t tid;
};

sync::Mutex& trace_mu() {
  static Immortal<sync::Mutex> mu{"obs/trace"};
  return mu.value;
}

std::vector<std::unique_ptr<Ring>>& trace_rings() {
  static Immortal<std::vector<std::unique_ptr<Ring>>> rings;
  return rings.value;
}

Ring& local_ring() {
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    sync::Lock lock(trace_mu());
    auto& rings = trace_rings();
    rings.push_back(
        std::make_unique<Ring>(static_cast<std::uint32_t>(rings.size())));
    ring = rings.back().get();
  }
  return *ring;
}

void push_span(const char* name, const char* detail, std::uint64_t start_ns,
               std::uint64_t dur_ns) noexcept {
  Ring& ring = local_ring();
  const std::uint64_t idx = ring.recorded.load(std::memory_order_relaxed);
  TraceEvent& e = ring.events[static_cast<std::size_t>(
      idx % kTraceRingCapacity)];
  e.start_ns = start_ns;
  e.dur_ns = dur_ns;
  e.name = name;
  e.tid = ring.tid;
  std::strncpy(e.detail, detail, kSpanDetailCap - 1);
  e.detail[kSpanDetailCap - 1] = '\0';
  ring.recorded.store(idx + 1, std::memory_order_relaxed);
}

}  // namespace

SpanScope::SpanScope(const char* name) noexcept
    : name_(name), start_ns_(now_ns()) {
  detail_[0] = '\0';
}

SpanScope::SpanScope(const char* name, std::string_view detail) noexcept
    : name_(name), start_ns_(now_ns()) {
  const std::size_t n = std::min(detail.size(), kSpanDetailCap - 1);
  std::memcpy(detail_, detail.data(), n);
  detail_[n] = '\0';
}

SpanScope::~SpanScope() {
  push_span(name_, detail_, start_ns_, now_ns() - start_ns_);
}

std::size_t trace_event_count() {
  sync::Lock lock(trace_mu());
  std::size_t total = 0;
  for (const auto& ring : trace_rings()) {
    total += static_cast<std::size_t>(
        std::min<std::uint64_t>(ring->recorded.load(std::memory_order_relaxed),
                                kTraceRingCapacity));
  }
  return total;
}

std::uint64_t trace_recorded_total() {
  sync::Lock lock(trace_mu());
  std::uint64_t total = 0;
  for (const auto& ring : trace_rings()) {
    total += ring->recorded.load(std::memory_order_relaxed);
  }
  return total;
}

void clear_trace() {
  sync::Lock lock(trace_mu());
  for (const auto& ring : trace_rings()) {
    ring->recorded.store(0, std::memory_order_relaxed);
  }
}

std::string trace_json() {
  std::vector<TraceEvent> events;
  {
    sync::Lock lock(trace_mu());
    for (const auto& ring : trace_rings()) {
      const std::uint64_t recorded =
          ring->recorded.load(std::memory_order_relaxed);
      const std::size_t held = static_cast<std::size_t>(
          std::min<std::uint64_t>(recorded, kTraceRingCapacity));
      for (std::size_t i = 0; i < held; ++i) events.push_back(ring->events[i]);
    }
  }
  // Deterministic order; duration-descending ties put enclosing spans
  // before the spans they contain, which chrome://tracing requires for
  // correct nesting.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
              const int byname = std::strcmp(a.name, b.name);
              if (byname != 0) return byname < 0;
              return a.tid < b.tid;
            });

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":";
    append_json_string(out, e.name);
    out << ",\"cat\":\"darnet\",\"ph\":\"X\",\"pid\":0,\"tid\":" << e.tid
        << ",\"ts\":";
    append_double(out, static_cast<double>(e.start_ns) / 1e3);
    out << ",\"dur\":";
    append_double(out, static_cast<double>(e.dur_ns) / 1e3);
    if (e.detail[0] != '\0') {
      out << ",\"args\":{\"detail\":";
      append_json_string(out, e.detail);
      out << '}';
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

void write_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("obs::write_trace: cannot open " + path);
  }
  out << trace_json() << '\n';
  if (!out) throw std::runtime_error("obs::write_trace: write failed");
}

}  // namespace darnet::obs
