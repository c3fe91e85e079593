// Tests for darnet::obs -- the observability layer.
//
// Covers five things:
//  1. Macro semantics: instrumentation arguments are evaluated exactly
//     when DARNET_OBS is on, and never in disabled builds (zero-cost
//     proof mirroring test_check.cpp).
//  2. Registry correctness: name grammar, kind clashes, handle stability,
//     and counter/histogram folding under parallel_for contention.
//  3. Histogram bucket edges (power-of-two buckets starting at 256 ns).
//  4. Trace spans: ring-buffer wraparound, detail truncation, and
//     deterministic ordered chrome://tracing JSON export.
//  5. Parity: training results are bit-identical whether or not the
//     instrumentation is compiled in. The golden below was recorded from
//     an observability-ON Release build; the obs-off CI leg must
//     reproduce it exactly.
//
// Note the registry and trace APIs exist in BOTH build modes (the obs
// library is always compiled); only the DARNET_* macros change meaning.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

namespace obs = darnet::obs;
using darnet::tensor::Tensor;

// ---------------------------------------------------------------------------
// 1. Macro semantics.

TEST(ObsMacros, EnabledMatchesCompileFlag) {
#ifdef DARNET_OBS
  EXPECT_TRUE(obs::enabled());
#else
  EXPECT_FALSE(obs::enabled());
#endif
}

TEST(ObsMacros, CounterArgumentEvaluationMatchesBuildMode) {
  int calls = 0;
  auto touch = [&calls]() {
    ++calls;
    return 7;
  };
  DARNET_COUNTER_ADD("obs_test/zero_cost_total", touch());
  if (obs::enabled()) {
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(obs::registry().counter("obs_test/zero_cost_total").value(),
              7u);
  } else {
    // Disabled builds compile the macro into an unevaluated sizeof: the
    // argument never runs and nothing is registered (the lookup below
    // creates a fresh, zero counter).
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(obs::registry().counter("obs_test/zero_cost_total").value(),
              0u);
  }
}

TEST(ObsMacros, GaugeAndHistogramMacrosMatchBuildMode) {
  int calls = 0;
  auto touch = [&calls]() {
    ++calls;
    return 512;
  };
  DARNET_GAUGE_SET("obs_test/zero_cost_gauge", touch());
  DARNET_HISTOGRAM_NS("obs_test/zero_cost_ns", touch());
  if (obs::enabled()) {
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(obs::registry().gauge("obs_test/zero_cost_gauge").value(),
              512.0);
    EXPECT_EQ(
        obs::registry().histogram("obs_test/zero_cost_ns").snapshot().count,
        1u);
  } else {
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(obs::registry().gauge("obs_test/zero_cost_gauge").value(), 0.0);
    EXPECT_EQ(
        obs::registry().histogram("obs_test/zero_cost_ns").snapshot().count,
        0u);
  }
}

TEST(ObsMacros, SpanMacroRecordsOnlyWhenEnabled) {
  obs::clear_trace();
  const std::uint64_t before = obs::trace_recorded_total();
  {
    DARNET_SPAN("obs_test/span_scope");
    DARNET_SPAN_DETAIL("obs_test/span_detail", std::string("batch 3"));
  }
  const std::uint64_t recorded = obs::trace_recorded_total() - before;
  if (obs::enabled()) {
    EXPECT_EQ(recorded, 2u);
  } else {
    EXPECT_EQ(recorded, 0u);
  }
}

// ---------------------------------------------------------------------------
// 2. Registry correctness. These use the library API directly so they run
//    identically in both build modes.

TEST(MetricsRegistry, NameGrammar) {
  EXPECT_TRUE(obs::valid_metric_name("engine/classify_ns"));
  EXPECT_TRUE(obs::valid_metric_name("a/b/c_2"));
  EXPECT_FALSE(obs::valid_metric_name(""));
  EXPECT_FALSE(obs::valid_metric_name("noslash"));
  EXPECT_FALSE(obs::valid_metric_name("/leading"));
  EXPECT_FALSE(obs::valid_metric_name("trailing/"));
  EXPECT_FALSE(obs::valid_metric_name("double//slash"));
  EXPECT_FALSE(obs::valid_metric_name("Upper/case"));
  EXPECT_FALSE(obs::valid_metric_name("bad/ch-ar"));

  EXPECT_THROW(static_cast<void>(obs::registry().counter("BadName")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(obs::registry().gauge("also bad")),
               std::invalid_argument);
}

TEST(MetricsRegistry, KindClashThrows) {
  static_cast<void>(obs::registry().counter("obs_test/kind_clash"));
  EXPECT_THROW(static_cast<void>(obs::registry().gauge("obs_test/kind_clash")),
               std::invalid_argument);
  EXPECT_THROW(
      static_cast<void>(obs::registry().histogram("obs_test/kind_clash")),
      std::invalid_argument);
}

TEST(MetricsRegistry, HandlesAreStableAcrossLookups) {
  obs::Counter& a = obs::registry().counter("obs_test/stable_total");
  obs::Counter& b = obs::registry().counter("obs_test/stable_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
}

TEST(MetricsRegistry, CounterFoldsShardsUnderParallelForContention) {
  darnet::parallel::set_thread_count(2);  // force a real pool even on 1 CPU
  obs::Counter& c = obs::registry().counter("obs_test/contention_total");
  obs::Histogram& h = obs::registry().histogram("obs_test/contention_ns");
  const std::uint64_t c0 = c.value();
  const std::uint64_t h0 = h.snapshot().count;
  constexpr std::int64_t kN = 20000;
  darnet::parallel::parallel_for(0, kN, /*grain=*/1,
                                 [&](std::int64_t b, std::int64_t e) {
                                   for (std::int64_t i = b; i < e; ++i) {
                                     c.add(1);
                                     h.record(300);
                                   }
                                 });
  EXPECT_EQ(c.value() - c0, static_cast<std::uint64_t>(kN));
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count - h0, static_cast<std::uint64_t>(kN));
  EXPECT_GE(snap.counts[1], static_cast<std::uint64_t>(kN));  // 300 -> bucket 1
  darnet::parallel::set_thread_count(1);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsHandles) {
  obs::Counter& c = obs::registry().counter("obs_test/reset_total");
  c.add(5);
  obs::registry().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the handle stays valid after reset
  EXPECT_EQ(c.value(), 2u);
}

// ---------------------------------------------------------------------------
// 3. Histogram bucket edges.

TEST(Histogram, BucketEdges) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(255), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(256), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(511), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(512), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(1023), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 3);
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}),
            obs::Histogram::kBuckets - 1);

  EXPECT_EQ(obs::Histogram::bucket_lower_ns(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_lower_ns(1), 256u);
  EXPECT_EQ(obs::Histogram::bucket_lower_ns(2), 512u);
  // Bucket lower bounds and bucket_of agree at every edge.
  for (int i = 1; i < obs::Histogram::kBuckets; ++i) {
    const std::uint64_t lo = obs::Histogram::bucket_lower_ns(i);
    EXPECT_EQ(obs::Histogram::bucket_of(lo), i);
    EXPECT_EQ(obs::Histogram::bucket_of(lo - 1), i - 1);
  }
}

TEST(Histogram, SnapshotSumAndMean) {
  obs::Histogram& h = obs::registry().histogram("obs_test/snapshot_ns");
  h.record(100);
  h.record(300);
  h.record(2000);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum_ns, 2400u);
  EXPECT_DOUBLE_EQ(snap.mean_ns(), 800.0);
  EXPECT_EQ(snap.counts[0], 1u);  // 100
  EXPECT_EQ(snap.counts[1], 1u);  // 300
  EXPECT_EQ(snap.counts[3], 1u);  // 2000
}

TEST(MetricsRegistry, JsonSnapshotIsDeterministicAndSorted) {
  static_cast<void>(obs::registry().counter("obs_test/json_b_total"));
  static_cast<void>(obs::registry().counter("obs_test/json_a_total"));
  static_cast<void>(obs::registry().gauge("obs_test/json_gauge"));
  const std::string a = obs::registry().to_json();
  const std::string b = obs::registry().to_json();
  EXPECT_EQ(a, b) << "snapshots of an unchanged registry must be identical";
  EXPECT_NE(a.find("\"counters\""), std::string::npos);
  EXPECT_NE(a.find("\"gauges\""), std::string::npos);
  EXPECT_NE(a.find("\"histograms\""), std::string::npos);
  const std::size_t pos_a = a.find("obs_test/json_a_total");
  const std::size_t pos_b = a.find("obs_test/json_b_total");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b) << "names must be emitted in sorted order";
}

// ---------------------------------------------------------------------------
// 4. Trace spans.

TEST(TraceSpans, RecordsNestedSpansInDeterministicOrder) {
  obs::clear_trace();
  {
    obs::SpanScope outer("obs_test/outer");
    obs::SpanScope inner("obs_test/inner", "level 2");
  }
  EXPECT_EQ(obs::trace_event_count(), 2u);
  const std::string json = obs::trace_json();
  EXPECT_EQ(json, obs::trace_json()) << "export must be deterministic";
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  const std::size_t pos_outer = json.find("obs_test/outer");
  const std::size_t pos_inner = json.find("obs_test/inner");
  ASSERT_NE(pos_outer, std::string::npos);
  ASSERT_NE(pos_inner, std::string::npos);
  EXPECT_LT(pos_outer, pos_inner)
      << "parents must precede children (start asc, duration desc)";
  EXPECT_NE(json.find("level 2"), std::string::npos);
  obs::clear_trace();
}

TEST(TraceSpans, DetailIsTruncatedToCap) {
  obs::clear_trace();
  const std::string long_detail(100, 'x');
  { obs::SpanScope s("obs_test/truncate", long_detail); }
  const std::string json = obs::trace_json();
  const std::string kept(obs::kSpanDetailCap - 1, 'x');
  EXPECT_NE(json.find(kept), std::string::npos);
  EXPECT_EQ(json.find(kept + "x"), std::string::npos);
  obs::clear_trace();
}

TEST(TraceSpans, RingBufferWrapsKeepingNewestEvents) {
  obs::clear_trace();
  const std::uint64_t base = obs::trace_recorded_total();
  const std::size_t n = obs::kTraceRingCapacity + 257;
  for (std::size_t i = 0; i < n; ++i) {
    obs::SpanScope s("obs_test/wrap");
  }
  EXPECT_EQ(obs::trace_event_count(), obs::kTraceRingCapacity)
      << "the ring must hold exactly its capacity after wrapping";
  EXPECT_EQ(obs::trace_recorded_total() - base, n)
      << "the recorded total must keep counting past the wrap";
  obs::clear_trace();
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

// ---------------------------------------------------------------------------
// 5. Instrumented-path parity: a short training run produces bit-identical
//    parameters whether observability is compiled in or not. The golden
//    was recorded from an obs-ON Release build; the obs-off leg must
//    reproduce it (instrumentation never touches RNG or numeric state).
//    Parameters are hashed in storage order, Dense weights as [out, in].

std::uint64_t bit_hash(std::span<const float> values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const float f : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(ObsParity, TrainerBitsMatchGoldenInBothBuildModes) {
  darnet::util::Rng rng(99);
  darnet::nn::Sequential model;
  model.emplace<darnet::nn::Dense>(6, 8, rng);
  model.emplace<darnet::nn::ReLU>();
  model.emplace<darnet::nn::Dense>(8, 3, rng);

  const Tensor x = Tensor::he_normal({24, 6}, 6, rng);
  std::vector<int> labels(24);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 3);
  }

  darnet::nn::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 8;
  cfg.shuffle_seed = 7;
  darnet::nn::Sgd opt(0.05, 0.9, 0.0);
  const double loss =
      darnet::nn::train_classifier(model, opt, x, labels, cfg);
  EXPECT_GT(loss, 0.0);

  std::uint64_t h = 1469598103934665603ULL;
  for (darnet::nn::Param* p : model.params()) {
    h ^= bit_hash(p->value.flat());
    h *= 1099511628211ULL;
  }
  EXPECT_EQ(h, 0x253007c1853a5c8fULL)
      << "trained parameter bits differ from the recorded golden "
         "(obs ON and OFF builds must agree); actual 0x"
      << std::hex << h;
}

}  // namespace
