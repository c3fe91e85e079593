#include "sim/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "bayes/combiner.hpp"
#include "collection/messages.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace darnet::sim {

using tensor::Tensor;

/// Per-vehicle bookkeeping: the serving bridge's caches and counters.
struct FleetSimulator::Track {
  std::unique_ptr<VehicleAgent> vehicle;

  // Freshest delivered frame (model input prefix + device capture time).
  std::vector<float> last_frame;
  double last_frame_ts{0.0};
  bool has_frame{false};

  // Rolling IMU window (chronological ring of kImuWindow x kImuChannels).
  std::array<float, static_cast<std::size_t>(kImuWindow* kImuChannels)>
      imu_ring{};
  std::size_t imu_pos{0};

  // Out-of-sequence detection: high-water device timestamp per stream.
  double max_frame_ts{-1.0};
  double max_imu_ts{-1.0};
  std::uint64_t out_of_sequence{0};

  // Request outcomes.
  std::uint64_t requests{0};
  std::uint64_t served{0};
  std::uint64_t timeouts{0};
  std::uint64_t shed{0};
  std::uint64_t rejected{0};
  std::uint64_t skipped{0};
  std::uint64_t degraded{0};
  std::uint64_t alerts{0};

  /// Capture-to-verdict latency samples, ms of simulated time.
  std::vector<double> latencies_ms;
};

namespace {

[[nodiscard]] std::shared_ptr<engine::EnsembleClassifier> build_ensemble(
    std::uint64_t seed, bool with_imu) {
  constexpr int kF = FleetSimulator::kFrameFeatures;
  constexpr int kT = FleetSimulator::kImuWindow;
  constexpr int kC = FleetSimulator::kImuChannels;
  constexpr int kClasses = FleetSimulator::kClasses;
  constexpr int kImuClasses = 3;

  util::Rng rng(seed ^ 0xfeedfacecafebeefULL);
  auto frame_net = std::make_shared<nn::Sequential>();
  frame_net->emplace<nn::Dense>(kF, kClasses, rng);
  auto frame_model = std::make_shared<engine::NeuralClassifier>(
      frame_net, kClasses, "sim-frame");

  std::shared_ptr<engine::NeuralClassifier> imu_model;
  if (with_imu) {
    auto imu_net = std::make_shared<nn::Sequential>();
    imu_net->emplace<nn::Flatten>();
    imu_net->emplace<nn::Dense>(kT * kC, kImuClasses, rng);
    imu_model = std::make_shared<engine::NeuralClassifier>(
        imu_net, kImuClasses, "sim-imu");
  }

  auto ensemble = std::make_shared<engine::EnsembleClassifier>(
      frame_model, imu_model, bayes::ClassMap::darnet_default());

  if (with_imu) {
    // Fit the combiner CPTs on a small synthetic set so the degraded
    // (IMU-only) path is available; content does not matter, coverage of
    // all classes does.
    constexpr int kSamples = 96;
    Tensor frames = Tensor::uniform({kSamples, kF}, 1.0f, rng);
    Tensor imu = Tensor::uniform({kSamples, kT, kC}, 1.0f, rng);
    std::vector<int> labels(kSamples);
    for (int i = 0; i < kSamples; ++i) labels[i] = i % kClasses;
    ensemble->fit(frames, imu, labels);
  }
  return ensemble;
}

[[nodiscard]] double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = sorted.size();
  auto idx = static_cast<std::size_t>(p * static_cast<double>(n - 1) + 0.5);
  idx = std::min(idx, n - 1);
  return sorted[idx];
}

void append_kv(std::string& out, const char* key, std::uint64_t value,
               bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %llu%s", key,
                static_cast<unsigned long long>(value), comma ? ", " : "");
  out += buf;
}

void append_kv(std::string& out, const char* key, double value,
               bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6f%s", key, value,
                comma ? ", " : "");
  out += buf;
}

}  // namespace

FleetSimulator::FleetSimulator(ScenarioConfig config)
    : config_(std::move(config)) {
  if (config_.sessions < 1) {
    throw std::invalid_argument("FleetSimulator: sessions must be >= 1");
  }
  if (config_.duration_s <= 0.0 || config_.infer_period_s <= 0.0 ||
      config_.deadline_budget_s <= 0.0 || config_.clock_probe_period_s <= 0.0) {
    throw std::invalid_argument("FleetSimulator: invalid timing config");
  }
  if (config_.leave_fraction < 0.0 || config_.leave_fraction > 1.0 ||
      config_.join_spread_s < 0.0) {
    throw std::invalid_argument("FleetSimulator: invalid churn config");
  }
  if (config_.shards < 1 || config_.tenants < 1 ||
      config_.tenant_refill_per_s < 0.0) {
    throw std::invalid_argument("FleetSimulator: invalid sharding config");
  }

  const bool with_imu =
      config_.imu_ensemble || config_.degraded_flap_period_s > 0.0;
  ensemble_ = build_ensemble(config_.seed, with_imu);

  serve::RouterConfig router_config;
  router_config.shards = config_.shards;
  router_config.shard.max_batch = 8;
  router_config.shard.queue_capacity = 64;
  // The router lives and dies inside this object: sim_ (declared before
  // router_) outlives it, so the raw back-pointer in VirtualTimeSource is
  // safe. Quota buckets refill from the same simulated clock.
  router_config.shard.time_source = std::make_shared<VirtualTimeSource>(sim_);
  if (config_.tenant_refill_per_s > 0.0) {
    for (int t = 0; t < config_.tenants; ++t) {
      router_config.quotas[static_cast<std::uint64_t>(t)] =
          serve::TenantQuota{std::max(1.0, config_.tenant_burst),
                            config_.tenant_refill_per_s};
    }
  }
  // Every shard serves the one ensemble: inference writes nothing into it.
  serve::Router::Snapshot snapshot;
  snapshot.version = 1;
  snapshot.replicas.assign(static_cast<std::size_t>(config_.shards),
                           ensemble_);
  router_ = std::make_unique<serve::Router>(std::move(snapshot),
                                            std::move(router_config));

  collection::ControllerConfig controller_config;
  controller_config.clock_sync_period_s = config_.clock_sync_period_s;
  controller_ =
      std::make_unique<collection::Controller>(sim_, controller_config);

  // Per-vehicle parameters derive from one fleet RNG in index order, so
  // vehicle i's seed/drift/lifecycle is a pure function of (seed, i).
  util::Rng fleet_rng(config_.seed);
  tracks_.reserve(static_cast<std::size_t>(config_.sessions));
  for (int i = 0; i < config_.sessions; ++i) {
    VehicleConfig vc;
    vc.id = static_cast<std::uint32_t>(i);
    vc.seed = fleet_rng.next_u64();
    vc.frame_period_s = config_.frame_period_s;
    vc.imu_period_s = config_.imu_period_s;
    vc.frame_payload_floats = config_.frame_payload_floats;
    vc.imu_channels = kImuChannels;
    vc.transmit_period_s = config_.transmit_period_s;
    vc.latency_compensation_s = config_.latency_compensation_s;
    vc.clock_drift_ppm =
        fleet_rng.uniform(-config_.drift_ppm_max, config_.drift_ppm_max);
    vc.clock_initial_offset_s = fleet_rng.uniform(
        -config_.initial_offset_max_s, config_.initial_offset_max_s);
    vc.uplink = config_.link;
    vc.downlink = config_.link;
    vc.downlink.loss_rate = 0.0;  // sync must reach agents in every scenario
    if (config_.join_spread_s > 0.0) {
      vc.start_s = fleet_rng.uniform(0.0, config_.join_spread_s);
    }
    if (config_.leave_fraction > 0.0 &&
        fleet_rng.chance(config_.leave_fraction)) {
      const double leave =
          fleet_rng.uniform(0.5, 0.95) * config_.duration_s;
      vc.stop_s = std::max(leave, vc.start_s + 0.05 * config_.duration_s);
    }

    auto track = std::make_unique<Track>();
    track->vehicle =
        std::make_unique<VehicleAgent>(sim_, vc, config_.load);
    tracks_.push_back(std::move(track));
    wire_vehicle(static_cast<std::size_t>(i));

    // Stagger first inference across the period so fleet load is smooth.
    const double phase = fleet_rng.uniform(0.25, 1.0);
    const double first_at =
        tracks_.back()->vehicle->config().start_s +
        config_.infer_period_s * (1.0 + phase);
    sim_.schedule(first_at, [this, index = static_cast<std::size_t>(i)] {
      infer_step(index);
    });
  }
}

FleetSimulator::~FleetSimulator() {
  // Workers read the VirtualTimeSource; stop them while sim_ is alive.
  router_->drain();
}

void FleetSimulator::wire_vehicle(std::size_t index) {
  Track& track = *tracks_[index];
  VehicleAgent& vehicle = *track.vehicle;
  vehicle.uplink().set_receiver(
      [this, index](std::vector<std::uint8_t> payload) {
        on_uplink(index, std::move(payload));
      });
  vehicle.downlink().set_receiver(
      [this, index](std::vector<std::uint8_t> payload) {
        tracks_[index]->vehicle->agent().on_message(payload);
      });
  controller_->attach_agent(vehicle.id(), vehicle.downlink());
  vehicle.schedule_lifecycle();
}

void FleetSimulator::on_uplink(std::size_t index,
                               std::vector<std::uint8_t> payload) {
  Track& track = *tracks_[index];
  if (collection::peek_kind(payload) == collection::MessageKind::kBatch) {
    collection::DataBatch batch = collection::decode_batch(payload);
    for (auto& reading : batch.readings) {
      const bool is_frame = reading.stream == track.vehicle->frame_stream();
      double& high_water =
          is_frame ? track.max_frame_ts : track.max_imu_ts;
      if (reading.local_timestamp < high_water) {
        ++track.out_of_sequence;
        DARNET_COUNTER_ADD("sim/fleet_out_of_sequence_total", 1);
      } else {
        high_water = reading.local_timestamp;
      }
      if (is_frame) {
        track.last_frame = std::move(reading.values);
        track.last_frame_ts = reading.local_timestamp;
        track.has_frame = true;
      } else {
        const auto base = track.imu_pos * kImuChannels;
        for (std::size_t c = 0;
             c < static_cast<std::size_t>(kImuChannels) &&
             c < reading.values.size();
             ++c) {
          track.imu_ring[base + c] = reading.values[c];
        }
        track.imu_pos = (track.imu_pos + 1) % kImuWindow;
      }
    }
  }
  controller_->on_message(payload);
}

void FleetSimulator::infer_step(std::size_t index) {
  const SimTime t = sim_.now();
  if (t >= config_.duration_s) return;
  Track& track = *tracks_[index];
  if (!track.vehicle->active(t)) return;  // departed: stop rescheduling

  const double factor =
      std::clamp(config_.load.factor(t), 0.05, 100.0);
  sim_.schedule_in(config_.infer_period_s / factor,
                   [this, index] { infer_step(index); });

  ++track.requests;
  DARNET_COUNTER_ADD("sim/fleet_requests_total", 1);
  if (!track.has_frame) {
    ++track.skipped;
    DARNET_COUNTER_ADD("sim/fleet_requests_skipped_total", 1);
    return;
  }

  engine::ClassifyRequest request;
  request.session_id = static_cast<std::uint64_t>(index);
  request.tenant_id = static_cast<std::uint64_t>(
      index % static_cast<std::size_t>(config_.tenants));
  request.deadline =
      to_time_point(track.last_frame_ts + config_.deadline_budget_s);
  request.frame = Tensor::zeros({1, kFrameFeatures});
  {
    float* d = request.frame.data();
    const auto n = std::min(track.last_frame.size(),
                            static_cast<std::size_t>(kFrameFeatures));
    std::copy_n(track.last_frame.begin(), n, d);
  }
  if (ensemble_->has_imu_model()) {
    request.imu_window = Tensor::zeros({1, kImuWindow, kImuChannels});
    float* d = request.imu_window.data();
    for (std::size_t k = 0; k < static_cast<std::size_t>(kImuWindow); ++k) {
      const auto src = ((track.imu_pos + k) % kImuWindow) * kImuChannels;
      for (std::size_t c = 0; c < static_cast<std::size_t>(kImuChannels);
           ++c) {
        d[k * kImuChannels + c] = track.imu_ring[src + c];
      }
    }
  }

  // Lockstep bridge: await the verdict inside this event, so at most one
  // request is ever in flight and the multi-threaded server resolves to a
  // deterministic sequence (docs/SIMULATION.md "Determinism contract").
  auto submission = router_->submit(std::move(request));
  serve::Response response = submission.response.get();
  switch (response.status) {
    case serve::Status::kOk: {
      ++track.served;
      if (response.result.degraded) ++track.degraded;
      if (response.result.verdict.alert_onset) ++track.alerts;
      const int predicted = response.result.verdict.predicted;
      if (predicted >= 0 && predicted < kClasses) {
        ++report_.verdicts[static_cast<std::size_t>(predicted)];
      }
      // Observed capture-to-verdict age: simulated now minus the frame's
      // device timestamp. Residual clock error is part of the signal
      // (clock_storm shifts it on purpose).
      const double latency_ms = (t - track.last_frame_ts) * 1e3;
      track.latencies_ms.push_back(latency_ms);
      DARNET_HISTOGRAM_NS("sim/fleet_request_latency_ns",
                          std::max(0.0, latency_ms) * 1e6);
      break;
    }
    case serve::Status::kTimeout:
      ++track.timeouts;
      break;
    case serve::Status::kShed:
      ++track.shed;
      break;
    case serve::Status::kRejected:
      ++track.rejected;
      break;
  }
}

void FleetSimulator::clock_probe() {
  const SimTime t = sim_.now();
  std::uint64_t active = 0;
  for (const auto& track : tracks_) {
    if (!track->vehicle->active(t)) continue;
    ++active;
    const double err_ms =
        std::abs(track->vehicle->agent().clock_error_now()) * 1e3;
    ++clock_probes_;
    clock_abs_error_sum_ms_ += err_ms;
    clock_abs_error_max_ms_ = std::max(clock_abs_error_max_ms_, err_ms);
  }
  DARNET_GAUGE_SET("sim/fleet_vehicles_active",
                   static_cast<std::int64_t>(active));
  if (t + config_.clock_probe_period_s <= config_.duration_s) {
    sim_.schedule_in(config_.clock_probe_period_s, [this] { clock_probe(); });
  }
}

void FleetSimulator::run() {
  if (ran_) throw std::logic_error("FleetSimulator::run: called twice");
  ran_ = true;

  controller_->start();
  sim_.schedule_in(config_.clock_probe_period_s, [this] { clock_probe(); });

  if (config_.degraded_flap_period_s > 0.0) {
    const double half = 0.5 * config_.degraded_flap_period_s;
    bool force = true;
    for (double at = half; at < config_.duration_s; at += half) {
      sim_.schedule(at, [this, force] {
        for (int s = 0; s < router_->shards(); ++s) {
          router_->shard(s).force_degraded(force);
        }
      });
      force = !force;
    }
  }

  sim_.run_until(config_.duration_s);
  router_->drain();
  finalize_report();
}

void FleetSimulator::finalize_report() {
  report_.events_executed = sim_.executed();

  std::vector<double> all;
  std::vector<double> device_p50;
  std::vector<double> device_p99;
  for (auto& track : tracks_) {
    report_.requests += track->requests;
    report_.served += track->served;
    report_.timeouts += track->timeouts;
    report_.shed += track->shed;
    report_.rejected += track->rejected;
    report_.skipped += track->skipped;
    report_.degraded += track->degraded;
    report_.alerts += track->alerts;
    report_.out_of_sequence += track->out_of_sequence;

    for (VirtualLink* link :
         {&track->vehicle->uplink(), &track->vehicle->downlink()}) {
      const LinkStats& stats = link->stats();
      report_.messages_sent += stats.messages_sent;
      report_.messages_dropped += stats.messages_dropped;
      report_.messages_reordered += stats.messages_reordered;
      report_.messages_out_of_order += stats.messages_out_of_order;
      report_.bytes_sent += stats.bytes_sent;
    }

    if (!track->latencies_ms.empty()) {
      std::sort(track->latencies_ms.begin(), track->latencies_ms.end());
      device_p50.push_back(percentile(track->latencies_ms, 0.50));
      device_p99.push_back(percentile(track->latencies_ms, 0.99));
      all.insert(all.end(), track->latencies_ms.begin(),
                 track->latencies_ms.end());
    }
  }
  std::sort(all.begin(), all.end());
  report_.latency_p50_ms = percentile(all, 0.50);
  report_.latency_p90_ms = percentile(all, 0.90);
  report_.latency_p99_ms = percentile(all, 0.99);
  report_.latency_max_ms = all.empty() ? 0.0 : all.back();
  if (!device_p50.empty()) {
    double sum = 0.0;
    for (const double v : device_p50) sum += v;
    report_.device_mean_p50_ms = sum / static_cast<double>(device_p50.size());
    report_.device_worst_p99_ms =
        *std::max_element(device_p99.begin(), device_p99.end());
  }

  report_.clock_probes = clock_probes_;
  report_.clock_mean_abs_error_ms =
      clock_probes_ ? clock_abs_error_sum_ms_ /
                          static_cast<double>(clock_probes_)
                    : 0.0;
  report_.clock_max_abs_error_ms = clock_abs_error_max_ms_;

  const serve::Router::Stats stats = router_->stats();
  report_.quota_rejected = stats.quota_rejected;
  for (const serve::Server::Stats& shard : stats.per_shard) {
    report_.batches += shard.batches;
    report_.degraded_batches += shard.degraded_batches;
  }
}

std::string FleetSimulator::metrics_json() const {
  if (!ran_) {
    throw std::logic_error("FleetSimulator::metrics_json: run() first");
  }
  const FleetReport& r = report_;
  std::string out;
  out.reserve(1536);
  out += "{\n  \"scenario\": \"" + config_.name + "\", ";
  append_kv(out, "sessions", static_cast<std::uint64_t>(config_.sessions));
  append_kv(out, "seed", config_.seed);
  append_kv(out, "duration_s", config_.duration_s);
  append_kv(out, "events_executed", r.events_executed, false);
  out += ",\n  \"requests\": {";
  append_kv(out, "submitted", r.requests);
  append_kv(out, "served", r.served);
  append_kv(out, "timeouts", r.timeouts);
  append_kv(out, "shed", r.shed);
  append_kv(out, "rejected", r.rejected);
  append_kv(out, "quota_rejected", r.quota_rejected);
  append_kv(out, "skipped", r.skipped);
  append_kv(out, "degraded", r.degraded);
  append_kv(out, "alerts", r.alerts, false);
  out += "},\n  \"latency_ms\": {";
  append_kv(out, "p50", r.latency_p50_ms);
  append_kv(out, "p90", r.latency_p90_ms);
  append_kv(out, "p99", r.latency_p99_ms);
  append_kv(out, "max", r.latency_max_ms);
  append_kv(out, "device_mean_p50", r.device_mean_p50_ms);
  append_kv(out, "device_worst_p99", r.device_worst_p99_ms, false);
  out += "},\n  \"link\": {";
  append_kv(out, "messages_sent", r.messages_sent);
  append_kv(out, "messages_dropped", r.messages_dropped);
  append_kv(out, "messages_reordered", r.messages_reordered);
  append_kv(out, "messages_out_of_order", r.messages_out_of_order);
  append_kv(out, "bytes_sent", r.bytes_sent, false);
  out += "},\n  ";
  append_kv(out, "out_of_sequence", r.out_of_sequence, false);
  out += ",\n  \"clock\": {";
  append_kv(out, "probes", r.clock_probes);
  append_kv(out, "mean_abs_error_ms", r.clock_mean_abs_error_ms);
  append_kv(out, "max_abs_error_ms", r.clock_max_abs_error_ms, false);
  out += "},\n  \"serve\": {";
  append_kv(out, "shards", static_cast<std::uint64_t>(config_.shards));
  append_kv(out, "batches", r.batches);
  append_kv(out, "degraded_batches", r.degraded_batches, false);
  out += "},\n  \"verdicts\": [";
  for (std::size_t c = 0; c < r.verdicts.size(); ++c) {
    if (c) out += ", ";
    out += std::to_string(r.verdicts[c]);
  }
  out += "]\n}\n";
  return out;
}

}  // namespace darnet::sim
