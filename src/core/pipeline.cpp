#include "core/pipeline.hpp"

#include "obs/obs.hpp"
#include "tensor/ops.hpp"

#include <cmath>
#include <stdexcept>

namespace darnet::core {

double SessionScript::total_duration() const noexcept {
  double total = 0.0;
  for (const auto& seg : segments) total += seg.duration_s;
  return total;
}

vision::DriverClass SessionScript::behaviour_at(double t) const {
  if (segments.empty()) {
    throw std::logic_error("SessionScript: empty script");
  }
  double acc = 0.0;
  for (const auto& seg : segments) {
    acc += seg.duration_s;
    if (t < acc) return seg.behaviour;
  }
  return segments.back().behaviour;
}

SessionScript SessionScript::paper_script(int repeats, double segment_s) {
  SessionScript script;
  for (int r = 0; r < repeats; ++r) {
    for (int c = 0; c < vision::kDriverClassCount; ++c) {
      script.segments.push_back(
          {static_cast<vision::DriverClass>(c), segment_s});
    }
  }
  return script;
}

StreamingPipeline::StreamingPipeline(SessionScript script,
                                     PipelineConfig config)
    : script_(std::move(script)), config_(config), rng_(config.seed) {
  if (script_.segments.empty()) {
    throw std::invalid_argument("StreamingPipeline: empty script");
  }
  build();
}

std::vector<std::string> StreamingPipeline::imu_streams() {
  return {"imu.accel", "imu.gyro", "imu.gravity", "imu.rotation"};
}

const imu::ImuSample& StreamingPipeline::sample_at(double t) const {
  // Locate the segment containing t, then the nearest trace sample.
  std::size_t seg = 0;
  while (seg + 1 < segment_starts_.size() && segment_starts_[seg + 1] <= t) {
    ++seg;
  }
  const auto& trace = segment_traces_[seg];
  const double rel = t - segment_starts_[seg];
  const auto idx = std::min(
      trace.size() - 1,
      static_cast<std::size_t>(std::max(0.0, rel * config_.imu.sample_hz)));
  return trace[idx];
}

void StreamingPipeline::build() {
  // Pre-generate one IMU trace per script segment, matching the behaviour's
  // phone orientation.
  double start = 0.0;
  for (const auto& seg : script_.segments) {
    segment_starts_.push_back(start);
    imu::ImuGenConfig gen = config_.imu;
    gen.duration_s = seg.duration_s;
    segment_traces_.push_back(
        imu::generate_trace(orientation_for(seg.behaviour, rng_), gen, rng_));
    start += seg.duration_s;
  }

  controller_ = std::make_unique<collection::Controller>(sim_,
                                                         config_.controller);

  camera_up_ = std::make_unique<sim::VirtualLink>(
      sim_, config_.camera_link, config_.seed ^ 0x100);
  camera_down_ = std::make_unique<sim::VirtualLink>(
      sim_, config_.camera_link, config_.seed ^ 0x101);
  phone_up_ = std::make_unique<sim::VirtualLink>(
      sim_, config_.phone_link, config_.seed ^ 0x200);
  phone_down_ = std::make_unique<sim::VirtualLink>(
      sim_, config_.phone_link, config_.seed ^ 0x201);

  collection::AgentConfig camera_cfg;
  camera_cfg.agent_id = 1;
  camera_cfg.clock_drift_ppm = config_.camera_drift_ppm;
  camera_cfg.latency_compensation_s = config_.camera_link.base_latency_s;
  camera_agent_ = std::make_unique<collection::CollectionAgent>(
      sim_, camera_cfg, *camera_up_);

  collection::AgentConfig phone_cfg;
  phone_cfg.agent_id = 2;
  phone_cfg.clock_drift_ppm = config_.phone_drift_ppm;
  phone_cfg.clock_initial_offset_s = 0.02;
  phone_cfg.latency_compensation_s = config_.phone_link.base_latency_s;
  phone_agent_ = std::make_unique<collection::CollectionAgent>(
      sim_, phone_cfg, *phone_up_);

  camera_up_->set_receiver([this](std::vector<std::uint8_t> bytes) {
    controller_->on_message(bytes);
  });
  phone_up_->set_receiver([this](std::vector<std::uint8_t> bytes) {
    controller_->on_message(bytes);
  });
  camera_down_->set_receiver([this](std::vector<std::uint8_t> bytes) {
    camera_agent_->on_message(bytes);
  });
  phone_down_->set_receiver([this](std::vector<std::uint8_t> bytes) {
    phone_agent_->on_message(bytes);
  });
  controller_->attach_agent(1, *camera_down_);
  controller_->attach_agent(2, *phone_down_);

  // Camera sensor: renders the scripted behaviour at poll time.
  camera_agent_->add_sensor(std::make_unique<collection::CallbackSensor>(
      "camera", config_.camera_period_s,
      [this](sim::SimTime now) {
        const vision::Image frame = vision::render_driver_scene(
            script_.behaviour_at(now), config_.render, rng_);
        return std::vector<float>(frame.pixels().begin(),
                                  frame.pixels().end());
      }));

  // Phone sensors: one stream per physical sensor, all reading the shared
  // trace (as the Android sensor manager fans one IMU out to listeners).
  phone_agent_->add_sensor(std::make_unique<collection::CallbackSensor>(
      "imu.accel", config_.imu_period_s, [this](sim::SimTime now) {
        const auto& s = sample_at(now);
        return std::vector<float>(s.accel.begin(), s.accel.end());
      }));
  phone_agent_->add_sensor(std::make_unique<collection::CallbackSensor>(
      "imu.gyro", config_.imu_period_s, [this](sim::SimTime now) {
        const auto& s = sample_at(now);
        return std::vector<float>(s.gyro.begin(), s.gyro.end());
      }));
  phone_agent_->add_sensor(std::make_unique<collection::CallbackSensor>(
      "imu.gravity", config_.imu_period_s, [this](sim::SimTime now) {
        const auto& s = sample_at(now);
        return std::vector<float>(s.gravity.begin(), s.gravity.end());
      }));
  phone_agent_->add_sensor(std::make_unique<collection::CallbackSensor>(
      "imu.rotation", config_.imu_period_s, [this](sim::SimTime now) {
        const auto& s = sample_at(now);
        return std::vector<float>(s.rotation.begin(), s.rotation.end());
      }));
}

std::vector<StreamedClassification> StreamingPipeline::run(
    DarNet* model, engine::ArchitectureKind kind) {
  DARNET_SPAN("core/pipeline_run");
  controller_->start();
  camera_agent_->start();
  phone_agent_->start();

  const double horizon = script_.total_duration();
  sim_.run_until(horizon + 0.5);

  std::vector<StreamedClassification> results;
  if (!model) return results;
  if (!model->trained()) {
    throw std::logic_error("StreamingPipeline::run: model not trained");
  }

  // Per-timestep classification: at each step after the first full window,
  // take the aligned IMU history [t-5s, t) and the frame nearest t.
  const auto streams = imu_streams();
  const double step = config_.controller.alignment_dt_s;
  const int edge = config_.render.size;

  for (double t = imu::kWindowSeconds; t < horizon; t += 1.0) {
    DARNET_TIMER("core/pipeline_step_ns");
    const auto rows = controller_->aligned_window(
        streams, t - imu::kWindowSeconds, t);
    if (rows.size() < imu::kWindowSteps) continue;  // warm-up or gaps
    (void)step;

    Tensor window({1, imu::kWindowSteps, imu::kImuChannels});
    const std::size_t take = rows.size() - imu::kWindowSteps;
    for (int r = 0; r < imu::kWindowSteps; ++r) {
      const auto& row = rows[take + static_cast<std::size_t>(r)];
      if (row.size() != imu::kImuChannels) {
        throw std::logic_error("StreamingPipeline: bad aligned row width");
      }
      std::copy(row.begin(), row.end(),
                window.data() +
                    static_cast<std::size_t>(r) * imu::kImuChannels);
    }

    // Frames are discrete captures: take the nearest one, never a linear
    // blend of two (a camera does not interpolate).
    const auto frame_values = controller_->store().nearest("camera", t);
    if (!frame_values ||
        frame_values->size() != static_cast<std::size_t>(edge) * edge) {
      continue;
    }
    Tensor frame({1, 1, edge, edge});
    std::copy(frame_values->begin(), frame_values->end(), frame.data());

    StreamedClassification out;
    out.time = t;
    out.actual = static_cast<int>(script_.behaviour_at(t));
    {
      DARNET_SPAN("core/infer");
      out.distribution = model->classify(frame, window, kind);
    }
    out.predicted = tensor::argmax(std::span<const float>(
        out.distribution.data(),
        static_cast<std::size_t>(out.distribution.dim(1))));
    results.push_back(std::move(out));
  }
  return results;
}

const sim::LinkStats& StreamingPipeline::camera_link_stats() const {
  return camera_up_->stats();
}
const sim::LinkStats& StreamingPipeline::phone_link_stats() const {
  return phone_up_->stats();
}

}  // namespace darnet::core
