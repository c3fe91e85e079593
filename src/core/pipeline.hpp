// End-to-end streaming deployment (Figures 1-2): two simulated devices --
// a dashcam tablet (camera agent + controller, the paper's Nexus 7) and
// the driver's phone (IMU agent, the Nexus S) -- joined by virtual links,
// feeding the analytics engine for per-timestep classification.
//
// A driving session follows the paper's collection protocol: the driver
// performs scripted distractions, each held for a fixed duration
// (15 seconds in the study), in sequence.
#pragma once

#include <memory>

#include "collection/agent.hpp"
#include "collection/controller.hpp"
#include "core/darnet.hpp"

namespace darnet::core {

/// One scripted behaviour segment.
struct SessionSegment {
  vision::DriverClass behaviour{vision::DriverClass::kNormal};
  double duration_s{15.0};
};

/// A full scripted session ("each driver was instructed to perform a
/// scripted set of distractions for a duration of 15 seconds").
struct SessionScript {
  std::vector<SessionSegment> segments;

  [[nodiscard]] double total_duration() const noexcept;
  /// Behaviour active at time t (clamped to the last segment).
  [[nodiscard]] vision::DriverClass behaviour_at(double t) const;

  /// The paper's script: all six behaviours in order, `repeats` times.
  static SessionScript paper_script(int repeats = 1,
                                    double segment_s = 15.0);
};

struct PipelineConfig {
  vision::RenderConfig render;
  imu::ImuGenConfig imu;
  collection::ControllerConfig controller;
  sim::LinkConfig camera_link;  // tablet-internal: effectively ideal
  sim::LinkConfig phone_link;   // Bluetooth-like
  double camera_period_s = 0.25;       // frame poll period
  double imu_period_s = 0.025;         // Android sensor listeners: 25 ms
  double phone_drift_ppm = 180.0;      // the Nexus S clock drifts
  double camera_drift_ppm = 0.0;       // controller host == camera host
  std::uint64_t seed = 99;
};

/// One per-timestep classification emitted while streaming.
struct StreamedClassification {
  double time{0.0};
  int predicted{0};
  int actual{0};
  Tensor distribution;  // [1, 6]
};

/// Builds and runs the simulated deployment.
class StreamingPipeline {
 public:
  StreamingPipeline(SessionScript script, PipelineConfig config);

  /// Run the whole session through the collection framework. Classification
  /// requires a trained DarNet; pass nullptr to only exercise collection.
  std::vector<StreamedClassification> run(
      DarNet* model,
      engine::ArchitectureKind kind = engine::ArchitectureKind::kCnnRnn);

  [[nodiscard]] const collection::Controller& controller() const noexcept {
    return *controller_;
  }
  [[nodiscard]] const sim::LinkStats& camera_link_stats() const;
  [[nodiscard]] const sim::LinkStats& phone_link_stats() const;
  [[nodiscard]] double phone_clock_error() const noexcept {
    return phone_agent_->clock_error_now();
  }

  /// The IMU stream names in the order they are concatenated (13 channels).
  [[nodiscard]] static std::vector<std::string> imu_streams();

 private:
  void build();

  SessionScript script_;
  PipelineConfig config_;
  util::Rng rng_;

  sim::Simulation sim_;
  std::unique_ptr<sim::VirtualLink> camera_up_, camera_down_;
  std::unique_ptr<sim::VirtualLink> phone_up_, phone_down_;
  std::unique_ptr<collection::Controller> controller_;
  std::unique_ptr<collection::CollectionAgent> camera_agent_, phone_agent_;

  // Pre-generated per-segment IMU traces sampled by the phone sensors.
  std::vector<std::vector<imu::ImuSample>> segment_traces_;
  std::vector<double> segment_starts_;

  [[nodiscard]] const imu::ImuSample& sample_at(double t) const;
};

}  // namespace darnet::core
