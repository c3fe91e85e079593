// Sensor abstraction polled by a collection agent.
//
// "The responsibilities of the agent include periodically polling the
// device's sensor, maintaining an internal clock for timestamping the
// data, and transmitting the data to the centralized controller at a
// specified frequency. ... The implementation of each agent is specific
// to the system and sensors in which it is embedded." (Section 3.1)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.hpp"

namespace darnet::collection {

class Sensor {
 public:
  virtual ~Sensor() = default;

  /// Stream identifier, unique within a deployment ("imu.accel", "camera").
  [[nodiscard]] virtual const std::string& stream() const = 0;

  /// Sample the sensor at true simulation time `now`. The agent never sees
  /// `now` directly -- it stamps the reading with its own drifting clock.
  virtual std::vector<float> sample(sim::SimTime now) = 0;

  /// Native polling period (the paper's Android listeners fire every 25 ms).
  [[nodiscard]] virtual double poll_period_s() const = 0;
};

/// Adapts a callable into a Sensor; covers every sensor in the deployment
/// (the IMU channels read from a generated trace, the camera reads frames
/// from the scene renderer).
class CallbackSensor final : public Sensor {
 public:
  using Sampler = std::function<std::vector<float>(sim::SimTime)>;

  CallbackSensor(std::string stream, double poll_period_s, Sampler sampler);

  [[nodiscard]] const std::string& stream() const override { return stream_; }
  std::vector<float> sample(sim::SimTime now) override { return sampler_(now); }
  [[nodiscard]] double poll_period_s() const override { return period_; }

 private:
  std::string stream_;
  double period_;
  Sampler sampler_;
};

}  // namespace darnet::collection
