// Session recording and replay (Section 4.1: "The data is transferred and
// processed in an offline manner").
//
// The controller's inbound byte stream (registration + data batches) is
// appended to a recording together with arrival timestamps; a recording
// can be serialised to bytes / a file and later replayed into any
// Controller -- through a fresh Simulation, preserving inter-arrival
// timing -- or drained directly for offline (batch) processing. This is
// also the mechanism for building labelled datasets from collected
// sessions, the paper's stated use for the open-sourced recorder.
#pragma once

#include <string>
#include <vector>

#include "collection/controller.hpp"
#include "sim/queue.hpp"

namespace darnet::collection {

/// One captured controller-inbound message.
struct RecordedMessage {
  double arrival_time{0.0};
  std::vector<std::uint8_t> payload;
};

class SessionRecording {
 public:
  /// Append a message observed at `arrival_time` (monotone non-decreasing).
  void append(double arrival_time, std::vector<std::uint8_t> payload);

  [[nodiscard]] const std::vector<RecordedMessage>& messages() const noexcept {
    return messages_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return messages_.size(); }
  [[nodiscard]] bool empty() const noexcept { return messages_.empty(); }
  [[nodiscard]] double duration() const noexcept {
    return messages_.empty() ? 0.0 : messages_.back().arrival_time;
  }

  /// Deliver every message into `controller` immediately, in order
  /// (offline batch processing).
  void drain_into(Controller& controller) const;

  /// Schedule every message into `controller` at its original arrival
  /// time on `sim` (timing-faithful replay). The caller runs the sim.
  void replay_into(sim::Simulation& sim, Controller& controller) const;

  void serialize(util::BinaryWriter& writer) const;
  static SessionRecording deserialize(util::BinaryReader& reader);

  void save(const std::string& path) const;
  static SessionRecording load(const std::string& path);

 private:
  std::vector<RecordedMessage> messages_;
};

/// A tee: wraps a controller handler so every inbound payload is both
/// recorded (with the simulation's current time) and delivered.
class RecordingTap {
 public:
  RecordingTap(sim::Simulation& sim, Controller& controller,
               SessionRecording& recording)
      : sim_(&sim), controller_(&controller), recording_(&recording) {}

  void operator()(std::vector<std::uint8_t> payload) {
    recording_->append(sim_->now(), payload);
    controller_->on_message(payload);
  }

 private:
  sim::Simulation* sim_;
  Controller* controller_;
  SessionRecording* recording_;
};

}  // namespace darnet::collection
