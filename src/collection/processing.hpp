// Processing-placement decision (Section 3.2, "Processing Decision").
//
// "In determining where the data should be processed, the controller can
// choose between a local and remote configuration. A remote server would
// have a greater amount of processing power ... However, under poor
// network conditions, the controller has the option of processing all
// data locally, albeit slower. ... the system must have a sense of
// processing capability, network bandwidth and latency."
//
// The decision model estimates the end-to-end latency of classifying one
// frame+window pair under each placement and picks the smaller, with a
// hysteresis margin so the placement does not flap under jittery
// measurements.
#pragma once

#include <cstddef>

#include "sim/link.hpp"

namespace darnet::collection {

enum class Placement { kLocal, kRemote };

[[nodiscard]] const char* placement_name(Placement placement) noexcept;

/// Static description of the two compute targets.
struct ComputeProfile {
  /// Seconds to classify one frame+window locally (edge device).
  double local_inference_s = 0.080;
  /// Seconds to classify one frame+window remotely (server).
  double remote_inference_s = 0.004;
  /// Payload shipped per classification when remote (bytes); depends on
  /// the privacy level (full frame vs down-sampled).
  std::size_t remote_payload_bytes = 48 * 48 + 1;
};

/// A smoothed view of the uplink, fed by periodic measurements.
class NetworkEstimator {
 public:
  /// `alpha`: EWMA weight of the newest measurement.
  explicit NetworkEstimator(double alpha = 0.3);

  /// Record one measurement (e.g. from VirtualLink stats deltas).
  void observe(double rtt_s, double bandwidth_bps);

  /// Ingest a link's cumulative stats directly (latency from the mean,
  /// bandwidth from the configured channel rate).
  void observe_link(const sim::VirtualLink& link);

  [[nodiscard]] double rtt_s() const noexcept { return rtt_; }
  [[nodiscard]] double bandwidth_bps() const noexcept { return bandwidth_; }
  [[nodiscard]] bool has_estimate() const noexcept { return observed_; }

 private:
  double alpha_;
  double rtt_{0.0};
  double bandwidth_{0.0};
  bool observed_{false};
};

/// Predicted per-classification latency under a placement.
[[nodiscard]] double predicted_latency_s(Placement placement,
                                         const ComputeProfile& profile,
                                         const NetworkEstimator& network);

/// The controller's placement policy with hysteresis.
class ProcessingDecision {
 public:
  /// `switch_margin`: the challenger placement must be at least this
  /// fraction faster before the policy switches (default 20%).
  explicit ProcessingDecision(ComputeProfile profile,
                              double switch_margin = 0.2);

  /// Re-evaluate against the latest network estimate; returns the chosen
  /// placement. Without any network estimate the decision is local (no
  /// link to ship on).
  Placement decide(const NetworkEstimator& network);

  [[nodiscard]] Placement current() const noexcept { return current_; }
  [[nodiscard]] const ComputeProfile& profile() const noexcept {
    return profile_;
  }
  void set_profile(ComputeProfile profile) noexcept { profile_ = profile; }

 private:
  ComputeProfile profile_;
  double margin_;
  Placement current_{Placement::kLocal};
};

}  // namespace darnet::collection
