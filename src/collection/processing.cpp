#include "collection/processing.hpp"

#include <stdexcept>

namespace darnet::collection {

const char* placement_name(Placement placement) noexcept {
  switch (placement) {
    case Placement::kLocal:
      return "local";
    case Placement::kRemote:
      return "remote";
  }
  return "?";
}

NetworkEstimator::NetworkEstimator(double alpha) : alpha_(alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("NetworkEstimator: alpha must be in (0, 1]");
  }
}

void NetworkEstimator::observe(double rtt_s, double bandwidth_bps) {
  if (rtt_s < 0.0 || bandwidth_bps <= 0.0) {
    throw std::invalid_argument("NetworkEstimator: invalid measurement");
  }
  if (!observed_) {
    rtt_ = rtt_s;
    bandwidth_ = bandwidth_bps;
    observed_ = true;
    return;
  }
  rtt_ = (1.0 - alpha_) * rtt_ + alpha_ * rtt_s;
  bandwidth_ = (1.0 - alpha_) * bandwidth_ + alpha_ * bandwidth_bps;
}

void NetworkEstimator::observe_link(const sim::VirtualLink& link) {
  const auto& stats = link.stats();
  const double latency = stats.mean_latency_s();
  if (latency <= 0.0) return;  // nothing delivered yet
  observe(2.0 * latency, link.config().bandwidth_bps);
}

double predicted_latency_s(Placement placement, const ComputeProfile& profile,
                           const NetworkEstimator& network) {
  if (placement == Placement::kLocal) return profile.local_inference_s;
  if (!network.has_estimate()) {
    throw std::logic_error("predicted_latency_s: no network estimate");
  }
  // Ship the payload, classify on the server, return the verdict (verdict
  // bytes are negligible; one extra one-way latency covers them).
  const double transfer = static_cast<double>(profile.remote_payload_bytes) *
                          8.0 / network.bandwidth_bps();
  return network.rtt_s() + transfer + profile.remote_inference_s;
}

ProcessingDecision::ProcessingDecision(ComputeProfile profile,
                                       double switch_margin)
    : profile_(profile), margin_(switch_margin) {
  if (switch_margin < 0.0 || switch_margin >= 1.0) {
    throw std::invalid_argument(
        "ProcessingDecision: margin must be in [0, 1)");
  }
}

Placement ProcessingDecision::decide(const NetworkEstimator& network) {
  if (!network.has_estimate()) {
    current_ = Placement::kLocal;
    return current_;
  }
  const double local = predicted_latency_s(Placement::kLocal, profile_,
                                           network);
  const double remote = predicted_latency_s(Placement::kRemote, profile_,
                                            network);
  // Hysteresis: the challenger must beat the incumbent by the margin.
  if (current_ == Placement::kLocal) {
    if (remote < local * (1.0 - margin_)) current_ = Placement::kRemote;
  } else {
    if (local < remote * (1.0 - margin_)) current_ = Placement::kLocal;
  }
  return current_;
}

}  // namespace darnet::collection
