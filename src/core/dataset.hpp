// Dataset assembly mirroring the paper's two collections (Section 5.1).
//
// The 6-class dataset reproduces Table 1: per-class frame counts in the
// paper's exact proportions (optionally scaled down -- training a CNN on
// all 57,080 frames is a compute gate on a 1-core substrate), each frame
// paired with a 20-step IMU window whose phone orientation matches the
// behaviour (classes without phone use place the device in the pocket and
// count as IMU "normal driving"). The 18-class dataset drives the privacy
// evaluation of Section 5.3.
#pragma once

#include <array>

#include "core/driver_style.hpp"
#include "imu/imu.hpp"
#include "vision/renderer.hpp"

namespace darnet::core {

using tensor::Tensor;

/// Table 1 frame counts, paper order (normal, talking, texting,
/// eating/drinking, hair/makeup, reaching).
inline constexpr std::array<int, 6> kPaperFrameCounts = {
    5286, 10352, 9422, 9463, 4848, 17709};
inline constexpr int kPaperTotalFrames = 57080;

struct DatasetConfig {
  /// Fraction of the paper's per-class counts to generate (1.0 = all
  /// 57,080 frames; benches default far lower -- see DESIGN.md).
  double scale = 0.04;
  vision::RenderConfig render;
  imu::ImuGenConfig imu;
  /// The study collected from 5 drivers; each gets a sampled DriverStyle
  /// that biases both modalities consistently. 1 disables heterogeneity.
  int num_drivers = 5;
  std::uint64_t seed = 42;
};

/// A paired multimodal dataset. Row i of every member describes sample i.
struct Dataset {
  Tensor frames;        // [N, 1, S, S]
  Tensor imu_windows;   // [N, 20, 13]
  std::vector<int> labels;      // image class, 0..5
  std::vector<int> imu_labels;  // IMU class, 0..2
  std::vector<int> driver_ids;  // which driver acted the sample

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(labels.size());
  }
};

/// Per-class sample counts implied by a config (round(scale * paper)).
[[nodiscard]] std::array<int, 6> scaled_counts(double scale);

/// Generate the 6-class multimodal dataset.
[[nodiscard]] Dataset generate_dataset(const DatasetConfig& config);

/// Shuffled train/eval split ("we divide the collected dataset into an
/// 80/20 partition").
struct TrainEvalSplit {
  Dataset train;
  Dataset eval;
};
[[nodiscard]] TrainEvalSplit split_dataset(const Dataset& data,
                                           double train_fraction,
                                           std::uint64_t seed);

/// Leave-one-driver-out split: train on every driver except `held_out`,
/// evaluate only on `held_out` -- measures generalisation to unseen
/// drivers (the "larger participant study" concern of Section 5.2).
[[nodiscard]] TrainEvalSplit split_leave_one_driver_out(const Dataset& data,
                                                        int held_out_driver);

/// The phone orientation used when acting out an image class (texting /
/// talking pick a hand at random; everything else rides in the pocket).
[[nodiscard]] imu::PhoneOrientation orientation_for(vision::DriverClass cls,
                                                    util::Rng& rng);

/// The 18-class frames-only dataset of Section 5.3 (IMU not collected for
/// that study -- it was recorded with a GoPro alone).
struct FineDataset {
  Tensor frames;  // [N, 1, S, S]
  std::vector<int> labels;  // 0..17
};
[[nodiscard]] FineDataset generate_fine_dataset(
    int samples_per_class, const vision::RenderConfig& render,
    std::uint64_t seed);

/// Human-readable class names, Table 1 order.
[[nodiscard]] std::vector<std::string> driver_class_names();

}  // namespace darnet::core
