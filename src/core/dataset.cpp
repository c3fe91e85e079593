#include "core/dataset.hpp"

#include "nn/trainer.hpp"
#include "obs/obs.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace darnet::core {

std::array<int, 6> scaled_counts(double scale) {
  if (scale <= 0.0 || scale > 1.0) {
    throw std::invalid_argument("scaled_counts: scale must be in (0, 1]");
  }
  std::array<int, 6> counts{};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = std::max(
        2, static_cast<int>(std::lround(kPaperFrameCounts[i] * scale)));
  }
  return counts;
}

imu::PhoneOrientation orientation_for(vision::DriverClass cls,
                                      util::Rng& rng) {
  using vision::DriverClass;
  switch (cls) {
    case DriverClass::kTalking:
      return rng.chance(0.5) ? imu::PhoneOrientation::kTalkingLeft
                             : imu::PhoneOrientation::kTalkingRight;
    case DriverClass::kTexting:
      return rng.chance(0.5) ? imu::PhoneOrientation::kTextingLeft
                             : imu::PhoneOrientation::kTextingRight;
    case DriverClass::kNormal:
    case DriverClass::kEating:
    case DriverClass::kHairMakeup:
    case DriverClass::kReaching:
      return imu::PhoneOrientation::kPocket;
  }
  return imu::PhoneOrientation::kPocket;
}

Dataset generate_dataset(const DatasetConfig& config) {
  DARNET_SPAN("core/datagen");
  const auto counts = scaled_counts(config.scale);
  const int total = std::accumulate(counts.begin(), counts.end(), 0);
  const int s = config.render.size;

  Dataset data;
  data.frames = Tensor({total, 1, s, s});
  data.imu_windows = Tensor({total, imu::kWindowSteps, imu::kImuChannels});
  data.labels.reserve(total);
  data.imu_labels.reserve(total);
  data.driver_ids.reserve(total);

  if (config.num_drivers < 1) {
    throw std::invalid_argument("generate_dataset: need >= 1 driver");
  }
  util::Rng rng(config.seed);

  // Each driver's habits bias both modalities consistently.
  std::vector<vision::RenderConfig> render_cfgs;
  std::vector<imu::ImuGenConfig> imu_cfgs;
  for (int d = 0; d < config.num_drivers; ++d) {
    const DriverStyle style = (config.num_drivers == 1)
                                  ? DriverStyle::neutral()
                                  : DriverStyle::sample(rng);
    render_cfgs.push_back(style.applied_to(config.render));
    imu_cfgs.push_back(style.applied_to(config.imu));
  }

  const std::size_t frame_stride = static_cast<std::size_t>(s) * s;
  const std::size_t window_stride =
      static_cast<std::size_t>(imu::kWindowSteps) * imu::kImuChannels;

  // One RNG drives every row in order, so a seed fixes the whole dataset.
  std::size_t row = 0;
  for (int cls = 0; cls < vision::kDriverClassCount; ++cls) {
    const auto driver_class = static_cast<vision::DriverClass>(cls);
    for (int i = 0; i < counts[static_cast<std::size_t>(cls)]; ++i, ++row) {
      const int driver = i % config.num_drivers;
      const vision::Image frame = vision::render_driver_scene(
          driver_class, render_cfgs[static_cast<std::size_t>(driver)], rng);
      std::copy(frame.pixels().begin(), frame.pixels().end(),
                data.frames.data() + row * frame_stride);

      const imu::PhoneOrientation orientation =
          orientation_for(driver_class, rng);
      const auto trace = imu::generate_trace(
          orientation, imu_cfgs[static_cast<std::size_t>(driver)], rng);
      const Tensor window = imu::to_window(trace);
      std::copy(window.data(), window.data() + window_stride,
                data.imu_windows.data() + row * window_stride);

      data.labels.push_back(cls);
      data.imu_labels.push_back(
          static_cast<int>(imu::imu_class_of(orientation)));
      data.driver_ids.push_back(driver);
    }
  }
  return data;
}

namespace {

Dataset take_rows(const Dataset& data, std::span<const std::size_t> rows) {
  Dataset out;
  out.frames = nn::gather_rows(data.frames, rows);
  out.imu_windows = nn::gather_rows(data.imu_windows, rows);
  out.labels.reserve(rows.size());
  out.imu_labels.reserve(rows.size());
  out.driver_ids.reserve(rows.size());
  for (std::size_t r : rows) {
    out.labels.push_back(data.labels[r]);
    out.imu_labels.push_back(data.imu_labels[r]);
    out.driver_ids.push_back(data.driver_ids[r]);
  }
  return out;
}

}  // namespace

TrainEvalSplit split_dataset(const Dataset& data, double train_fraction,
                             std::uint64_t seed) {
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw std::invalid_argument("split_dataset: fraction must be in (0, 1)");
  }
  const auto n = static_cast<std::size_t>(data.size());
  if (n < 2) throw std::invalid_argument("split_dataset: dataset too small");

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  util::Rng rng(seed);
  rng.shuffle(order);

  const auto cut = std::max<std::size_t>(
      1, std::min(n - 1,
                  static_cast<std::size_t>(std::lround(
                      train_fraction * static_cast<double>(n)))));
  TrainEvalSplit result;
  result.train = take_rows(
      data, std::span<const std::size_t>(order.data(), cut));
  result.eval = take_rows(
      data, std::span<const std::size_t>(order.data() + cut, n - cut));
  return result;
}

TrainEvalSplit split_leave_one_driver_out(const Dataset& data,
                                          int held_out_driver) {
  if (data.driver_ids.size() != static_cast<std::size_t>(data.size())) {
    throw std::invalid_argument(
        "split_leave_one_driver_out: dataset carries no driver ids");
  }
  std::vector<std::size_t> train_rows, eval_rows;
  for (std::size_t i = 0; i < data.driver_ids.size(); ++i) {
    (data.driver_ids[i] == held_out_driver ? eval_rows : train_rows)
        .push_back(i);
  }
  if (train_rows.empty() || eval_rows.empty()) {
    throw std::invalid_argument(
        "split_leave_one_driver_out: held-out driver absent or universal");
  }
  TrainEvalSplit result;
  result.train = take_rows(data, train_rows);
  result.eval = take_rows(data, eval_rows);
  return result;
}

FineDataset generate_fine_dataset(int samples_per_class,
                                  const vision::RenderConfig& render,
                                  std::uint64_t seed) {
  if (samples_per_class <= 0) {
    throw std::invalid_argument("generate_fine_dataset: need > 0 samples");
  }
  const int total = samples_per_class * vision::kFineClassCount;
  const int s = render.size;
  FineDataset data;
  data.frames = Tensor({total, 1, s, s});
  data.labels.reserve(total);

  util::Rng rng(seed);
  const std::size_t stride = static_cast<std::size_t>(s) * s;
  std::size_t row = 0;
  for (int cls = 0; cls < vision::kFineClassCount; ++cls) {
    for (int i = 0; i < samples_per_class; ++i, ++row) {
      const vision::Image frame = vision::render_fine_scene(cls, render, rng);
      std::copy(frame.pixels().begin(), frame.pixels().end(),
                data.frames.data() + row * stride);
      data.labels.push_back(cls);
    }
  }
  return data;
}

std::vector<std::string> driver_class_names() {
  std::vector<std::string> names;
  names.reserve(vision::kDriverClassCount);
  for (int c = 0; c < vision::kDriverClassCount; ++c) {
    names.emplace_back(
        vision::driver_class_name(static_cast<vision::DriverClass>(c)));
  }
  return names;
}

}  // namespace darnet::core
