// Tests for cross-architecture weight transfer, auxiliary pretraining,
// and full-facade persistence (DarNet::save / DarNet::load).
#include <gtest/gtest.h>

#include <cstdio>

#include "core/darnet.hpp"
#include "core/pretrain.hpp"
#include "nn/checkpoint.hpp"
#include "nn/dense.hpp"

namespace {

using namespace darnet;
using tensor::Tensor;

TEST(Transfer, CopiesLongestMatchingPrefix) {
  util::Rng rng(1);
  nn::Sequential src, dst;
  src.emplace<nn::Dense>(4, 8, rng);   // matches
  src.emplace<nn::Dense>(8, 18, rng);  // head: mismatched out dim
  dst.emplace<nn::Dense>(4, 8, rng);
  dst.emplace<nn::Dense>(8, 6, rng);

  const auto copied = nn::transfer_matching_params(src, dst);
  // Dense #1 contributes weight+bias; the second weight mismatches.
  EXPECT_EQ(copied, 2u);
  const auto sp = src.params();
  const auto dp = dst.params();
  for (std::size_t i = 0; i < copied; ++i) {
    for (std::size_t j = 0; j < sp[i]->value.numel(); ++j) {
      ASSERT_EQ(sp[i]->value[j], dp[i]->value[j]);
    }
  }
  // The mismatched head must be untouched (18 != 6 shapes anyway).
  EXPECT_EQ(dp[2]->value.dim(0), 6);
}

TEST(Transfer, NothingCopiedOnImmediateMismatch) {
  util::Rng rng(2);
  nn::Sequential src, dst;
  src.emplace<nn::Dense>(4, 8, rng);
  dst.emplace<nn::Dense>(5, 8, rng);
  EXPECT_EQ(nn::transfer_matching_params(src, dst), 0u);
}

TEST(Pretrain, TransfersFeatureExtractorIntoSixClassModel) {
  engine::FrameCnnConfig cfg;
  cfg.input_size = 16;  // small for test speed
  cfg.num_classes = 6;
  nn::Sequential cnn = engine::build_frame_cnn(cfg);
  const Tensor before_head =
      cnn.params().back()->value;  // head bias, stays random

  core::PretrainConfig pre;
  pre.samples_per_class = 3;
  pre.epochs = 1;
  const auto report = core::pretrain_frame_cnn(cnn, 16, pre);
  EXPECT_GT(report.params_transferred, 10u);
  EXPECT_GT(report.seconds, 0.0);
  // The 6-class head (last dense) must not have been replaced by the
  // 18-class aux head.
  EXPECT_EQ(cnn.params().back()->value.numel(), before_head.numel());
}

TEST(DarNetPersistence, SaveLoadRoundTripsAllModels) {
  core::DatasetConfig data_cfg;
  data_cfg.scale = 0.004;
  data_cfg.render.size = 16;
  const auto data = core::generate_dataset(data_cfg);

  core::DarNetConfig cfg;
  cfg.cnn.input_size = 16;
  cfg.cnn_epochs = 2;
  cfg.rnn_epochs = 2;
  core::DarNet original{cfg};
  original.train(data);

  const std::string path = "/tmp/darnet_bundle_test.bin";
  original.save(path);

  core::DarNet restored{cfg};
  EXPECT_FALSE(restored.trained());
  restored.load(path);
  EXPECT_TRUE(restored.trained());

  // All three architectures must classify identically.
  for (auto kind : {engine::ArchitectureKind::kCnnOnly,
                    engine::ArchitectureKind::kCnnSvm,
                    engine::ArchitectureKind::kCnnRnn}) {
    const Tensor a =
        original.classify(data.frames, data.imu_windows, kind);
    const Tensor b =
        restored.classify(data.frames, data.imu_windows, kind);
    ASSERT_TRUE(a.same_shape(b));
    for (std::size_t i = 0; i < a.numel(); ++i) {
      ASSERT_EQ(a[i], b[i]) << engine::architecture_name(kind);
    }
  }
  std::remove(path.c_str());
}

TEST(DarNetPersistence, SaveBeforeTrainThrows) {
  core::DarNet model{core::DarNetConfig{}};
  EXPECT_THROW(model.save("/tmp/never_written.bin"), std::logic_error);
}

TEST(DarNetPersistence, LoadRejectsForeignFiles) {
  const std::string path = "/tmp/darnet_not_a_bundle.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("junk", f);
    std::fclose(f);
  }
  core::DarNet model{core::DarNetConfig{}};
  EXPECT_THROW(model.load(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
