#include "core/darnet.hpp"

#include <fstream>

#include "imu/imu.hpp"
#include "util/stopwatch.hpp"

namespace darnet::core {

DarNet::DarNet(DarNetConfig config)
    : config_(config),
      cnn_(std::make_shared<nn::Sequential>(
          engine::build_frame_cnn(config.cnn))),
      rnn_(std::make_shared<nn::Sequential>(engine::build_imu_rnn(config.rnn))),
      svm_(std::make_shared<svm::LinearSvm>(
          imu::kWindowSteps * imu::kImuChannels, config.rnn.num_classes)),
      cnn_classifier_(std::make_shared<engine::NeuralClassifier>(
          cnn_, config.cnn.num_classes, "MicroInception CNN")),
      rnn_classifier_(std::make_shared<engine::NeuralClassifier>(
          rnn_, config.rnn.num_classes, "BiLSTM RNN")),
      svm_classifier_(std::make_shared<engine::SvmClassifier>(svm_)),
      cnn_only_(std::make_shared<engine::EnsembleClassifier>(
          cnn_classifier_, nullptr, bayes::ClassMap::darnet_default())),
      cnn_svm_(std::make_shared<engine::EnsembleClassifier>(
          cnn_classifier_, svm_classifier_,
          bayes::ClassMap::darnet_default())),
      cnn_rnn_(std::make_shared<engine::EnsembleClassifier>(
          cnn_classifier_, rnn_classifier_,
          bayes::ClassMap::darnet_default())) {}

TrainReport DarNet::train(const Dataset& train_data) {
  if (train_data.size() == 0) {
    throw std::invalid_argument("DarNet::train: empty dataset");
  }
  util::Stopwatch watch;
  TrainReport report;

  // Frame CNN: supervised on the 6 driver classes.
  {
    nn::Sgd optimizer(config_.cnn_lr, 0.9, 1e-4);
    nn::TrainConfig tc;
    tc.epochs = config_.cnn_epochs;
    tc.batch_size = config_.batch_size;
    tc.shuffle_seed = config_.seed;
    report.cnn_final_loss = nn::train_classifier(
        *cnn_, optimizer, train_data.frames, train_data.labels, tc);
  }

  // IMU BiLSTM: supervised on the 3 IMU classes.
  {
    nn::Adam optimizer(config_.rnn_lr);
    nn::TrainConfig tc;
    tc.epochs = config_.rnn_epochs;
    tc.batch_size = config_.batch_size;
    tc.shuffle_seed = config_.seed ^ 0xabcdULL;
    report.rnn_final_loss = nn::train_classifier(
        *rnn_, optimizer, train_data.imu_windows, train_data.imu_labels, tc);
  }

  // SVM baseline on the flattened windows.
  svm_->fit(imu::flatten_windows(train_data.imu_windows),
            train_data.imu_labels, config_.svm);

  // Ensemble CPTs are estimated from the models' outputs on training data
  // ("based on the number of true-positive observations from the training
  // data presented to the system").
  cnn_svm_->fit(train_data.frames, train_data.imu_windows, train_data.labels);
  cnn_rnn_->fit(train_data.frames, train_data.imu_windows, train_data.labels);

  trained_ = true;
  report.train_seconds = watch.seconds();
  return report;
}

engine::EnsembleClassifier& DarNet::ensemble(engine::ArchitectureKind kind) {
  return *ensemble_ptr(kind);
}

std::shared_ptr<engine::EnsembleClassifier> DarNet::ensemble_ptr(
    engine::ArchitectureKind kind) {
  switch (kind) {
    case engine::ArchitectureKind::kCnnOnly:
      return cnn_only_;
    case engine::ArchitectureKind::kCnnSvm:
      return cnn_svm_;
    case engine::ArchitectureKind::kCnnRnn:
      return cnn_rnn_;
  }
  throw std::invalid_argument("DarNet::ensemble: unknown architecture");
}

Tensor DarNet::classify(const Tensor& frames, const Tensor& imu_windows,
                        engine::ArchitectureKind kind) {
  if (!trained_) throw std::logic_error("DarNet::classify before train()");
  return ensemble(kind).classify_batch(frames, imu_windows);
}

namespace {
constexpr std::uint32_t kBundleMagic = 0x44724e42;  // "DrNB"
}  // namespace

void DarNet::save(const std::string& path) {
  if (!trained_) throw std::logic_error("DarNet::save before train()");
  util::BinaryWriter writer;
  writer.write_u32(kBundleMagic);
  cnn_->save_params(writer);
  rnn_->save_params(writer);
  svm_->serialize(writer);
  cnn_svm_->combiner().serialize(writer);
  cnn_rnn_->combiner().serialize(writer);

  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("DarNet::save: cannot open " + path);
  out.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.size()));
  if (!out) throw std::runtime_error("DarNet::save: write failed");
}

void DarNet::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("DarNet::load: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  util::BinaryReader reader(bytes);
  if (reader.read_u32() != kBundleMagic) {
    throw std::runtime_error("DarNet::load: not a DarNet bundle: " + path);
  }
  cnn_->load_params(reader);
  rnn_->load_params(reader);
  *svm_ = svm::LinearSvm::deserialize(reader);
  // Restore the fitted combiners in place: the ensembles (and any
  // shared handles to them held by serving tiers) keep their identity.
  auto svm_combiner = bayes::BayesianCombiner::deserialize(reader);
  auto rnn_combiner = bayes::BayesianCombiner::deserialize(reader);
  cnn_svm_->restore_combiner(std::move(svm_combiner));
  cnn_rnn_->restore_combiner(std::move(rnn_combiner));
  trained_ = true;
}

nn::ConfusionMatrix DarNet::evaluate(const Dataset& eval_data,
                                     engine::ArchitectureKind kind) {
  if (!trained_) throw std::logic_error("DarNet::evaluate before train()");
  return ensemble(kind).evaluate(eval_data.frames, eval_data.imu_windows,
                                 eval_data.labels, driver_class_names());
}

}  // namespace darnet::core
