#include "nn/checkpoint.hpp"

#include <fstream>

namespace darnet::nn {

namespace {
constexpr std::uint32_t kMagic = 0x44724e31;  // "DrN1"
constexpr std::uint32_t kVersion = 2;  // 2: Dense weights are [out, in]
}  // namespace

void save_checkpoint(Sequential& model, const std::string& path) {
  util::BinaryWriter writer;
  writer.write_u32(kMagic);
  writer.write_u32(kVersion);
  model.save_params(writer);

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("save_checkpoint: cannot open " + path);
  }
  out.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.size()));
  if (!out) throw std::runtime_error("save_checkpoint: write failed");
}

void load_checkpoint(Sequential& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_checkpoint: cannot open " + path);
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  util::BinaryReader reader(bytes);
  if (reader.read_u32() != kMagic) {
    throw std::runtime_error("load_checkpoint: not a DarNet checkpoint: " +
                             path);
  }
  if (reader.read_u32() != kVersion) {
    throw std::runtime_error("load_checkpoint: unsupported version in " +
                             path);
  }
  model.load_params(reader);
}

std::size_t transfer_matching_params(Sequential& source,
                                     Sequential& destination) {
  const auto src = source.params();
  const auto dst = destination.params();
  std::size_t copied = 0;
  for (std::size_t i = 0; i < src.size() && i < dst.size(); ++i) {
    if (!src[i]->value.same_shape(dst[i]->value)) break;
    dst[i]->value = src[i]->value;
    dst[i]->grad = Tensor(dst[i]->value.shape());
    ++copied;
  }
  return copied;
}

}  // namespace darnet::nn
