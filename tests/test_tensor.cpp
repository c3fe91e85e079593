// Unit tests for the tensor substrate.
#include <gtest/gtest.h>

#include <vector>

#include "tensor/arena.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace {

using darnet::tensor::Tensor;
namespace ops = darnet::tensor;

TEST(Tensor, ZeroInitialised) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  for (float v : t.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, RejectsNonPositiveDims) {
  EXPECT_THROW(Tensor({2, 0}), std::invalid_argument);
  EXPECT_THROW(Tensor({-1}), std::invalid_argument);
}

TEST(Tensor, CheckedAccessByRank) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t.at(1, 2, 3, 4), 7.0f);
  EXPECT_THROW(t.at(2, 0, 0, 0), std::out_of_range);
  EXPECT_THROW(t.at(0, 0), std::out_of_range);  // wrong rank
}

TEST(Tensor, RowMajorLayout) {
  Tensor t({2, 3});
  t.at(0, 2) = 1.0f;
  t.at(1, 0) = 2.0f;
  EXPECT_EQ(t[2], 1.0f);
  EXPECT_EQ(t[3], 2.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3});
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 5.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, SerializationRoundTrip) {
  darnet::util::Rng rng(3);
  Tensor t = Tensor::he_normal({3, 4, 2}, 12, rng);
  darnet::util::BinaryWriter w;
  t.serialize(w);
  darnet::util::BinaryReader r(w.bytes());
  Tensor u = Tensor::deserialize(r);
  ASSERT_TRUE(u.same_shape(t));
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], u[i]);
}

TEST(Tensor, HeNormalStddevScalesWithFanIn) {
  darnet::util::Rng rng(4);
  Tensor t = Tensor::he_normal({200, 200}, 50, rng);
  double sq = 0.0;
  for (float v : t.flat()) sq += static_cast<double>(v) * v;
  const double stddev = std::sqrt(sq / static_cast<double>(t.numel()));
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 50), 0.01);
}

TEST(Ops, MatmulMatchesHandComputation) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  for (int i = 0; i < 6; ++i) a[i] = static_cast<float>(i + 1);
  for (int i = 0; i < 6; ++i) b[i] = static_cast<float>(i + 7);
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(Ops, MatmulShapeChecks) {
  Tensor a({2, 3}), b({2, 2});
  EXPECT_THROW(ops::matmul(a, b), std::invalid_argument);
}

TEST(Ops, TransposedVariantsAgreeWithExplicitTranspose) {
  darnet::util::Rng rng(5);
  Tensor a = Tensor::uniform({4, 6}, 1.0f, rng);
  Tensor b = Tensor::uniform({6, 5}, 1.0f, rng);

  // matmul_bt(a, b^T) == a * b.
  Tensor bt = ops::transpose(b);
  Tensor c1 = ops::matmul(a, b);
  Tensor c2 = ops::matmul_bt(a, bt);
  ASSERT_TRUE(c1.same_shape(c2));
  for (std::size_t i = 0; i < c1.numel(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-4f);
  }

  // matmul_at(a^T, b2) == a * b2 where a^T is stored transposed.
  Tensor at = ops::transpose(a);
  Tensor c3 = ops::matmul_at(at, b);
  for (std::size_t i = 0; i < c1.numel(); ++i) {
    EXPECT_NEAR(c1[i], c3[i], 1e-4f);
  }
}

TEST(Ops, SoftmaxRowsNormalisedAndOrderPreserving) {
  Tensor logits({2, 3});
  logits.at(0, 0) = 1.0f;
  logits.at(0, 1) = 2.0f;
  logits.at(0, 2) = 3.0f;
  logits.at(1, 0) = 100.0f;  // large values: numerical stability
  logits.at(1, 1) = 100.0f;
  logits.at(1, 2) = 100.0f;
  Tensor p = ops::softmax_rows(logits);
  double row0 = p.at(0, 0) + p.at(0, 1) + p.at(0, 2);
  EXPECT_NEAR(row0, 1.0, 1e-5);
  EXPECT_LT(p.at(0, 0), p.at(0, 1));
  EXPECT_LT(p.at(0, 1), p.at(0, 2));
  EXPECT_NEAR(p.at(1, 0), 1.0f / 3.0f, 1e-5);
}

TEST(Ops, ElementwiseHelpers) {
  Tensor a({3});
  Tensor b({3});
  for (int i = 0; i < 3; ++i) {
    a[i] = static_cast<float>(i + 1);
    b[i] = 2.0f;
  }
  ops::add_inplace(a, b);  // a = [3,4,5]
  EXPECT_EQ(a[2], 5.0f);
  ops::axpy(0.5f, b, a);  // a = [4,5,6]
  EXPECT_EQ(a[0], 4.0f);
  ops::scale_inplace(a, 2.0f);
  EXPECT_EQ(a[2], 12.0f);
  Tensor h = ops::hadamard(a, b);
  EXPECT_EQ(h[0], 16.0f);  // 8 * 2
  EXPECT_DOUBLE_EQ(ops::sum(b), 6.0);
  EXPECT_DOUBLE_EQ(ops::mean(b), 2.0);
  EXPECT_EQ(ops::max_value(a), 12.0f);
}

TEST(Ops, ArgmaxPicksFirstMaximum) {
  std::vector<float> v{1.0f, 5.0f, 5.0f, 2.0f};
  EXPECT_EQ(ops::argmax(v), 1);
  EXPECT_THROW((void)ops::argmax(std::span<const float>{}), std::invalid_argument);
}

TEST(Arena, ForeignBlocksFreedInScopeDoNotGrowTheCache) {
  // A server frees request tensors built on another thread inside a shard
  // worker's scope. The arena may keep what its own peak demand needs,
  // and must hand the rest back to the heap rather than grow forever.
  constexpr std::size_t kFloats = 256;
  constexpr std::size_t kBlockBytes = kFloats * sizeof(float);
  std::vector<darnet::tensor::Storage> foreign;
  foreign.reserve(10000);
  for (int i = 0; i < 10000; ++i) foreign.emplace_back(kFloats);

  darnet::tensor::Arena arena;
  {
    darnet::tensor::ArenaScope scope(arena);
    {
      // The arena's own working set: two blocks live at once.
      darnet::tensor::Storage a(kFloats);
      darnet::tensor::Storage b(kFloats);
    }
    foreign.clear();
    EXPECT_LE(arena.bytes_cached(), 2 * kBlockBytes);
    // The working set is still served from the cache.
    darnet::tensor::Storage a(kFloats);
    darnet::tensor::Storage b(kFloats);
    EXPECT_EQ(arena.heap_allocs(), 2u);
  }
  EXPECT_LE(arena.bytes_cached(), 2 * kBlockBytes);
}

}  // namespace
