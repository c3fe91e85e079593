// AVX2+FMA kernel TU. Compiled with -mavx2 -mfma -ffp-contract=fast via
// set_source_files_properties (src/tensor/CMakeLists.txt); the rest of
// the library never needs those flags, and the kernels are only ever
// reached after __builtin_cpu_supports confirms the CPU. Builds to a
// nullptr stub when the toolchain cannot target AVX2.
#include <cstdint>

#include "tensor/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#define DARNET_KERNEL_NS impl_avx2
#define DARNET_KERNEL_WIDTH 8
#include "tensor/kernels_vec.inc"
#undef DARNET_KERNEL_NS
#undef DARNET_KERNEL_WIDTH

namespace darnet::tensor::kernels {

const Kernels* avx2_kernels() {
  static constexpr Kernels k{&impl_avx2::gemm_rows,
                             &impl_avx2::gemm_bias_packed,
                             &impl_avx2::gemv_bias_wt,
                             &impl_avx2::conv2d_direct,
                             &impl_avx2::lstm_cell, 4};
  return &k;
}

}  // namespace darnet::tensor::kernels

#else  // toolchain cannot target AVX2: dispatcher sees "not compiled in"

namespace darnet::tensor::kernels {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace darnet::tensor::kernels

#endif
