// AVX-512F kernel TU. Compiled with -mavx512f -mfma -ffp-contract=fast
// via set_source_files_properties (src/tensor/CMakeLists.txt); reached
// only after __builtin_cpu_supports("avx512f"). Builds to a nullptr stub
// when the toolchain cannot target AVX-512.
#include <cstdint>

#include "tensor/kernels.hpp"

#if defined(__AVX512F__)

#define DARNET_KERNEL_NS impl_avx512
#define DARNET_KERNEL_WIDTH 16
#include "tensor/kernels_vec.inc"
#undef DARNET_KERNEL_NS
#undef DARNET_KERNEL_WIDTH

namespace darnet::tensor::kernels {

const Kernels* avx512_kernels() {
  static constexpr Kernels k{&impl_avx512::gemm_rows,
                             &impl_avx512::gemm_bias_packed,
                             &impl_avx512::gemv_bias_wt,
                             &impl_avx512::conv2d_direct,
                             &impl_avx512::lstm_cell, 8};
  return &k;
}

}  // namespace darnet::tensor::kernels

#else  // toolchain cannot target AVX-512: dispatcher sees "not compiled in"

namespace darnet::tensor::kernels {
const Kernels* avx512_kernels() { return nullptr; }
}  // namespace darnet::tensor::kernels

#endif
