// AVX2+FMA kernel TU. Compiled with -mavx2 -mfma via
// set_source_files_properties (src/tensor/CMakeLists.txt); the rest of
// the library never needs those flags, and the kernels are only ever
// reached after __builtin_cpu_supports confirms the CPU. Builds to a
// nullptr stub when the toolchain cannot target AVX2.
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#define DARNET_KERNEL_NS impl_avx2
#define DARNET_KERNEL_WIDTH 8
#define DARNET_KERNEL_FMADD _mm256_fmadd_ps
#define DARNET_KERNEL_FMADD_PD _mm256_fmadd_pd
#define DARNET_KERNEL_WIDEN(p) _mm256_cvtps_pd(_mm_loadu_ps(p))
#include "tensor/kernels_vec.inc"
#undef DARNET_KERNEL_NS
#undef DARNET_KERNEL_WIDTH
#undef DARNET_KERNEL_FMADD
#undef DARNET_KERNEL_FMADD_PD
#undef DARNET_KERNEL_WIDEN

namespace darnet::tensor::kernels {

const Kernels* avx2_kernels() {
  static constexpr Kernels k{&impl_avx2::gemm_rows,
                             &impl_avx2::gemv_bias_wt,
                             &impl_avx2::conv2d_direct,
                             &impl_avx2::conv2d_grad_input,
                             &impl_avx2::conv2d_grad_weights,
                             &impl_avx2::lstm_cell};
  return &k;
}

}  // namespace darnet::tensor::kernels

#else  // toolchain cannot target AVX2: dispatcher sees "not compiled in"

namespace darnet::tensor::kernels {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace darnet::tensor::kernels

#endif
