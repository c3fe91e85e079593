// AVX-512F kernel TU. Compiled with -mavx512f -mfma via
// set_source_files_properties (src/tensor/CMakeLists.txt); reached
// only after __builtin_cpu_supports("avx512f"). Builds to a nullptr stub
// when the toolchain cannot target AVX-512.
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/kernels.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#define DARNET_KERNEL_NS impl_avx512
#define DARNET_KERNEL_WIDTH 16
#define DARNET_KERNEL_FMADD _mm512_fmadd_ps
#define DARNET_KERNEL_FMADD_PD _mm512_fmadd_pd
// maskz with a full mask: the unmasked _mm512_cvtps_pd reads
// _mm512_undefined_pd(), which GCC 12 flags under -Wmaybe-uninitialized.
#define DARNET_KERNEL_WIDEN(p) _mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(p))
#include "tensor/kernels_vec.inc"
#undef DARNET_KERNEL_NS
#undef DARNET_KERNEL_WIDTH
#undef DARNET_KERNEL_FMADD
#undef DARNET_KERNEL_FMADD_PD
#undef DARNET_KERNEL_WIDEN

namespace darnet::tensor::kernels {

const Kernels* avx512_kernels() {
  static constexpr Kernels k{&impl_avx512::gemm_rows,
                             &impl_avx512::gemv_bias_wt,
                             &impl_avx512::conv2d_direct,
                             &impl_avx512::conv2d_grad_input,
                             &impl_avx512::conv2d_grad_weights,
                             &impl_avx512::lstm_cell};
  return &k;
}

}  // namespace darnet::tensor::kernels

#else  // toolchain cannot target AVX-512: dispatcher sees "not compiled in"

namespace darnet::tensor::kernels {
const Kernels* avx512_kernels() { return nullptr; }
}  // namespace darnet::tensor::kernels

#endif
