#include "tensor/kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

namespace darnet::tensor::kernels {

// Defined in the per-ISA TUs; the vector ones are nullptr when the
// toolchain lacked the flags.
const Kernels* scalar_kernels();
const Kernels* avx2_kernels();
const Kernels* avx512_kernels();

namespace {

bool cpu_supports(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

const Kernels* table_for(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return scalar_kernels();
    case Isa::kAvx2:
      return avx2_kernels();
    case Isa::kAvx512:
      return avx512_kernels();
  }
  return nullptr;
}

Isa best_supported() noexcept {
  if (isa_supported(Isa::kAvx512)) return Isa::kAvx512;
  if (isa_supported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

/// DARNET_KERNELS: scalar | avx2 | avx512 | auto (default). An explicit
/// request the CPU or build cannot honour falls back to the next-best
/// supported ISA -- selection must never produce SIGILL. Unrecognised
/// values behave like auto.
Isa resolve() noexcept {
  const char* e = std::getenv("DARNET_KERNELS");
  const std::string_view req = (e != nullptr && *e != '\0') ? e : "auto";
  if (req == "scalar") return Isa::kScalar;
  if (req == "avx2") {
    return isa_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
  }
  if (req == "avx512") {
    if (isa_supported(Isa::kAvx512)) return Isa::kAvx512;
    return isa_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
  }
  return best_supported();
}

// Resolved ISA; -1 = not yet resolved. Racing first calls both compute
// the same value, so the relaxed publish is benign.
std::atomic<int> g_isa{-1};

}  // namespace

bool isa_supported(Isa isa) noexcept {
  return cpu_supports(isa) && table_for(isa) != nullptr;
}

Isa active() noexcept {
  const int v = g_isa.load(std::memory_order_acquire);
  if (v >= 0) return static_cast<Isa>(v);
  const Isa r = resolve();
  g_isa.store(static_cast<int>(r), std::memory_order_release);
  return r;
}

Isa set_isa(Isa isa) noexcept {
  const Isa eff = isa_supported(isa) ? isa : best_supported();
  g_isa.store(static_cast<int>(eff), std::memory_order_release);
  return eff;
}

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

// active() only ever resolves to a supported ISA, whose table exists.
const Kernels& active_kernels() noexcept { return *table_for(active()); }

}  // namespace darnet::tensor::kernels
