// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Reads whether the AVX upper-register state is dirty on the calling
// thread. XGETBV with ECX = 1 returns XCR0 & XINUSE; XINUSE bit 2 is set
// while some ymm register has nonzero upper 128 bits, and VZEROUPPER puts
// the component back in its initial state. A kernel that returns with the
// bit set makes every later legacy-SSE instruction on the thread (libm,
// the scalar loops) pay the AVX-SSE transition penalty, so every kernel
// table entry and every trainer step must leave it clear.
//
// The probe needs AVX2 (the only vector table on x86), XGETBV with
// ECX = 1 (CPUID leaf 0xD, sub-leaf 1, EAX bit 2) and the init
// optimization: on a host without it the bit can read 1 right after a
// VZEROUPPER, and then it says nothing about the kernels.
#ifndef LPSGD_TESTS_TESTING_AVX_STATE_H_
#define LPSGD_TESTS_TESTING_AVX_STATE_H_

#include <cstdint>
#include <string>

#include "base/simd/simd.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>
#define LPSGD_TESTING_AVX_PROBE 1
#endif

namespace lpsgd {

#if defined(LPSGD_TESTING_AVX_PROBE)

// True while the calling thread's AVX upper state is not in its initial
// configuration. Only meaningful when AvxStateProbeUnavailable() is "".
__attribute__((target("xsave"))) inline bool AvxUpperStateDirty() {
  return (_xgetbv(1) & 0x4u) != 0;
}

// VZEROUPPER: puts the AVX upper state back in its initial configuration.
__attribute__((target("avx"))) inline void ClearAvxUpperState() {
  _mm256_zeroupper();
}

// Why the probe cannot run on this host, or "" when it can.
inline std::string AvxStateProbeUnavailable() {
  if (!SimdIsaSupported(SimdIsa::kAvx2)) return "host has no AVX2";
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & (1u << 27)) == 0) {
    return "OS has not enabled XSAVE (no OSXSAVE)";
  }
  if (__get_cpuid_count(0xd, 1, &eax, &ebx, &ecx, &edx) == 0 ||
      (eax & (1u << 2)) == 0) {
    return "host has no XGETBV with ECX = 1";
  }
  ClearAvxUpperState();
  if (AvxUpperStateDirty()) {
    return "the AVX bit of XINUSE stays set after VZEROUPPER (no init "
           "optimization)";
  }
  return "";
}

#else

inline bool AvxUpperStateDirty() { return false; }
inline void ClearAvxUpperState() {}
inline std::string AvxStateProbeUnavailable() {
  return "not an x86-64 GCC/Clang build";
}

#endif

}  // namespace lpsgd

#endif  // LPSGD_TESTS_TESTING_AVX_STATE_H_
