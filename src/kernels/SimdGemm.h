//===- SimdGemm.h - Vector-width GEMM micro-kernels -------------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SIMD register-tile GEMM kernels sharing microGemm's exact signature, so
/// any of them can be installed as the native tier's `hooks->gemm` routing
/// target. Two variants:
///
///   - AVX2 + FMA: 6-row x 8-column tile (12 YMM accumulators, one
///     broadcast register per row, two B vectors per k step).
///   - AVX-512F: 4-row x 16-column tile (8 ZMM accumulators), per the
///     classic wide-vector shape.
///
/// Both vectorize along j (the unit-stride output dimension) and keep k
/// ascending, so each C element accumulates its products in the same order
/// as the scalar i-k-j kernel — the only numerical difference is FMA
/// fusing the multiply and add into one rounding. That difference is why
/// routing stays behind the opt-in ULP policy (docs/CLI.md "--native"):
/// with routing off results are bitwise-identical to the interpreter; with
/// routing on they are within the documented 1e-12 absolute bound.
///
/// Ragged edges (M % MR, N % NR) fall back to a narrower kernel on the
/// remainder submatrices (the column tail one MR-row slice at a time), so
/// every shape is legal for every kernel.
///
/// The full tiles run column strip by column strip. When a strip is read by
/// more than one row tile (M / MR >= 2), up to 256 of its rows at a time are
/// copied into a 64-byte-aligned buffer with leading dimension NR, and the
/// tile function reads that copy. Each thread allocates that buffer (32 KB,
/// sized for the wider tile) on its first packed call, so a thread that
/// never packs pays nothing for it. Without it, a 64x64 block of a
/// 1024-wide array reads its strip from rows 8 KB apart that share L1 sets,
/// and the AVX-512 kernel's time depended on where the arrays started: 74 ms
/// vs 46 ms for the mmm-1024 call sequence, 16 B past a page boundary vs
/// staggered 1 KB apart; packed, both take 46-49 ms (4-vCPU Xeon VM, gcc
/// 12.2, one pinned CPU, best of 7). Packing is
/// bitwise-neutral: the same tile function sees the same values with k
/// ascending, and the K chunks only store C and reload it, which is exact.
/// A single row tile reads B in place, so a whole-panel call equals the same
/// call issued one MR-row slice at a time, bit for bit.
///
/// The functions are compiled with GCC/Clang `target` attributes inside a
/// plain TU — no special -m flags leak into the rest of the library — and
/// callers must gate on the CpuFeatures probes (or go through
/// selectGemmKernel, which does it for them).
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_KERNELS_SIMDGEMM_H
#define SHACKLE_KERNELS_SIMDGEMM_H

#include <cstdint>
#include <string>

namespace shackle {

/// A requested vector level. The native tier always requests Auto, so
/// SHACKLE_NATIVE_SIMD is the one way to lower it.
enum class SimdMode { Off, Avx2, Avx512, Auto };

/// What the machine can actually run; the result of resolving a SimdMode
/// against the CPUID probes.
enum class SimdLevel { Scalar, Avx2, Avx512 };

/// Parse "off"/"avx2"/"avx512"/"auto". Returns false on anything else.
bool parseSimdMode(const std::string &Text, SimdMode &Out);

const char *simdLevelName(SimdLevel Level);

/// Resolve a requested mode to a runnable level:
///   - the SHACKLE_NATIVE_SIMD environment variable, when set to a valid
///     mode name, overrides the request (CI's scalar and AVX2 legs set it);
///   - Off -> Scalar always;
///   - Avx2/Avx512 -> that level when the CPU supports it, otherwise the
///     best supported level below it (graceful fallback, never an error);
///   - Auto -> the widest supported level.
SimdLevel resolveSimdLevel(SimdMode Request);

/// microGemm-compatible kernel pointer (C += A*B, row-major, explicit
/// leading dimensions). This is also the native hook ABI for `gemm`.
using GemmKernelFn = void (*)(double *C, const double *A, const double *B,
                              int64_t M, int64_t N, int64_t K, int64_t Ldc,
                              int64_t Lda, int64_t Ldb);

/// AVX2+FMA 6x8 register-tile GEMM. Caller must ensure cpuHasAvx2Fma().
void microGemmAvx2(double *C, const double *A, const double *B, int64_t M,
                   int64_t N, int64_t K, int64_t Ldc, int64_t Lda,
                   int64_t Ldb);

/// AVX-512F 4x16 register-tile GEMM. Caller must ensure cpuHasAvx512().
void microGemmAvx512(double *C, const double *A, const double *B, int64_t M,
                     int64_t N, int64_t K, int64_t Ldc, int64_t Lda,
                     int64_t Ldb);

/// The kernel for a resolved level: Scalar -> microGemm, Avx2 ->
/// microGemmAvx2, Avx512 -> microGemmAvx512. Never null.
GemmKernelFn selectGemmKernel(SimdLevel Level);

} // namespace shackle

#endif // SHACKLE_KERNELS_SIMDGEMM_H
