//===- SimdGemm.cpp - Vector-width GEMM micro-kernels ---------------------===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "SimdGemm.h"
#include "CpuFeatures.h"
#include "MicroBlas.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>

#if defined(__x86_64__) || defined(__i386__)
#define SHACKLE_X86 1
#include <immintrin.h>
#endif

namespace shackle {

bool parseSimdMode(const std::string &Text, SimdMode &Out) {
  if (Text == "off") {
    Out = SimdMode::Off;
    return true;
  }
  if (Text == "avx2") {
    Out = SimdMode::Avx2;
    return true;
  }
  if (Text == "avx512") {
    Out = SimdMode::Avx512;
    return true;
  }
  if (Text == "auto") {
    Out = SimdMode::Auto;
    return true;
  }
  return false;
}

const char *simdLevelName(SimdLevel Level) {
  switch (Level) {
  case SimdLevel::Scalar:
    return "scalar";
  case SimdLevel::Avx2:
    return "avx2";
  case SimdLevel::Avx512:
    return "avx512";
  }
  return "scalar";
}

SimdLevel resolveSimdLevel(SimdMode Request) {
  if (const char *Env = std::getenv("SHACKLE_NATIVE_SIMD")) {
    SimdMode Forced;
    if (parseSimdMode(Env, Forced))
      Request = Forced;
  }
  switch (Request) {
  case SimdMode::Off:
    return SimdLevel::Scalar;
  case SimdMode::Avx2:
    return cpuHasAvx2Fma() ? SimdLevel::Avx2 : SimdLevel::Scalar;
  case SimdMode::Avx512:
    if (cpuHasAvx512())
      return SimdLevel::Avx512;
    return cpuHasAvx2Fma() ? SimdLevel::Avx2 : SimdLevel::Scalar;
  case SimdMode::Auto:
    if (cpuHasAvx512())
      return SimdLevel::Avx512;
    return cpuHasAvx2Fma() ? SimdLevel::Avx2 : SimdLevel::Scalar;
  }
  return SimdLevel::Scalar;
}

#ifdef SHACKLE_X86

//===----------------------------------------------------------------------===//
// AVX2 + FMA: 6x8 tile. 12 YMM accumulators (2 per row x 6 rows), two B
// vectors and one broadcast live per k step — 15 of the 16 YMM registers.
//===----------------------------------------------------------------------===//

__attribute__((target("avx2,fma"))) static void
gemmTileAvx2_6x8(double *__restrict C, const double *__restrict A,
                 const double *__restrict B, int64_t K, int64_t Ldc,
                 int64_t Lda, int64_t Ldb) {
  __m256d C00 = _mm256_loadu_pd(C + 0 * Ldc + 0);
  __m256d C01 = _mm256_loadu_pd(C + 0 * Ldc + 4);
  __m256d C10 = _mm256_loadu_pd(C + 1 * Ldc + 0);
  __m256d C11 = _mm256_loadu_pd(C + 1 * Ldc + 4);
  __m256d C20 = _mm256_loadu_pd(C + 2 * Ldc + 0);
  __m256d C21 = _mm256_loadu_pd(C + 2 * Ldc + 4);
  __m256d C30 = _mm256_loadu_pd(C + 3 * Ldc + 0);
  __m256d C31 = _mm256_loadu_pd(C + 3 * Ldc + 4);
  __m256d C40 = _mm256_loadu_pd(C + 4 * Ldc + 0);
  __m256d C41 = _mm256_loadu_pd(C + 4 * Ldc + 4);
  __m256d C50 = _mm256_loadu_pd(C + 5 * Ldc + 0);
  __m256d C51 = _mm256_loadu_pd(C + 5 * Ldc + 4);
  for (int64_t P = 0; P < K; ++P) {
    const double *Bp = B + P * Ldb;
    __m256d B0 = _mm256_loadu_pd(Bp + 0);
    __m256d B1 = _mm256_loadu_pd(Bp + 4);
    __m256d Av;
    Av = _mm256_broadcast_sd(A + 0 * Lda + P);
    C00 = _mm256_fmadd_pd(Av, B0, C00);
    C01 = _mm256_fmadd_pd(Av, B1, C01);
    Av = _mm256_broadcast_sd(A + 1 * Lda + P);
    C10 = _mm256_fmadd_pd(Av, B0, C10);
    C11 = _mm256_fmadd_pd(Av, B1, C11);
    Av = _mm256_broadcast_sd(A + 2 * Lda + P);
    C20 = _mm256_fmadd_pd(Av, B0, C20);
    C21 = _mm256_fmadd_pd(Av, B1, C21);
    Av = _mm256_broadcast_sd(A + 3 * Lda + P);
    C30 = _mm256_fmadd_pd(Av, B0, C30);
    C31 = _mm256_fmadd_pd(Av, B1, C31);
    Av = _mm256_broadcast_sd(A + 4 * Lda + P);
    C40 = _mm256_fmadd_pd(Av, B0, C40);
    C41 = _mm256_fmadd_pd(Av, B1, C41);
    Av = _mm256_broadcast_sd(A + 5 * Lda + P);
    C50 = _mm256_fmadd_pd(Av, B0, C50);
    C51 = _mm256_fmadd_pd(Av, B1, C51);
  }
  _mm256_storeu_pd(C + 0 * Ldc + 0, C00);
  _mm256_storeu_pd(C + 0 * Ldc + 4, C01);
  _mm256_storeu_pd(C + 1 * Ldc + 0, C10);
  _mm256_storeu_pd(C + 1 * Ldc + 4, C11);
  _mm256_storeu_pd(C + 2 * Ldc + 0, C20);
  _mm256_storeu_pd(C + 2 * Ldc + 4, C21);
  _mm256_storeu_pd(C + 3 * Ldc + 0, C30);
  _mm256_storeu_pd(C + 3 * Ldc + 4, C31);
  _mm256_storeu_pd(C + 4 * Ldc + 0, C40);
  _mm256_storeu_pd(C + 4 * Ldc + 4, C41);
  _mm256_storeu_pd(C + 5 * Ldc + 0, C50);
  _mm256_storeu_pd(C + 5 * Ldc + 4, C51);
}

//===----------------------------------------------------------------------===//
// The shared driver: full tiles strip by strip, B packed when reused.
//===----------------------------------------------------------------------===//

/// Rows of B one packed strip holds, and the widest strip: 256 x 16 doubles
/// is 32 KB, which both tiles share (the 6x8 one uses half).
constexpr int64_t PackKC = 256, PackNR = 16;

/// The calling thread's packed-strip buffer, allocated on its first call;
/// null when the allocation fails.
static double *packBuffer() {
  struct Free {
    void operator()(double *P) const { std::free(P); }
  };
  static thread_local std::unique_ptr<double, Free> Buf;
  if (!Buf)
    Buf.reset(static_cast<double *>(
        std::aligned_alloc(64, PackKC * PackNR * sizeof(double))));
  return Buf.get();
}

using TileFn = void (*)(double *, const double *, const double *, int64_t K,
                        int64_t Ldc, int64_t Lda, int64_t Ldb);

/// C += A*B with MR x NR register tiles, column strip outermost. When more
/// than one row tile reads a strip, it is copied PackKC rows at a time into
/// a contiguous buffer (leading dimension NR) and every row tile reads the
/// copy, so the strip's rows no longer sit Ldb apart in the same L1 sets.
/// The tile function, its ascending k and its operands are unchanged;
/// splitting K only stores C and reloads it, which is exact, so packing is
/// bitwise-neutral, and so is reading B in place when the buffer cannot be
/// allocated. The column tail goes to \p Tail one MR-row slice at a time
/// and the row tail in one call, so no remainder call ever packs.
template <int64_t MR, int64_t NR, TileFn Tile, GemmKernelFn Tail>
static void gemmPanel(double *C, const double *A, const double *B, int64_t M,
                      int64_t N, int64_t K, int64_t Ldc, int64_t Lda,
                      int64_t Ldb) {
  static_assert(NR <= PackNR, "strip wider than the packed buffer");
  const int64_t MFull = M - M % MR, NFull = N - N % NR;
  double *Packed = MFull / MR >= 2 ? packBuffer() : nullptr;
  for (int64_t J = 0; J < NFull; J += NR) {
    if (!Packed) {
      for (int64_t I = 0; I < MFull; I += MR)
        Tile(C + I * Ldc + J, A + I * Lda, B + J, K, Ldc, Lda, Ldb);
      continue;
    }
    for (int64_t P0 = 0; P0 < K; P0 += PackKC) {
      const int64_t Kc = std::min(PackKC, K - P0);
      for (int64_t P = 0; P < Kc; ++P)
        std::memcpy(Packed + P * NR, B + (P0 + P) * Ldb + J,
                    NR * sizeof(double));
      for (int64_t I = 0; I < MFull; I += MR)
        Tile(C + I * Ldc + J, A + I * Lda + P0, Packed, Kc, Ldc, Lda, NR);
    }
  }
  if (NFull < N)
    for (int64_t I = 0; I < MFull; I += MR)
      Tail(C + I * Ldc + NFull, A + I * Lda, B + NFull, MR, N - NFull, K, Ldc,
           Lda, Ldb);
  if (MFull < M)
    Tail(C + MFull * Ldc, A + MFull * Lda, B, M - MFull, N, K, Ldc, Lda, Ldb);
}

void microGemmAvx2(double *C, const double *A, const double *B, int64_t M,
                   int64_t N, int64_t K, int64_t Ldc, int64_t Lda,
                   int64_t Ldb) {
  gemmPanel<6, 8, gemmTileAvx2_6x8, microGemm>(C, A, B, M, N, K, Ldc, Lda,
                                               Ldb);
}

//===----------------------------------------------------------------------===//
// AVX-512F: 4x16 tile. 8 ZMM accumulators, two B vectors and one broadcast
// per k step. Narrow in rows, wide in columns — the shape trades A reuse
// for fewer loop iterations along j.
//===----------------------------------------------------------------------===//

__attribute__((target("avx512f"))) static void
gemmTileAvx512_4x16(double *__restrict C, const double *__restrict A,
                    const double *__restrict B, int64_t K, int64_t Ldc,
                    int64_t Lda, int64_t Ldb) {
  __m512d C00 = _mm512_loadu_pd(C + 0 * Ldc + 0);
  __m512d C01 = _mm512_loadu_pd(C + 0 * Ldc + 8);
  __m512d C10 = _mm512_loadu_pd(C + 1 * Ldc + 0);
  __m512d C11 = _mm512_loadu_pd(C + 1 * Ldc + 8);
  __m512d C20 = _mm512_loadu_pd(C + 2 * Ldc + 0);
  __m512d C21 = _mm512_loadu_pd(C + 2 * Ldc + 8);
  __m512d C30 = _mm512_loadu_pd(C + 3 * Ldc + 0);
  __m512d C31 = _mm512_loadu_pd(C + 3 * Ldc + 8);
  for (int64_t P = 0; P < K; ++P) {
    const double *Bp = B + P * Ldb;
    __m512d B0 = _mm512_loadu_pd(Bp + 0);
    __m512d B1 = _mm512_loadu_pd(Bp + 8);
    __m512d Av;
    Av = _mm512_set1_pd(A[0 * Lda + P]);
    C00 = _mm512_fmadd_pd(Av, B0, C00);
    C01 = _mm512_fmadd_pd(Av, B1, C01);
    Av = _mm512_set1_pd(A[1 * Lda + P]);
    C10 = _mm512_fmadd_pd(Av, B0, C10);
    C11 = _mm512_fmadd_pd(Av, B1, C11);
    Av = _mm512_set1_pd(A[2 * Lda + P]);
    C20 = _mm512_fmadd_pd(Av, B0, C20);
    C21 = _mm512_fmadd_pd(Av, B1, C21);
    Av = _mm512_set1_pd(A[3 * Lda + P]);
    C30 = _mm512_fmadd_pd(Av, B0, C30);
    C31 = _mm512_fmadd_pd(Av, B1, C31);
  }
  _mm512_storeu_pd(C + 0 * Ldc + 0, C00);
  _mm512_storeu_pd(C + 0 * Ldc + 8, C01);
  _mm512_storeu_pd(C + 1 * Ldc + 0, C10);
  _mm512_storeu_pd(C + 1 * Ldc + 8, C11);
  _mm512_storeu_pd(C + 2 * Ldc + 0, C20);
  _mm512_storeu_pd(C + 2 * Ldc + 8, C21);
  _mm512_storeu_pd(C + 3 * Ldc + 0, C30);
  _mm512_storeu_pd(C + 3 * Ldc + 8, C31);
}

// 8x8 tile for narrow blocks: one ZMM holds a full C row, so 8 accumulators
// cover 8 rows with a single B load per k step. This is the shape the
// paper's register-level blocks (B_reg = 8) produce, where the 4x16 tile
// cannot even place one column strip.
__attribute__((target("avx512f"))) static void
gemmTileAvx512_8x8(double *__restrict C, const double *__restrict A,
                   const double *__restrict B, int64_t K, int64_t Ldc,
                   int64_t Lda, int64_t Ldb) {
  __m512d C0 = _mm512_loadu_pd(C + 0 * Ldc);
  __m512d C1 = _mm512_loadu_pd(C + 1 * Ldc);
  __m512d C2 = _mm512_loadu_pd(C + 2 * Ldc);
  __m512d C3 = _mm512_loadu_pd(C + 3 * Ldc);
  __m512d C4 = _mm512_loadu_pd(C + 4 * Ldc);
  __m512d C5 = _mm512_loadu_pd(C + 5 * Ldc);
  __m512d C6 = _mm512_loadu_pd(C + 6 * Ldc);
  __m512d C7 = _mm512_loadu_pd(C + 7 * Ldc);
  for (int64_t P = 0; P < K; ++P) {
    __m512d B0 = _mm512_loadu_pd(B + P * Ldb);
    C0 = _mm512_fmadd_pd(_mm512_set1_pd(A[0 * Lda + P]), B0, C0);
    C1 = _mm512_fmadd_pd(_mm512_set1_pd(A[1 * Lda + P]), B0, C1);
    C2 = _mm512_fmadd_pd(_mm512_set1_pd(A[2 * Lda + P]), B0, C2);
    C3 = _mm512_fmadd_pd(_mm512_set1_pd(A[3 * Lda + P]), B0, C3);
    C4 = _mm512_fmadd_pd(_mm512_set1_pd(A[4 * Lda + P]), B0, C4);
    C5 = _mm512_fmadd_pd(_mm512_set1_pd(A[5 * Lda + P]), B0, C5);
    C6 = _mm512_fmadd_pd(_mm512_set1_pd(A[6 * Lda + P]), B0, C6);
    C7 = _mm512_fmadd_pd(_mm512_set1_pd(A[7 * Lda + P]), B0, C7);
  }
  _mm512_storeu_pd(C + 0 * Ldc, C0);
  _mm512_storeu_pd(C + 1 * Ldc, C1);
  _mm512_storeu_pd(C + 2 * Ldc, C2);
  _mm512_storeu_pd(C + 3 * Ldc, C3);
  _mm512_storeu_pd(C + 4 * Ldc, C4);
  _mm512_storeu_pd(C + 5 * Ldc, C5);
  _mm512_storeu_pd(C + 6 * Ldc, C6);
  _mm512_storeu_pd(C + 7 * Ldc, C7);
}

void microGemmAvx512(double *C, const double *A, const double *B, int64_t M,
                     int64_t N, int64_t K, int64_t Ldc, int64_t Lda,
                     int64_t Ldb) {
  if (N >= 8 && N < 16) {
    // Narrow blocks: the 8-wide row tile covers the whole column strip.
    const int64_t MR8 = 8, NR8 = 8;
    int64_t I = 0;
    for (; I + MR8 <= M; I += MR8) {
      gemmTileAvx512_8x8(C + I * Ldc, A + I * Lda, B, K, Ldc, Lda, Ldb);
      if (NR8 < N)
        microGemmAvx2(C + I * Ldc + NR8, A + I * Lda, B + NR8, MR8, N - NR8,
                      K, Ldc, Lda, Ldb);
    }
    if (I < M)
      microGemmAvx2(C + I * Ldc, A + I * Lda, B, M - I, N, K, Ldc, Lda, Ldb);
    return;
  }
  gemmPanel<4, 16, gemmTileAvx512_4x16, microGemmAvx2>(C, A, B, M, N, K, Ldc,
                                                      Lda, Ldb);
}

#else // !SHACKLE_X86

// Non-x86 builds keep the symbols (selectGemmKernel never hands them out
// because the CpuFeatures probes return false, and resolveSimdLevel can
// therefore only produce Scalar).
void microGemmAvx2(double *C, const double *A, const double *B, int64_t M,
                   int64_t N, int64_t K, int64_t Ldc, int64_t Lda,
                   int64_t Ldb) {
  microGemm(C, A, B, M, N, K, Ldc, Lda, Ldb);
}

void microGemmAvx512(double *C, const double *A, const double *B, int64_t M,
                     int64_t N, int64_t K, int64_t Ldc, int64_t Lda,
                     int64_t Ldb) {
  microGemm(C, A, B, M, N, K, Ldc, Lda, Ldb);
}

#endif // SHACKLE_X86

GemmKernelFn selectGemmKernel(SimdLevel Level) {
  switch (Level) {
  case SimdLevel::Scalar:
    return &microGemm;
  case SimdLevel::Avx2:
    return &microGemmAvx2;
  case SimdLevel::Avx512:
    return &microGemmAvx512;
  }
  return &microGemm;
}

} // namespace shackle
