//===- Reference.cpp - bench_e2e's independent references -----------------===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "Reference.h"

#include "kernels/Baselines.h"
#include "kernels/SimdGemm.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <immintrin.h>
#include <limits>

using namespace e2e;

namespace {

// Independent FMA chains, enough to cover the FMA latency on two ports.
constexpr int Chains = 12;

__attribute__((target("avx512f"))) double fmaChains512(uint64_t Iters) {
  __m512d Acc[Chains];
  for (int C = 0; C < Chains; ++C)
    Acc[C] = _mm512_set1_pd(1.0 + C * 1e-3);
  const __m512d Mul = _mm512_set1_pd(0.9999999), Add = _mm512_set1_pd(1e-7);
  for (uint64_t It = 0; It < Iters; ++It)
    for (int C = 0; C < Chains; ++C)
      Acc[C] = _mm512_fmadd_pd(Acc[C], Mul, Add);
  alignas(64) double Lanes[8];
  double Sum = 0;
  for (int C = 0; C < Chains; ++C) {
    _mm512_store_pd(Lanes, Acc[C]);
    for (double V : Lanes)
      Sum += V;
  }
  return Sum;
}

__attribute__((target("avx2,fma"))) double fmaChains256(uint64_t Iters) {
  __m256d Acc[Chains];
  for (int C = 0; C < Chains; ++C)
    Acc[C] = _mm256_set1_pd(1.0 + C * 1e-3);
  const __m256d Mul = _mm256_set1_pd(0.9999999), Add = _mm256_set1_pd(1e-7);
  for (uint64_t It = 0; It < Iters; ++It)
    for (int C = 0; C < Chains; ++C)
      Acc[C] = _mm256_fmadd_pd(Acc[C], Mul, Add);
  alignas(32) double Lanes[4];
  double Sum = 0;
  for (int C = 0; C < Chains; ++C) {
    _mm256_store_pd(Lanes, Acc[C]);
    Sum += Lanes[0] + Lanes[1] + Lanes[2] + Lanes[3];
  }
  return Sum;
}

double fmaChainsScalar(uint64_t Iters) {
  double Acc[Chains];
  for (int C = 0; C < Chains; ++C)
    Acc[C] = 1.0 + C * 1e-3;
  for (uint64_t It = 0; It < Iters; ++It)
    for (int C = 0; C < Chains; ++C)
      Acc[C] = Acc[C] * 0.9999999 + 1e-7;
  double Sum = 0;
  for (int C = 0; C < Chains; ++C)
    Sum += Acc[C];
  return Sum;
}

} // namespace

void e2e::condition(Kind K, const std::vector<int64_t> &Params, Buffers &B) {
  if (K != Kind::CholeskyRight)
    return;
  const int64_t N = Params[0];
  for (int64_t I = 0; I < N; ++I)
    B[0][I + I * N] += 3.0 * N;
}

double e2e::baseline(Kind K, const std::vector<int64_t> &Params, Buffers &B) {
  const int64_t N = Params[0], NB = 64;
  using Clock = std::chrono::steady_clock;
  auto Ms = [](Clock::time_point T0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - T0)
        .count();
  };
  if (K == Kind::MatMul) {
    // blockedMatMul's tiling around the widest SIMD micro-GEMM the CPU
    // runs: the same kernel the native tier routes GEMM tiles to, so the
    // ratio measures what the generated code adds around it. Row-major; a
    // column-major buffer read row-major is the transpose, and
    // (AB)^T = B^T A^T.
    //
    // The three arrays live in one page-aligned arena, 1 KB apart modulo a
    // page. With N = 1024 the row stride is a power of two, and separately
    // allocated arrays landed wherever earlier allocations left room: the
    // same routine took about 30% longer in runs that had allocated more
    // before it.
    shackle::GemmKernelFn Gemm = shackle::selectGemmKernel(
        shackle::resolveSimdLevel(shackle::SimdMode::Auto));
    const int64_t Size = N * N, Stride = Size + 128, PageWords = 512;
    thread_local std::vector<double> Arena;
    Arena.resize(static_cast<std::size_t>(3 * Stride + PageWords));
    const auto Addr = reinterpret_cast<uintptr_t>(Arena.data());
    double *C = Arena.data() + (-(Addr / sizeof(double)) & (PageWords - 1));
    double *X = C + Stride, *Y = X + Stride;
    std::copy(B[0].begin(), B[0].end(), C);
    std::copy(B[2].begin(), B[2].end(), X);
    std::copy(B[1].begin(), B[1].end(), Y);
    auto T0 = Clock::now();
    for (int64_t I = 0; I < N; I += NB)
      for (int64_t J = 0; J < N; J += NB)
        for (int64_t L = 0; L < N; L += NB)
          Gemm(C + I * N + J, X + I * N + L, Y + L * N + J,
               std::min(NB, N - I), std::min(NB, N - J), std::min(NB, N - L),
               N, N, N);
    double T = Ms(T0);
    std::copy(C, C + Size, B[0].begin());
    return T;
  }
  std::vector<double> RowMajor(B[0].size());
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J)
      RowMajor[I * N + J] = B[0][I + J * N];
  auto T0 = Clock::now();
  shackle::blockedCholeskyLAPACK(RowMajor.data(), N, NB);
  double T = Ms(T0);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J)
      B[0][I + J * N] = RowMajor[I * N + J];
  return T;
}

double e2e::usefulFlops(Kind K, const std::vector<int64_t> &Params) {
  const double N = static_cast<double>(Params[0]);
  return K == Kind::MatMul ? 2 * N * N * N : N * N * N / 3;
}

double e2e::relativeError(const std::vector<double> &Got,
                          const std::vector<double> &Want) {
  if (Got.size() != Want.size())
    return std::numeric_limits<double>::infinity();
  double Scale = 1, Err = 0;
  for (std::size_t I = 0; I < Want.size(); ++I) {
    Scale = std::max(Scale, std::fabs(Want[I]));
    double D = std::fabs(Got[I] - Want[I]);
    // A NaN anywhere is an error, however it compares.
    Err = std::isnan(D) ? std::numeric_limits<double>::infinity()
                        : std::max(Err, D);
  }
  return Err / Scale;
}

double e2e::errorBound(int64_t N) {
  return 64.0 * static_cast<double>(N) *
         std::numeric_limits<double>::epsilon() / 2;
}

double e2e::peakGflopsCore() {
  int Lanes = 1;
  double (*Probe)(uint64_t) = fmaChainsScalar;
  if (__builtin_cpu_supports("avx512f")) {
    Lanes = 8;
    Probe = fmaChains512;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    Lanes = 4;
    Probe = fmaChains256;
  }
  const uint64_t Iters = 20'000'000;
  double Best = 0;
  volatile double Sink = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    Sink = Sink + Probe(Iters);
    double S = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             T0)
                   .count();
    Best = std::max(Best, 2.0 * Chains * Lanes * Iters / S / 1e9);
  }
  return Best;
}
