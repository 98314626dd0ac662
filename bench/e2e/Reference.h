//===- Reference.h - bench_e2e's independent references ---------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every output is checked against, and what every warm run is timed
/// against: hand-blocked routines built from src/kernels, which never run
/// the shackle pipeline or its interpreter. Arrays are the program's
/// buffers in declaration order, column-major, exactly as the library lays
/// them out.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_BENCH_E2E_REFERENCE_H
#define SHACKLE_BENCH_E2E_REFERENCE_H

#include <cstdint>
#include <vector>

namespace e2e {

using Buffers = std::vector<std::vector<double>>;

/// The programs the workloads run, by what their reference computes.
enum class Kind {
  MatMul,        ///< C, A, B: C += A * B.
  CholeskyRight, ///< A: right-looking Cholesky (paper Figure 1(ii)).
};

/// Makes a seeded random input well-posed: adds 3N to the diagonal of the
/// Cholesky matrix, so it is symmetric positive definite.
void condition(Kind K, const std::vector<int64_t> &Params, Buffers &B);

/// Runs the single-thread hand-blocked reference (64 x 64 tiles) on \p B:
/// blockedMatMul's loop around the SIMD micro-GEMM for MatMul, the
/// Baselines blockedCholeskyLAPACK for CholeskyRight. Returns its own time
/// in milliseconds.
double baseline(Kind K, const std::vector<int64_t> &Params, Buffers &B);

/// Useful floating-point operations of one execution.
double usefulFlops(Kind K, const std::vector<int64_t> &Params);

/// Largest |got - want| over the array, relative to max(1, max |want|).
double relativeError(const std::vector<double> &Got,
                     const std::vector<double> &Want);

/// The accepted relative error for problem size \p N: 64 N unit roundoffs,
/// room for the reassociation the SIMD GEMM kernels are allowed.
double errorBound(int64_t N);

/// Double-precision GFlop/s one core sustains on independent FMA chains at
/// the widest vector width the CPU supports.
double peakGflopsCore();

} // namespace e2e

#endif // SHACKLE_BENCH_E2E_REFERENCE_H
