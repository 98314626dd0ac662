//===- genkernels_test.cpp - Compiled kernels vs interpreter -----------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// The benchmarks measure kernels that dsc-gen emitted and the C++ compiler
// built. These tests pin those kernels to the semantics of the original
// programs: for every generated variant, running the compiled kernel on
// random inputs must produce the same arrays as interpreting the original
// IR program (bit-for-bit, because the statement-instance arithmetic is
// identical and only the execution order legally changes... up to the
// floating-point non-associativity the shackle itself never introduces:
// shackling permutes statement instances, not the operations inside one).
//
//===----------------------------------------------------------------------===//

#include "core/ShackleDriver.h"
#include "interp/Interpreter.h"
#include "programs/Benchmarks.h"
extern "C" {
#include "shackle_kernels.gen.h"
}

#include <gtest/gtest.h>

using namespace shackle;

namespace {

/// Runs kernel \p Name on a fresh copy of \p Init's arrays.
void runKernel(const char *Name, ProgramInstance &Inst) {
  shackle_kernel_fn Fn = shackle_gen_lookup(Name);
  ASSERT_NE(Fn, nullptr) << "kernel not found: " << Name;
  std::vector<double *> Arrays;
  for (unsigned A = 0; A < Inst.program().getNumArrays(); ++A)
    Arrays.push_back(Inst.buffer(A).data());
  Fn(Arrays.data(), Inst.paramValues().data());
}

struct VariantCase {
  const char *Kernel;
  double Tol; ///< 0 for exact instance-permutation equality.
};

void checkVariants(BenchSpec Spec, std::vector<int64_t> Params, bool SPD,
                   const char *OrigKernel,
                   const std::vector<VariantCase> &Variants) {
  const Program &P = *Spec.Prog;
  LoopNest Orig = generateOriginalCode(P);

  ProgramInstance Ref(P, Params);
  Ref.fillRandom(11, 0.5, 1.5);
  if (SPD) {
    int64_t N = Params[0];
    for (int64_t I = 0; I < N; ++I) {
      int64_t Idx[2] = {I, I};
      Ref.buffer(0)[Ref.offset(0, Idx)] += 3.0 * static_cast<double>(N);
    }
  }
  ProgramInstance Pristine = Ref;
  runLoopNest(Orig, Ref);

  // The compiled original must agree exactly with the interpreted original.
  {
    ProgramInstance K = Pristine;
    runKernel(OrigKernel, K);
    EXPECT_EQ(Ref.maxAbsDifference(K), 0.0) << OrigKernel;
  }

  for (const VariantCase &V : Variants) {
    ProgramInstance K = Pristine;
    runKernel(V.Kernel, K);
    EXPECT_LE(Ref.maxAbsDifference(K), V.Tol) << V.Kernel;
  }
}

TEST(GenKernels, MatMul) {
  checkVariants(makeMatMul(), {131}, /*SPD=*/false, "mmm_orig",
                {{"mmm_naive_c_64", 0.0},
                 {"mmm_shackle_c_64", 0.0},
                 {"mmm_shackle_cxa_16", 0.0},
                 {"mmm_shackle_cxa_32", 0.0},
                 {"mmm_shackle_cxa_64", 0.0},
                 {"mmm_shackle_cxa_128", 0.0},
                 {"mmm_two_level_64_8", 0.0},
                 {"mmm_two_level_128_16", 0.0}});
}

TEST(GenKernels, MatMulTiledLayout) {
  checkVariants(makeMatMulTiled(64), {131}, /*SPD=*/false, "mmm_tiled_orig",
                {{"mmm_tiled_cxa_64", 0.0}});
}

TEST(GenKernels, CholeskyRight) {
  checkVariants(makeCholeskyRight(), {131}, /*SPD=*/true, "chol_orig",
                {{"chol_stores_64", 0.0},
                 {"chol_reads_64", 0.0},
                 {"chol_product_wr_64", 0.0},
                 {"chol_two_level_64_8", 0.0}});
}

TEST(GenKernels, CholeskyLeft) {
  checkVariants(makeCholeskyLeft(), {131}, /*SPD=*/true, "chol_left_orig",
                {{"chol_left_stores_64", 0.0}});
}

TEST(GenKernels, QR) {
  checkVariants(makeQRHouseholder(), {97}, /*SPD=*/false, "qr_orig",
                {{"qr_cols_16", 0.0},
                 {"qr_cols_32", 0.0},
                 {"qr_cols_64", 0.0}});
}

TEST(GenKernels, ADI) {
  checkVariants(makeADI(), {73}, /*SPD=*/false, "adi_orig",
                {{"adi_fused", 0.0}});
}

TEST(GenKernels, Gmtry) {
  // Diagonal dominance keeps elimination without pivoting well-conditioned.
  checkVariants(makeGmtry(), {97}, /*SPD=*/true, "gmtry_orig",
                {{"gmtry_stores_64", 0.0}});
}

TEST(GenKernels, BandedCholesky) {
  checkVariants(makeCholeskyBanded(), {150, 17}, /*SPD=*/true, "band_orig",
                {{"band_stores_32", 0.0}});
}

} // namespace
