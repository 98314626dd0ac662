//===- emitc_test.cpp - C emission --------------------------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Structural checks on the emitted C (the numeric behaviour of compiled
// kernels is covered by genkernels_test.cpp, which compares them against
// the interpreter).
//
//===----------------------------------------------------------------------===//

#include "core/ShackleDriver.h"
#include "emitc/EmitC.h"
#include "interp/Interpreter.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace shackle;

namespace {

/// Emitted text is plain C: no C++ linkage, scope, library or keyword.
void expectPlainC(const std::string &S) {
  for (const char *Cxx : {"extern \"C\"", "namespace", "std::", "nullptr"})
    EXPECT_EQ(S.find(Cxx), std::string::npos) << Cxx << " in\n" << S;
}

TEST(EmitC, KernelSignatureAndParams) {
  BenchSpec Spec = makeMatMul();
  LoopNest Orig = generateOriginalCode(*Spec.Prog);
  std::string S = emitKernel(Orig, "my_kernel");
  EXPECT_EQ(S.find("void my_kernel(double **arrays, const int64_t *params)"),
            0u)
      << S;
  expectPlainC(S);
  EXPECT_NE(S.find("const int64_t N = params[0];"), std::string::npos);
  EXPECT_NE(S.find("__restrict"), std::string::npos);
}

TEST(EmitC, ColMajorAddressing) {
  // MMM arrays are column-major: offset of C[I,J] is I + J*N, which the
  // emitter writes innermost-dimension-major.
  BenchSpec Spec = makeMatMul();
  LoopNest Orig = generateOriginalCode(*Spec.Prog);
  std::string S = emitKernel(Orig, "k");
  EXPECT_NE(S.find("a0[((J))*(N) + (I)]"), std::string::npos) << S;
}

TEST(EmitC, BandStorageAddressing) {
  BenchSpec Spec = makeCholeskyBanded();
  LoopNest Orig = generateOriginalCode(*Spec.Prog);
  std::string S = emitKernel(Orig, "k");
  EXPECT_NE(S.find("(bw + 1)"), std::string::npos) << S;
}

TEST(EmitC, BlockedCodeUsesDivisionHelpersAndLets) {
  BenchSpec Spec = makeMatMul();
  LoopNest Nest = generateShackledCode(*Spec.Prog,
                                       mmmShackleCxA(*Spec.Prog, 25));
  std::string S = emitKernel(Nest, "k");
  EXPECT_NE(S.find("shk_floordiv("), std::string::npos) << S;
  EXPECT_NE(S.find("const int64_t b3 = b1;"), std::string::npos) << S;
}

TEST(EmitC, SqrtAndDivisionOperators) {
  BenchSpec Spec = makeCholeskyRight();
  LoopNest Orig = generateOriginalCode(*Spec.Prog);
  std::string S = emitKernel(Orig, "k");
  EXPECT_NE(S.find("__builtin_sqrt("), std::string::npos) << S;
  expectPlainC(S);
  EXPECT_NE(S.find(" / "), std::string::npos);
}

TEST(EmitC, TranslationUnitHasRegistryAndHelpers) {
  BenchSpec Spec = makeMatMul();
  LoopNest Orig = generateOriginalCode(*Spec.Prog);
  std::vector<KernelSpec> Kernels = {{"k1", &Orig}, {"k2", &Orig}};
  std::string TU = emitTranslationUnit(Kernels);
  EXPECT_NE(TU.find("static inline int64_t shk_ceildiv"), std::string::npos);
  EXPECT_NE(TU.find("#include <stdint.h>"), std::string::npos) << TU;
  expectPlainC(TU);
  EXPECT_NE(TU.find("shackle_gen_lookup"), std::string::npos);
  EXPECT_NE(TU.find("\"k1\""), std::string::npos);
  EXPECT_NE(TU.find("\"k2\""), std::string::npos);

  std::string H = emitHeader(Kernels);
  EXPECT_NE(H.find("void k1(double **arrays"), std::string::npos);
  EXPECT_NE(H.find("shackle_kernel_fn"), std::string::npos);
  expectPlainC(H);
}

TEST(EmitC, EmissionIsDeterministic) {
  BenchSpec Spec = makeCholeskyRight();
  LoopNest A = generateShackledCode(*Spec.Prog,
                                    choleskyShackleStores(*Spec.Prog, 16));
  BenchSpec Spec2 = makeCholeskyRight();
  LoopNest B = generateShackledCode(*Spec2.Prog,
                                    choleskyShackleStores(*Spec2.Prog, 16));
  EXPECT_EQ(emitKernel(A, "k"), emitKernel(B, "k"));
}

TEST(EmitC, GuardsEmitAsIfs) {
  BenchSpec Spec = makeMatMul();
  LoopNest Naive = generateNaiveShackledCode(*Spec.Prog,
                                             mmmShackleC(*Spec.Prog, 25));
  std::string S = emitKernel(Naive, "k");
  EXPECT_NE(S.find("if ("), std::string::npos);
  EXPECT_NE(S.find(">= 0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Native-tier emission: the translation unit and the strip-mine-aware GEMM
// merge (DESIGN.md §15), through the task emitters with a one-root segment
// sequence.
//===----------------------------------------------------------------------===//

TEST(EmitC, NativeTranslationUnitCarriesKernelsOnly) {
  BenchSpec Spec = makeMatMul();
  LoopNest Nest =
      generateShackledCode(*Spec.Prog, mmmShackleC(*Spec.Prog, 16));
  std::string S = emitNativeTranslationUnit(
      {{"k", &Nest, {Nest.Roots[0].get()}}}, NativeEmitOptions());
  EXPECT_NE(S.find("\nvoid k(double **arrays, const int64_t *dims, "
                   "const shackle_native_hooks *hooks)"),
            std::string::npos)
      << S;
  expectPlainC(S);
  // The same preamble as the dsc-gen unit, plus the hooks typedef.
  EXPECT_NE(S.find("static inline int64_t shk_floordiv"), std::string::npos);
  EXPECT_NE(S.find("} shackle_native_hooks;"), std::string::npos) << S;
  // Undo footprints come from the plan: the unit reports no stores.
  EXPECT_EQ(S.find("sink"), std::string::npos) << S;
  EXPECT_EQ(S.find("_writes"), std::string::npos) << S;
}

TEST(EmitC, GemmMergeSeesThroughStripMining) {
  BenchSpec Spec = makeMatMul();
  LoopNest Nest = generateShackledCode(*Spec.Prog,
                                       mmmShackleTwoLevel(*Spec.Prog, 32, 4));
  NativeEmitOptions Opts;
  Opts.GemmHooks = true;
  std::string S =
      emitNativeTaskKernel(Nest, {Nest.Roots[0].get()}, "k", Opts);
  EXPECT_NE(S.find("hooks->gemm("), std::string::npos) << S;
  // The element/tile pairs merge: the k range spans the whole 32-wide L2
  // tile (8 inner tiles of 4), not a single register tile.
  EXPECT_NE(S.find("_shkg_k_lb = 32*b4"), std::string::npos) << S;
  EXPECT_NE(S.find("32*b4 + 31"), std::string::npos) << S;
}

//===----------------------------------------------------------------------===//
// Offset math at block boundaries. The emitted expressions and the
// interpreter's ProgramInstance::offset are the two halves of the native
// differential oracle: they must agree element-for-element, and the edge
// cases live exactly at block boundaries — the last column of a col-major
// tile and the outermost stored diagonal of a band.
//===----------------------------------------------------------------------===//

TEST(EmitCOffsets, ColMajorIsColumnContiguousAcrossBlockEdges) {
  BenchSpec Spec = makeMatMul();
  const int64_t N = 24, B = 7; // B does not divide N: ragged last block.
  ProgramInstance Inst(*Spec.Prog, {N});
  for (unsigned A = 0; A < 3; ++A) {
    // Walking down a column is stride 1 even across a row-block boundary;
    // walking along a row is stride N even across a column-block boundary.
    for (int64_t Edge : {B - 1, B, 2 * B - 1, 2 * B, N - 2}) {
      int64_t IJ[2] = {Edge, 3};
      int64_t IJn[2] = {Edge + 1, 3};
      EXPECT_EQ(Inst.offset(A, IJn), Inst.offset(A, IJ) + 1)
          << "array " << A << " row edge " << Edge;
      int64_t JI[2] = {3, Edge};
      int64_t JIn[2] = {3, Edge + 1};
      EXPECT_EQ(Inst.offset(A, JIn), Inst.offset(A, JI) + N)
          << "array " << A << " col edge " << Edge;
    }
    // Corners of the linearization.
    int64_t First[2] = {0, 0}, LastRow[2] = {N - 1, 0},
            LastCol[2] = {0, N - 1}, Last[2] = {N - 1, N - 1};
    EXPECT_EQ(Inst.offset(A, First), 0);
    EXPECT_EQ(Inst.offset(A, LastRow), N - 1);
    EXPECT_EQ(Inst.offset(A, LastCol), (N - 1) * N);
    EXPECT_EQ(Inst.offset(A, Last), N * N - 1);
  }
}

TEST(EmitCOffsets, BandLowerIsPackedAndInBoundsAtTheBandEdge) {
  BenchSpec Spec = makeCholeskyBanded();
  const int64_t N = 12, Bw = 4;
  ProgramInstance Inst(*Spec.Prog, {N, Bw});
  ASSERT_EQ(Inst.buffer(0).size(),
            static_cast<std::size_t>((Bw + 1) * N));
  std::vector<char> Seen(Inst.buffer(0).size(), 0);
  for (int64_t J = 0; J < N; ++J) {
    for (int64_t I = J; I <= std::min<int64_t>(N - 1, J + Bw); ++I) {
      int64_t IJ[2] = {I, J};
      int64_t Off = Inst.offset(0, IJ);
      // The closed form: diagonal d = I - J packed within column J.
      EXPECT_EQ(Off, (I - J) + J * (Bw + 1)) << I << "," << J;
      ASSERT_GE(Off, 0);
      ASSERT_LT(Off, static_cast<int64_t>(Seen.size()))
          << "band edge overflow at I=" << I << " J=" << J;
      EXPECT_FALSE(Seen[static_cast<std::size_t>(Off)])
          << "band slots must not alias (I=" << I << " J=" << J << ")";
      Seen[static_cast<std::size_t>(Off)] = 1;
    }
  }
  // Boundary corners: the outermost stored diagonal (I - J == Bw) of the
  // first column, and the final diagonal element. The largest used offset
  // is (N-1)*(Bw+1); the (Bw+1)*N buffer's remaining slack belongs to the
  // clipped band corner of the last Bw columns, never aliased above.
  int64_t FirstColEdge[2] = {Bw, 0};
  EXPECT_EQ(Inst.offset(0, FirstColEdge), Bw);
  int64_t LastDiag[2] = {N - 1, N - 1};
  EXPECT_EQ(Inst.offset(0, LastDiag), (N - 1) * (Bw + 1));
  EXPECT_LT((N - 1) * (Bw + 1), static_cast<int64_t>(Seen.size()));
}

TEST(EmitCOffsets, BlockedColMajorEmitsArrayExtentStrides) {
  // Blocked code must linearize with the array extent (N), never the block
  // extent: a kernel compiled for one block of C still addresses the full
  // column-major matrix.
  BenchSpec Spec = makeMatMul();
  LoopNest Nest = generateShackledCode(*Spec.Prog,
                                       mmmShackleCxA(*Spec.Prog, 7));
  std::string S = emitKernel(Nest, "k");
  EXPECT_NE(S.find(")*(N) + "), std::string::npos) << S;
  EXPECT_EQ(S.find(")*(7) + "), std::string::npos) << S;
}

TEST(EmitCOffsets, BlockedBandEmitsBandwidthStrideNotExtent) {
  // The band stride is (bw + 1) — the packed diagonal count — not N. A
  // blocked banded factorization crossing a block boundary inside the band
  // must keep that stride for every reference.
  BenchSpec Spec = makeCholeskyBanded();
  LoopNest Nest = generateShackledCode(
      *Spec.Prog, choleskyShackleStores(*Spec.Prog, 5));
  std::string S = emitKernel(Nest, "k");
  EXPECT_NE(S.find("*(bw + 1)"), std::string::npos) << S;
  EXPECT_EQ(S.find("*(N) + "), std::string::npos) << S;
}

} // namespace
