//===- blas3_test.cpp - SYRK and TRMM through the pipeline ---------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "core/Legality.h"
#include "core/ShackleDriver.h"
#include "interp/Interpreter.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

using namespace shackle;

namespace {

double runBoth(const Program &P, const ShackleChain &Chain, int64_t N) {
  ProgramInstance Ref(P, {N}), Test(P, {N});
  Ref.fillRandom(14, 0.5, 1.5);
  for (unsigned A = 0; A < P.getNumArrays(); ++A)
    Test.buffer(A) = Ref.buffer(A);
  runLoopNest(generateOriginalCode(P), Ref);
  runLoopNest(generateShackledCode(P, Chain), Test);
  return Ref.maxAbsDifference(Test);
}

TEST(Syrk, ComputesTheLowerTriangleUpdate) {
  BenchSpec Spec = makeSyrk();
  const Program &P = *Spec.Prog;
  int64_t N = 7;
  ProgramInstance Inst(P, {N});
  Inst.fillRandom(2, 0.5, 1.5);
  std::vector<double> C0 = Inst.buffer(0), A = Inst.buffer(1);
  runLoopNest(generateOriginalCode(P), Inst);
  auto Off = [&](unsigned Arr, int64_t I, int64_t J) {
    int64_t Idx[2] = {I, J};
    return Inst.offset(Arr, Idx);
  };
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J <= I; ++J) {
      double Acc = C0[Off(0, I, J)];
      for (int64_t K = 0; K < N; ++K)
        Acc += A[Off(1, I, K)] * A[Off(1, J, K)];
      EXPECT_NEAR(Inst.buffer(0)[Off(0, I, J)], Acc, 1e-12);
    }
  // Strict upper triangle untouched.
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = I + 1; J < N; ++J)
      EXPECT_EQ(Inst.buffer(0)[Off(0, I, J)], C0[Off(0, I, J)]);
}

TEST(Syrk, StoreShackleLegalAndExact) {
  BenchSpec Spec = makeSyrk();
  const Program &P = *Spec.Prog;
  ShackleChain Chain;
  Chain.Factors.push_back(
      DataShackle::onStores(P, DataBlocking::rectangular(0, {8, 8})));
  ASSERT_TRUE(checkLegality(P, Chain).Legal);
  EXPECT_EQ(runBoth(P, Chain, 21), 0.0);
}

TEST(Trmm, ComputesLTimesBInPlace) {
  BenchSpec Spec = makeTrmm();
  const Program &P = *Spec.Prog;
  int64_t N = 8;
  ProgramInstance Inst(P, {N});
  Inst.fillRandom(5, 0.5, 1.5);
  std::vector<double> B0 = Inst.buffer(0), L = Inst.buffer(1);
  runLoopNest(generateOriginalCode(P), Inst);
  auto Off = [&](unsigned Arr, int64_t I, int64_t J) {
    int64_t Idx[2] = {I, J};
    return Inst.offset(Arr, Idx);
  };
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J) {
      double Acc = 0;
      for (int64_t K = 0; K <= I; ++K)
        Acc += L[Off(1, I, K)] * B0[Off(0, K, J)];
      EXPECT_NEAR(Inst.buffer(0)[Off(0, I, J)], Acc, 1e-12) << I << "," << J;
    }
}

TEST(Trmm, RowBlocksNeedTheReversedWalk) {
  // Rows are produced bottom-up, so walking row blocks top-to-bottom is
  // illegal and the reversed walk is legal — the same Section 8 reversal
  // pattern as the triangular solve.
  BenchSpec Spec = makeTrmm();
  const Program &P = *Spec.Prog;
  for (bool Reversed : {false, true}) {
    DataBlocking Blocking = DataBlocking::rectangular(0, {4, 4});
    Blocking.Planes[0].Reversed = Reversed;
    ShackleChain Chain;
    Chain.Factors.push_back(DataShackle::onStores(P, Blocking));
    EXPECT_EQ(checkLegality(P, Chain).Legal, Reversed);
    if (Reversed) {
      EXPECT_EQ(runBoth(P, Chain, 19), 0.0);
    }
  }
}

} // namespace
