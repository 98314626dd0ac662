//===- multipass_test.cpp - Multi-sweep block traversal ------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "core/Legality.h"
#include "core/ShackleDriver.h"
#include "interp/Interpreter.h"
#include "programs/Benchmarks.h"
#include "runtime/MultiPass.h"

#include <gtest/gtest.h>

using namespace shackle;

namespace {

TEST(MultiPass, SeidelSingleSweepIsIllegal) {
  BenchSpec Spec = makeSeidel1D();
  const Program &P = *Spec.Prog;
  EXPECT_FALSE(checkLegality(P, seidelShackle(P, 8)).Legal);
}

class SeidelMultiPass
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

TEST_P(SeidelMultiPass, CompletesAndMatchesOriginal) {
  auto [N, T, B] = GetParam();
  BenchSpec Spec = makeSeidel1D();
  const Program &P = *Spec.Prog;

  ProgramInstance Ref(P, {N, T}), Test(P, {N, T});
  Ref.fillRandom(33, 0.0, 1.0);
  Test.buffer(0) = Ref.buffer(0);
  runLoopNest(generateOriginalCode(P), Ref);

  ShackleChain Chain = seidelShackle(P, B);
  MultiPassResult R =
      runMultiPassShackled(P, Chain.Factors[0], Test);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Instances, static_cast<uint64_t>((N - 2) * T));
  EXPECT_EQ(Ref.maxAbsDifference(Test), 0.0);
  // With T sweeps and blocks of B, the right edge of each block keeps a
  // t+1 instance waiting on the next block: more than one pass is needed
  // whenever the array spans several blocks and T > 1.
  if (T > 1 && N - 2 > B) {
    EXPECT_GT(R.Passes, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SeidelMultiPass,
    ::testing::Values(std::make_tuple<int64_t>(12, 1, 4),
                      std::make_tuple<int64_t>(20, 3, 4),
                      std::make_tuple<int64_t>(33, 5, 8),
                      std::make_tuple<int64_t>(16, 4, 16),
                      std::make_tuple<int64_t>(9, 2, 2)));

TEST(MultiPass, LegalShackleCompletesInOnePass) {
  // For a shackle that is legal outright, the first sweep retires every
  // instance: multi-pass degenerates to the static schedule.
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = choleskyShackleStores(P, 4);
  ASSERT_TRUE(checkLegality(P, Chain).Legal);

  int64_t N = 13;
  ProgramInstance Ref(P, {N}), Test(P, {N});
  Ref.fillRandom(7, 0.5, 1.5);
  for (int64_t I = 0; I < N; ++I) {
    int64_t Idx[2] = {I, I};
    Ref.buffer(0)[Ref.offset(0, Idx)] += 3.0 * static_cast<double>(N);
  }
  Test.buffer(0) = Ref.buffer(0);
  runLoopNest(generateOriginalCode(P), Ref);

  MultiPassResult R = runMultiPassShackled(P, Chain.Factors[0], Test);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Passes, 1u);
  EXPECT_EQ(Ref.maxAbsDifference(Test), 0.0);
}

TEST(MultiPass, IllegalSingleShackleStillComputesCorrectResult) {
  // Multi-pass execution is correct even when the one-sweep shackle is not:
  // the paper-prose Cholesky "reads" choice with A[L,J].
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  std::vector<unsigned> RefIdx = {0, 2, 2};
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onRefs(
      P, DataBlocking::rectangular(0, {4, 4}, {1, 0}), RefIdx));
  ASSERT_FALSE(checkLegality(P, Chain).Legal);

  int64_t N = 14;
  ProgramInstance Ref(P, {N}), Test(P, {N});
  Ref.fillRandom(9, 0.5, 1.5);
  for (int64_t I = 0; I < N; ++I) {
    int64_t Idx[2] = {I, I};
    Ref.buffer(0)[Ref.offset(0, Idx)] += 3.0 * static_cast<double>(N);
  }
  Test.buffer(0) = Ref.buffer(0);
  runLoopNest(generateOriginalCode(P), Ref);

  MultiPassResult R = runMultiPassShackled(P, Chain.Factors[0], Test);
  EXPECT_TRUE(R.Completed);
  EXPECT_GT(R.Passes, 1u);
  EXPECT_EQ(Ref.maxAbsDifference(Test), 0.0);
}

TEST(MultiPass, Seidel2DCompletesAndMatches) {
  BenchSpec Spec = makeSeidel2D();
  const Program &P = *Spec.Prog;
  int64_t N = 10, T = 3;
  ProgramInstance Ref(P, {N, T}), Test(P, {N, T});
  Ref.fillRandom(21, 0.0, 1.0);
  Test.buffer(0) = Ref.buffer(0);
  runLoopNest(generateOriginalCode(P), Ref);

  DataShackle Sh =
      DataShackle::onStores(P, DataBlocking::rectangular(0, {4, 4}));
  {
    ShackleChain Chain;
    Chain.Factors.push_back(Sh);
    EXPECT_FALSE(checkLegality(P, Chain).Legal);
  }
  MultiPassResult R = runMultiPassShackled(P, Sh, Test);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Instances, static_cast<uint64_t>((N - 2) * (N - 2) * T));
  EXPECT_GT(R.Passes, 1u);
  EXPECT_EQ(Ref.maxAbsDifference(Test), 0.0);
}

TEST(MultiPass, MaxPassesCutoffReportsPartialProgress) {
  // A relaxation kernel needing several sweeps, capped at one: the run must
  // report Completed == false, count only what actually executed, and still
  // have retired at least the oldest pending instance (the progress property
  // that guarantees termination when passes are unbounded).
  BenchSpec Spec = makeSeidel1D();
  const Program &P = *Spec.Prog;
  int64_t N = 20, T = 3, B = 4;
  ShackleChain Chain = seidelShackle(P, B);

  ProgramInstance Full(P, {N, T});
  Full.fillRandom(33, 0.0, 1.0);
  MultiPassResult FullR = runMultiPassShackled(P, Chain.Factors[0], Full);
  ASSERT_TRUE(FullR.Completed);
  ASSERT_GT(FullR.Passes, 1u); // The cap below really cuts this run short.

  ProgramInstance Capped(P, {N, T});
  Capped.fillRandom(33, 0.0, 1.0);
  MultiPassResult R =
      runMultiPassShackled(P, Chain.Factors[0], Capped, /*MaxPasses=*/1);
  EXPECT_FALSE(R.Completed);
  EXPECT_EQ(R.Passes, 1u);
  EXPECT_EQ(R.TotalInstances, static_cast<uint64_t>((N - 2) * T));
  EXPECT_LT(R.Instances, R.TotalInstances);
  ASSERT_EQ(R.ExecutedPerPass.size(), 1u);
  EXPECT_EQ(R.ExecutedPerPass[0], R.Instances);
  // Progress property: the sweep retired the oldest pending instance (and
  // thus at least one), so repeated sweeps always terminate.
  EXPECT_GE(R.Instances, 1u);
  EXPECT_TRUE(R.OldestRetiredEachPass);
}

TEST(MultiPass, PerPassCountsSumToTotal) {
  BenchSpec Spec = makeSeidel1D();
  const Program &P = *Spec.Prog;
  int64_t N = 20, T = 3;
  ShackleChain Chain = seidelShackle(P, 4);
  ProgramInstance Inst(P, {N, T});
  Inst.fillRandom(5, 0.0, 1.0);
  MultiPassResult R = runMultiPassShackled(P, Chain.Factors[0], Inst);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.Instances, R.TotalInstances);
  EXPECT_EQ(R.ExecutedPerPass.size(), R.Passes);
  uint64_t Sum = 0;
  for (uint64_t C : R.ExecutedPerPass)
    Sum += C;
  EXPECT_EQ(Sum, R.TotalInstances);
  EXPECT_TRUE(R.OldestRetiredEachPass);
}

TEST(MultiPass, PassCountGrowsWithSweeps) {
  BenchSpec Spec = makeSeidel1D();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = seidelShackle(P, 4);
  auto PassesFor = [&](int64_t T) {
    ProgramInstance Inst(P, {24, T});
    Inst.fillRandom(1, 0.0, 1.0);
    return runMultiPassShackled(P, Chain.Factors[0], Inst).Passes;
  };
  EXPECT_LE(PassesFor(1), PassesFor(3));
  EXPECT_LE(PassesFor(3), PassesFor(6));
}

} // namespace
