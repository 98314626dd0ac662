//===- locality_test.cpp - Locality-aware scheduling --------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// The battery for locality-aware scheduling (DESIGN.md §11): affinity
// placement with hierarchical stealing must preserve bitwise serial
// equality at every thread count on MMM, Cholesky, and ADI; the affinity
// map must partition the task order into exactly one contiguous range per
// worker; and steal telemetry must stay consistent (Steals == LocalSteals +
// RemoteSteals, also across a two-domain split driven directly through the
// scheduler, and every task is a home hit when one worker runs alone).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "parallel/Affinity.h"
#include "parallel/ParallelExecutor.h"
#include "parallel/Scheduler.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace shackle;

namespace {

ParallelPlan buildAtLevel(const Program &P, const ShackleChain &Chain,
                          std::vector<int64_t> Params, unsigned Level) {
  ParallelPlanOptions Opts;
  Opts.TaskLevel = Level;
  return ParallelPlan::build(P, Chain, std::move(Params), Opts);
}

/// Runs \p Plan on a fresh copy of \p Init at each thread count and checks
/// the result is bitwise-identical to serial execution of the same nest.
void sweepKernel(const ParallelPlan &Plan, const ProgramInstance &Init) {
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  ProgramInstance Ser = Init;
  Plan.runSerial(Ser);
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    ProgramInstance Par = Init;
    ParallelRunOptions Opts;
    Opts.NumThreads = Threads;
    ParallelRunStats Stats = Plan.run(Par, Opts);
    std::string What = "threads=" + std::to_string(Threads);
    EXPECT_FALSE(Stats.Failed) << What;
    EXPECT_EQ(Stats.Mode, ParallelMode::Parallel) << What;
    EXPECT_EQ(Stats.Steals, Stats.LocalSteals + Stats.RemoteSteals) << What;
    EXPECT_TRUE(Par.bitwiseEqual(Ser)) << What << " " << Plan.summary();
  }
}

//===----------------------------------------------------------------------===//
// Bitwise serial equality at every thread count
//===----------------------------------------------------------------------===//

TEST(LocalityBitwise, TwoLevelMMMEveryConfigEveryThreadCount) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleTwoLevel(P, 8, 4);
  ProgramInstance Init(P, {16});
  Init.fillRandom(11, 0.5, 1.5);
  sweepKernel(buildAtLevel(P, Chain, {16}, 2), Init);
  sweepKernel(buildAtLevel(P, Chain, {16}, 0), Init);
}

TEST(LocalityBitwise, CholeskyProduct) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = choleskyShackleProduct(P, 4, /*WritesFirst=*/true);
  const int64_t N = 16;
  ProgramInstance Init(P, {N});
  Init.fillRandom(23, 0.5, 1.5);
  for (int64_t I = 0; I < N; ++I) {
    int64_t Idx[2] = {I, I};
    Init.buffer(0)[Init.offset(0, Idx)] += 3.0 * static_cast<double>(N);
  }
  sweepKernel(buildAtLevel(P, Chain, {N}, 0), Init);
}

TEST(LocalityBitwise, ADITwoLevelColumnPanels) {
  BenchSpec Spec = makeADI();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = adiShackleTwoLevel(P, 8);
  ProgramInstance Init(P, {32});
  Init.fillRandom(37, 0.5, 1.5);
  sweepKernel(buildAtLevel(P, Chain, {32}, 1), Init);
}

//===----------------------------------------------------------------------===//
// Affinity map: a contiguous, exhaustive partition of the task order
//===----------------------------------------------------------------------===//

/// Checks the partition invariants: NumWorkers + 1 monotone boundaries
/// tiling [0, NumTasks), and Home agreeing with the range each task falls
/// into (in particular every task has exactly one home).
void expectPartition(const AffinityMap &Map, std::size_t NumTasks) {
  ASSERT_TRUE(Map.valid());
  ASSERT_EQ(Map.Home.size(), NumTasks);
  ASSERT_EQ(Map.RangeBegin.size(), Map.NumWorkers + 1u);
  EXPECT_EQ(Map.RangeBegin.front(), 0u);
  EXPECT_EQ(Map.RangeBegin.back(), NumTasks);
  for (unsigned W = 0; W < Map.NumWorkers; ++W) {
    EXPECT_LE(Map.RangeBegin[W], Map.RangeBegin[W + 1]) << "worker " << W;
    for (uint32_t T = Map.RangeBegin[W]; T < Map.RangeBegin[W + 1]; ++T)
      EXPECT_EQ(Map.Home[T], W) << "task " << T;
  }
  // Homes are non-decreasing along the lexicographic order - the
  // "contiguous ranges" property stated directly on Home.
  for (std::size_t T = 1; T < NumTasks; ++T)
    EXPECT_LE(Map.Home[T - 1], Map.Home[T]);
}

TEST(AffinityMap, UniformWeightsSplitEvenly) {
  AffinityMap Map = buildAffinityMap(12, {}, 4);
  expectPartition(Map, 12);
  for (unsigned W = 0; W < 4; ++W)
    EXPECT_EQ(Map.RangeBegin[W + 1] - Map.RangeBegin[W], 3u) << W;
}

TEST(AffinityMap, WeightedCutsFollowTheWeight) {
  // One heavy task up front: it should own worker 0's range alone.
  AffinityMap Map = buildAffinityMap(5, {100, 1, 1, 1, 1}, 2);
  expectPartition(Map, 5);
  EXPECT_EQ(Map.RangeBegin[1], 1u);
  EXPECT_EQ(Map.Home[0], 0u);
  for (std::size_t T = 1; T < 5; ++T)
    EXPECT_EQ(Map.Home[T], 1u);
}

TEST(AffinityMap, EdgeCases) {
  // More workers than tasks: trailing ranges are empty, tasks still all
  // homed.
  AffinityMap Sparse = buildAffinityMap(3, {}, 8);
  expectPartition(Sparse, 3);
  // Zero tasks, zero workers (clamped to 1), zero weights.
  expectPartition(buildAffinityMap(0, {}, 4), 0);
  expectPartition(buildAffinityMap(6, {0, 0, 0, 0, 0, 0}, 0), 6);
  expectPartition(buildAffinityMap(1, {42}, 1), 1);
}

TEST(AffinityMap, PlanAffinityMatchesSchedulerClamp) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan =
      buildAtLevel(P, mmmShackleTwoLevel(P, 8, 4), {16}, 2);
  ASSERT_TRUE(Plan.parallelReady());
  const std::size_t N = Plan.partition().Tasks.size();
  // Requesting more threads than tasks clamps the map to the task count -
  // the same clamp the scheduler applies to its worker pool.
  AffinityMap Map = Plan.affinityMap(64);
  EXPECT_EQ(Map.NumWorkers, N);
  expectPartition(Map, N);
  expectPartition(Plan.affinityMap(2), N);
}

TEST(AffinityMap, DetectDomainSizeIsSane) {
  EXPECT_EQ(detectDomainSize(0), 1u);
  for (unsigned W : {1u, 2u, 4u, 8u, 64u}) {
    unsigned D = detectDomainSize(W);
    EXPECT_GE(D, 1u) << W;
    EXPECT_LE(D, W) << W;
  }
}

//===----------------------------------------------------------------------===//
// Steal telemetry consistency
//===----------------------------------------------------------------------===//

TEST(LocalityTelemetry, DomainSplitAndStealDecomposition) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan =
      buildAtLevel(P, mmmShackleTwoLevel(P, 8, 4), {16}, 0);
  ASSERT_TRUE(Plan.parallelReady());
  ProgramInstance Init(P, {16});
  Init.fillRandom(13, 0.5, 1.5);

  // Four workers split into detectDomainSize-wide domains (one domain on a
  // single-node machine); the split reported must tile the pool.
  ProgramInstance Inst = Init;
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  ParallelRunStats Stats = Plan.run(Inst, Opts);
  ASSERT_FALSE(Stats.Failed);
  EXPECT_EQ(Stats.DomainSize, detectDomainSize(Stats.ThreadsUsed));
  EXPECT_EQ(Stats.NumDomains,
            (Stats.ThreadsUsed + Stats.DomainSize - 1) / Stats.DomainSize);
  EXPECT_EQ(Stats.Steals, Stats.LocalSteals + Stats.RemoteSteals);
  EXPECT_LE(Stats.HomeHits, Stats.BlocksRun);

  // Single worker: its one range is the whole task order, every task is a
  // home hit, and nothing can be stolen or migrated.
  ProgramInstance Solo = Init;
  ParallelRunOptions SoloOpts;
  SoloOpts.NumThreads = 1;
  ParallelRunStats SoloStats = Plan.run(Solo, SoloOpts);
  EXPECT_EQ(SoloStats.HomeHits, SoloStats.BlocksRun);
  EXPECT_EQ(SoloStats.Steals, 0u);
  EXPECT_EQ(SoloStats.BytesMigrated, 0u);
}

TEST(LocalityTelemetry, SchedulerDomainSplitAndStealDecomposition) {
  // Two domains of two workers over an affinity-homed DAG of 8 independent
  // chains of 8 tasks. A single-node machine never splits the executor's
  // pool, so the split is driven through the scheduler directly.
  const std::size_t N = 64;
  std::vector<std::vector<uint32_t>> Succs(N);
  std::vector<uint32_t> InDeg(N, 0);
  for (uint32_t T = 0; T + 8 < N; ++T) {
    Succs[T].push_back(T + 8);
    ++InDeg[T + 8];
  }
  AffinityMap Map = buildAffinityMap(N, {}, 4);
  DagRunOptions Opts;
  Opts.NumThreads = 4;
  Opts.DomainSize = 2;
  Opts.Affinity = &Map.Home;
  DagRunResult R = runTaskDagPartial(N, Succs, InDeg, Opts,
                                     [](uint32_t, unsigned) { return true; });
  ASSERT_FALSE(R.Refused);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.Stats.DomainSizeUsed, 2u);
  EXPECT_EQ(R.Stats.NumDomains, 2u);
  EXPECT_EQ(R.Stats.TasksRun, N);
  EXPECT_EQ(R.Stats.Steals, R.Stats.LocalSteals + R.Stats.RemoteSteals);
  EXPECT_LE(R.Stats.HomeHits, R.Stats.TasksRun);
}

} // namespace
