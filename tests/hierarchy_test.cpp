//===- hierarchy_test.cpp - Hierarchical task graphs --------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// The differential battery for hierarchical task graphs (DESIGN.md §10):
// multi-level shackle chains scheduled at the outer-block granularity must
// be bitwise-identical to both the flat parallel schedule and serial
// shackled execution, at every task level and thread count. Also pins the
// structural legality argument (every flat dependence edge, projected to
// the outer block coordinates, is a self-loop or a hierarchical edge), the
// automatic task-level picker, the partition/pair-scan work caps' serial
// fallback, and the per-worker memory traces feeding the cache simulator.
//
//===----------------------------------------------------------------------===//

#include "cachesim/CacheSim.h"
#include "interp/Interpreter.h"
#include "parallel/BlockDepGraph.h"
#include "parallel/ParallelExecutor.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

using namespace shackle;

namespace {

ParallelPlan buildAtLevel(const Program &P, const ShackleChain &Chain,
                          std::vector<int64_t> Params, unsigned Level) {
  ParallelPlanOptions Opts;
  Opts.TaskLevel = Level;
  return ParallelPlan::build(P, Chain, std::move(Params), Opts);
}

/// Runs \p Plan at \p Threads on a fresh copy of \p Init and checks the
/// result is bitwise-identical to serial execution of the same nest.
void expectBitwise(const ParallelPlan &Plan, const ProgramInstance &Init,
                   unsigned Threads, unsigned ExpectTaskFactors) {
  ProgramInstance Par = Init, Ser = Init;
  ParallelRunOptions Opts;
  Opts.NumThreads = Threads;
  ParallelRunStats Stats = Plan.run(Par, Opts);
  Plan.runSerial(Ser);
  EXPECT_FALSE(Stats.Failed) << Plan.summary();
  EXPECT_EQ(Stats.Mode, ParallelMode::Parallel) << Plan.summary();
  EXPECT_EQ(Stats.TaskFactors, ExpectTaskFactors);
  EXPECT_EQ(Stats.BlocksRun, Plan.partition().Tasks.size());
  EXPECT_EQ(Stats.SegmentsRun, Plan.partition().totalSegments());
  EXPECT_TRUE(Par.bitwiseEqual(Ser))
      << "threads=" << Threads << " " << Plan.summary();
}

//===----------------------------------------------------------------------===//
// Differential battery: flat vs hierarchical vs serial
//===----------------------------------------------------------------------===//

TEST(HierarchyDifferential, TwoLevelMMMEveryLevelEveryThreadCount) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleTwoLevel(P, 8, 4); // 4 factors.
  ProgramInstance Init(P, {16});
  Init.fillRandom(11, 0.5, 1.5);

  for (unsigned Level : {0u, 1u, 2u, 3u}) {
    ParallelPlan Plan = buildAtLevel(P, Chain, {16}, Level);
    ASSERT_TRUE(Plan.parallelReady()) << "level " << Level << ": "
                                      << Plan.summary();
    unsigned Expect = Level == 0 ? 4u : Level;
    EXPECT_EQ(Plan.taskFactors(), Expect);
    EXPECT_EQ(Plan.hierarchical(), Level != 0 && Level != 4);
    for (unsigned Threads : {1u, 2u, 4u, 8u})
      expectBitwise(Plan, Init, Threads, Expect);
  }
}

TEST(HierarchyDifferential, CholeskyProductOuterTasks) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = choleskyShackleProduct(P, 4, /*WritesFirst=*/true);
  const int64_t N = 16;
  ProgramInstance Init(P, {N});
  Init.fillRandom(23, 0.5, 1.5);
  // Diagonally dominant input keeps the factorization numerically tame.
  for (int64_t I = 0; I < N; ++I) {
    int64_t Idx[2] = {I, I};
    Init.buffer(0)[Init.offset(0, Idx)] += 3.0 * static_cast<double>(N);
  }

  for (unsigned Level : {0u, 1u}) {
    ParallelPlan Plan = buildAtLevel(P, Chain, {N}, Level);
    ASSERT_TRUE(Plan.parallelReady()) << "level " << Level << ": "
                                      << Plan.summary();
    unsigned Expect = Level == 0 ? 2u : Level;
    for (unsigned Threads : {1u, 2u, 4u, 8u})
      expectBitwise(Plan, Init, Threads, Expect);
  }
}

TEST(HierarchyDifferential, ADITwoLevelColumnPanels) {
  BenchSpec Spec = makeADI();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = adiShackleTwoLevel(P, 8);
  ProgramInstance Init(P, {32});
  Init.fillRandom(37, 0.5, 1.5);

  for (unsigned Level : {0u, 1u}) {
    ParallelPlan Plan = buildAtLevel(P, Chain, {32}, Level);
    ASSERT_TRUE(Plan.parallelReady()) << "level " << Level << ": "
                                      << Plan.summary();
    unsigned Expect = Level == 0 ? 2u : Level;
    for (unsigned Threads : {1u, 2u, 4u, 8u})
      expectBitwise(Plan, Init, Threads, Expect);
  }
  // ADI's dependences flow along rows within one column, so the column
  // panels of the outer factor are fully independent: the hierarchical DAG
  // collapses to isolated nodes while the flat DAG is edge-dense.
  ParallelPlan Flat = buildAtLevel(P, Chain, {32}, 0);
  ParallelPlan Hier = buildAtLevel(P, Chain, {32}, 1);
  EXPECT_GT(Flat.graph().NumEdges, 0u);
  EXPECT_EQ(Hier.graph().NumEdges, 0u);
  EXPECT_GE(Flat.graph().numBlocks(), 8 * Hier.graph().numBlocks());
}

//===----------------------------------------------------------------------===//
// DAG coarsening: structural properties
//===----------------------------------------------------------------------===//

/// Every flat-DAG edge, projected to the hierarchical graph's outer block
/// coordinates, must be a self-loop (both endpoints in the same outer task,
/// ordered by the serial in-task segment replay) or an edge of the
/// hierarchical DAG (ordered by the scheduler). This is the legality of
/// coarsening: no flat dependence escapes the hierarchical ordering.
void expectCoarseningCovers(const ParallelPlan &Flat,
                            const ParallelPlan &Hier) {
  ASSERT_TRUE(Flat.parallelReady());
  ASSERT_TRUE(Hier.parallelReady());
  const BlockDepGraph &FG = Flat.graph(), &HG = Hier.graph();
  unsigned PD = HG.NumBlockDims;
  ASSERT_LE(PD, FG.NumBlockDims);

  std::map<std::vector<int64_t>, uint32_t> HIdx;
  for (uint32_t I = 0; I < HG.numBlocks(); ++I)
    HIdx[HG.Coords[I]] = I;

  uint64_t Checked = 0, SelfLoops = 0;
  for (uint32_t U = 0; U < FG.numBlocks(); ++U) {
    std::vector<int64_t> PU(FG.Coords[U].begin(), FG.Coords[U].begin() + PD);
    for (uint32_t V : FG.Succs[U]) {
      ++Checked;
      std::vector<int64_t> PV(FG.Coords[V].begin(),
                              FG.Coords[V].begin() + PD);
      if (PU == PV) {
        ++SelfLoops;
        continue;
      }
      auto FromIt = HIdx.find(PU), ToIt = HIdx.find(PV);
      ASSERT_NE(FromIt, HIdx.end());
      ASSERT_NE(ToIt, HIdx.end());
      const std::vector<uint32_t> &Succs = HG.Succs[FromIt->second];
      EXPECT_NE(std::find(Succs.begin(), Succs.end(), ToIt->second),
                Succs.end())
          << "flat edge " << U << "->" << V
          << " projects to a missing hierarchical edge";
    }
  }
  // The check must have exercised real edges to mean anything.
  EXPECT_GT(Checked, 0u);
  EXPECT_LT(SelfLoops, Checked);
}

TEST(HierarchyCoarsening, MMMFlatEdgesProjectIntoHierarchicalDag) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleTwoLevel(P, 8, 4);
  expectCoarseningCovers(buildAtLevel(P, Chain, {16}, 0),
                         buildAtLevel(P, Chain, {16}, 2));
}

TEST(HierarchyCoarsening, ADIFlatEdgesProjectIntoHierarchicalDag) {
  BenchSpec Spec = makeADI();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = adiShackleTwoLevel(P, 4);
  // All flat edges stay within one column panel here, so the projected
  // check degenerates to self-loops only; relax the self-loop bound by
  // checking coordinates directly.
  ParallelPlan Flat = buildAtLevel(P, Chain, {16}, 0);
  ParallelPlan Hier = buildAtLevel(P, Chain, {16}, 1);
  ASSERT_TRUE(Flat.parallelReady());
  ASSERT_TRUE(Hier.parallelReady());
  unsigned PD = Hier.graph().NumBlockDims;
  uint64_t Checked = 0;
  for (uint32_t U = 0; U < Flat.graph().numBlocks(); ++U)
    for (uint32_t V : Flat.graph().Succs[U]) {
      ++Checked;
      std::vector<int64_t> PU(Flat.graph().Coords[U].begin(),
                              Flat.graph().Coords[U].begin() + PD);
      std::vector<int64_t> PV(Flat.graph().Coords[V].begin(),
                              Flat.graph().Coords[V].begin() + PD);
      EXPECT_EQ(PU, PV) << "cross-panel dependence in ADI";
    }
  EXPECT_GT(Checked, 0u);
}

TEST(HierarchyCoarsening, PrefixBlockDimsSumLeadingFactors) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleTwoLevel(P, 8, 4);
  ASSERT_EQ(Chain.Factors.size(), 4u); // C@8, A@8, C@4, A@4 - 2 planes each.
  EXPECT_EQ(Chain.numBlockDims(), 8u);
  EXPECT_EQ(Chain.numBlockDimsPrefix(1), 2u);
  EXPECT_EQ(Chain.numBlockDimsPrefix(2), 4u);
  EXPECT_EQ(Chain.numBlockDimsPrefix(3), 6u);
  EXPECT_EQ(Chain.numBlockDimsPrefix(4), 8u);
  // 0 and out-of-range mean "the whole chain".
  EXPECT_EQ(Chain.numBlockDimsPrefix(0), 8u);
  EXPECT_EQ(Chain.numBlockDimsPrefix(9), 8u);

  // The plan's graph and partition range over exactly the prefix dims.
  ParallelPlan Plan = buildAtLevel(P, Chain, {16}, 2);
  ASSERT_TRUE(Plan.parallelReady());
  EXPECT_EQ(Plan.graph().NumBlockDims, 4u);
  for (const BlockTask &T : Plan.partition().Tasks)
    EXPECT_EQ(T.Coords.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Automatic task level
//===----------------------------------------------------------------------===//

TEST(HierarchyAuto, PicksCoarsestLevelWithEnoughTasks) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleTwoLevel(P, 8, 4);
  ParallelPlanOptions Opts;
  Opts.AutoTaskLevel = true;
  Opts.ThreadsHint = 4; // Wants >= 16 tasks.
  ParallelPlan Plan = ParallelPlan::build(P, Chain, {32}, Opts);
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  // Level 1 (C's outer blocks alone) already yields (32/8)^2 = 16 tasks,
  // so auto stops there instead of descending to finer levels.
  EXPECT_EQ(Plan.taskFactors(), 1u);
  EXPECT_GE(Plan.partition().Tasks.size(), 16u);
  EXPECT_TRUE(Plan.hierarchical());

  // The auto plan still executes bitwise-identically.
  ProgramInstance Init(P, {32});
  Init.fillRandom(5, 0.5, 1.5);
  expectBitwise(Plan, Init, 4, 1u);
}

//===----------------------------------------------------------------------===//
// Work caps: degrade to serial, never explode
//===----------------------------------------------------------------------===//

TEST(HierarchyCaps, MaxTasksOverflowFallsBackToSerial) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleTwoLevel(P, 8, 4);
  ParallelPlanOptions Opts;
  Opts.MaxTasks = 8; // The flat partition has 64 tasks at N=16.
  ParallelPlan Plan = ParallelPlan::build(P, Chain, {16}, Opts);
  EXPECT_FALSE(Plan.parallelReady());
  EXPECT_FALSE(Plan.partition().OK);
  EXPECT_NE(Plan.partition().FailReason.find("cap"), std::string::npos)
      << Plan.partition().FailReason;
  EXPECT_FALSE(Plan.diags().empty());

  // Execution still succeeds (serial fallback), bitwise-identical.
  ProgramInstance Par(P, {16}), Ser(P, {16});
  Par.fillRandom(9, 0.5, 1.5);
  Ser = Par;
  ParallelRunOptions RunOpts;
  RunOpts.NumThreads = 4;
  ParallelRunStats Stats = Plan.run(Par, RunOpts);
  Plan.runSerial(Ser);
  EXPECT_EQ(Stats.Mode, ParallelMode::SerialFallback);
  EXPECT_FALSE(Stats.Failed);
  EXPECT_TRUE(Par.bitwiseEqual(Ser));
}

TEST(HierarchyCaps, MaxPairVisitsOverflowFallsBackToSerial) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleTwoLevel(P, 8, 4);
  ParallelPlanOptions Opts;
  // The flat pair scan needs 64*63/2 = 2016 visits; the level-2 scan only
  // 8*7/2 = 28. A cap between the two kills flat and spares hierarchical.
  Opts.MaxPairVisits = 100;
  ParallelPlan Plan = ParallelPlan::build(P, Chain, {16}, Opts);
  EXPECT_FALSE(Plan.parallelReady());
  EXPECT_TRUE(Plan.graph().WorkCapHit);

  ProgramInstance Par(P, {16}), Ser(P, {16});
  Par.fillRandom(13, 0.5, 1.5);
  Ser = Par;
  ParallelRunOptions RunOpts;
  RunOpts.NumThreads = 4;
  ParallelRunStats Stats = Plan.run(Par, RunOpts);
  Plan.runSerial(Ser);
  EXPECT_EQ(Stats.Mode, ParallelMode::SerialFallback);
  EXPECT_TRUE(Par.bitwiseEqual(Ser));

  // A coarser task level shrinks the scan under the same cap.
  Opts.TaskLevel = 2;
  ParallelPlan Coarse = ParallelPlan::build(P, Chain, {16}, Opts);
  EXPECT_TRUE(Coarse.parallelReady()) << Coarse.summary();
}

//===----------------------------------------------------------------------===//
// Per-worker traces and cache simulation of the parallel traversal
//===----------------------------------------------------------------------===//

using Access = std::tuple<unsigned, int64_t, bool>;

struct TraceCollector {
  std::vector<std::vector<Access>> PerWorker;
  std::vector<TraceFn> Sinks;

  explicit TraceCollector(unsigned Workers) : PerWorker(Workers) {
    for (unsigned W = 0; W < Workers; ++W)
      Sinks.push_back([this, W](unsigned ArrayId, int64_t Off, bool IsWrite) {
        PerWorker[W].emplace_back(ArrayId, Off, IsWrite);
      });
  }

  std::vector<Access> merged() const {
    std::vector<Access> All;
    for (const std::vector<Access> &V : PerWorker)
      All.insert(All.end(), V.begin(), V.end());
    std::sort(All.begin(), All.end());
    return All;
  }
};

TEST(HierarchyTrace, WorkerTracesCoverTheSerialAccessMultiset) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleTwoLevel(P, 8, 4);
  ParallelPlan Plan = buildAtLevel(P, Chain, {16}, 2);
  ASSERT_TRUE(Plan.parallelReady());

  ProgramInstance Init(P, {16});
  Init.fillRandom(31, 0.5, 1.5);

  std::vector<Access> SerialAccesses;
  {
    ProgramInstance Ser = Init;
    TraceFn Trace = [&](unsigned ArrayId, int64_t Off, bool IsWrite) {
      SerialAccesses.emplace_back(ArrayId, Off, IsWrite);
    };
    runLoopNest(Plan.nest(), Ser, &Trace);
  }
  ASSERT_FALSE(SerialAccesses.empty());
  std::vector<Access> SerialSorted = SerialAccesses;
  std::sort(SerialSorted.begin(), SerialSorted.end());

  for (unsigned Threads : {1u, 4u}) {
    ProgramInstance Par = Init;
    TraceCollector Collector(Threads);
    ParallelRunOptions Opts;
    Opts.NumThreads = Threads;
    Opts.WorkerTraces = &Collector.Sinks;
    ParallelRunStats Stats = Plan.run(Par, Opts);
    EXPECT_FALSE(Stats.Failed);
    // Same accesses, same read/write mix - only the interleaving differs.
    EXPECT_EQ(Collector.merged(), SerialSorted) << "threads=" << Threads;
  }
}

TEST(HierarchyTrace, CacheSimMissesComparableSerialVsHierarchical) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleTwoLevel(P, 8, 4);
  ParallelPlan Plan = buildAtLevel(P, Chain, {16}, 2);
  ASSERT_TRUE(Plan.parallelReady());

  ProgramInstance Init(P, {16});
  Init.fillRandom(43, 0.5, 1.5);
  auto Address = [](unsigned ArrayId, int64_t Off) {
    return (static_cast<uint64_t>(ArrayId + 1) << 33) +
           static_cast<uint64_t>(Off) * sizeof(double);
  };
  std::vector<CacheConfig> Configs = {{"L1", 32 * 1024, 64, 4},
                                      {"L2", 256 * 1024, 64, 8}};

  CacheHierarchy Serial(Configs);
  {
    ProgramInstance Ser = Init;
    TraceFn Trace = [&](unsigned ArrayId, int64_t Off, bool) {
      Serial.access(Address(ArrayId, Off));
    };
    runLoopNest(Plan.nest(), Ser, &Trace);
  }

  // One worker: the parallel traversal is a topological reordering of the
  // same blocks, so its locality profile must stay in the same regime as
  // the serial shackled order.
  CacheHierarchy Parallel(Configs);
  {
    ProgramInstance Par = Init;
    std::vector<TraceFn> Sinks;
    Sinks.push_back([&](unsigned ArrayId, int64_t Off, bool) {
      Parallel.access(Address(ArrayId, Off));
    });
    ParallelRunOptions Opts;
    Opts.NumThreads = 1;
    Opts.WorkerTraces = &Sinks;
    ParallelRunStats Stats = Plan.run(Par, Opts);
    EXPECT_FALSE(Stats.Failed);
  }

  EXPECT_EQ(Parallel.accesses(), Serial.accesses());
  for (unsigned L = 0; L < 2; ++L) {
    uint64_t MS = Serial.level(L).misses(), MP = Parallel.level(L).misses();
    EXPECT_LE(MP, 2 * MS + 64) << "level " << L;
    EXPECT_LE(MS, 2 * MP + 64) << "level " << L;
  }
}

} // namespace
