//===- parallel_test.cpp - Parallel block-execution runtime -------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Tests for the parallel subsystem: the Chase-Lev deque, the work-stealing
// DAG scheduler, the block dependence graph, the block partition pass, and
// the end-to-end ParallelPlan determinism guarantee (parallel results are
// bitwise-identical to serial shackled execution, for any thread count).
//
//===----------------------------------------------------------------------===//

#include "core/Legality.h"
#include "core/ShackleDriver.h"
#include "interp/Interpreter.h"
#include "parallel/BlockDepGraph.h"
#include "parallel/BlockPartition.h"
#include "parallel/ChaseLevDeque.h"
#include "parallel/ParallelExecutor.h"
#include "parallel/Scheduler.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

using namespace shackle;

namespace {

//===----------------------------------------------------------------------===//
// ChaseLevDeque
//===----------------------------------------------------------------------===//

TEST(ChaseLevDeque, OwnerLifoThiefFifo) {
  ChaseLevDeque<int> D(4);
  for (int I = 0; I < 10; ++I)
    D.push(I);
  int V = -1;
  ASSERT_TRUE(D.pop(V));
  EXPECT_EQ(V, 9); // Owner pops the most recent push.
  ASSERT_TRUE(D.steal(V));
  EXPECT_EQ(V, 0); // Thieves take the oldest.
  ASSERT_TRUE(D.steal(V));
  EXPECT_EQ(V, 1);
  for (int I = 0; I < 7; ++I)
    ASSERT_TRUE(D.pop(V));
  EXPECT_FALSE(D.pop(V));
  EXPECT_FALSE(D.steal(V));
}

TEST(ChaseLevDeque, GrowsPastInitialCapacity) {
  ChaseLevDeque<int> D(2);
  const int N = 1000;
  for (int I = 0; I < N; ++I)
    D.push(I);
  std::vector<bool> Seen(N, false);
  int V = -1;
  int Count = 0;
  while (D.pop(V)) {
    ASSERT_FALSE(Seen[V]);
    Seen[V] = true;
    ++Count;
  }
  EXPECT_EQ(Count, N);
}

TEST(ChaseLevDeque, ConcurrentStealersGetEveryItemOnce) {
  // One owner pushes and pops; several thieves steal. Every pushed item
  // must be taken exactly once across all parties.
  const int NumItems = 20000;
  const int NumThieves = 3;
  ChaseLevDeque<int> D(8);
  std::atomic<bool> Stop{false};
  std::vector<std::atomic<uint8_t>> Taken(NumItems);
  for (auto &T : Taken)
    T.store(0);

  std::vector<std::thread> Thieves;
  for (int T = 0; T < NumThieves; ++T)
    Thieves.emplace_back([&]() {
      int V = -1;
      while (!Stop.load(std::memory_order_acquire))
        if (D.steal(V))
          Taken[V].fetch_add(1);
    });

  for (int I = 0; I < NumItems; ++I) {
    D.push(I);
    if (I % 3 == 0) {
      int V = -1;
      if (D.pop(V))
        Taken[V].fetch_add(1);
    }
  }
  int V = -1;
  while (D.pop(V))
    Taken[V].fetch_add(1);
  // Let thieves drain what is left (pop can lose the final-element race).
  for (int Spin = 0; Spin < 1000000 && D.sizeEstimate() > 0; ++Spin)
    std::this_thread::yield();
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Thieves)
    T.join();

  for (int I = 0; I < NumItems; ++I)
    EXPECT_EQ(Taken[I].load(), 1) << "item " << I;
}

TEST(ChaseLevDeque, GrowthMidStealKeepsEveryItemExactlyOnce) {
  // TSan stress: a capacity-2 deque grows many times while thieves race the
  // owner, so steals repeatedly read ring pointers that growth is retiring.
  const int NumItems = 20000;
  const int NumThieves = 3;
  ChaseLevDeque<int> D(2);
  std::atomic<bool> Stop{false};
  std::vector<std::atomic<uint8_t>> Taken(NumItems);
  for (auto &T : Taken)
    T.store(0);

  std::vector<std::thread> Thieves;
  for (int T = 0; T < NumThieves; ++T)
    Thieves.emplace_back([&]() {
      int V = -1;
      while (!Stop.load(std::memory_order_acquire))
        if (D.steal(V))
          Taken[V].fetch_add(1);
    });

  for (int I = 0; I < NumItems; ++I)
    ASSERT_TRUE(D.push(I));
  int V = -1;
  while (D.pop(V))
    Taken[V].fetch_add(1);
  for (int Spin = 0; Spin < 1000000 && D.sizeEstimate() > 0; ++Spin)
    std::this_thread::yield();
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Thieves)
    T.join();

  for (int I = 0; I < NumItems; ++I)
    EXPECT_EQ(Taken[I].load(), 1) << "item " << I;
}

//===----------------------------------------------------------------------===//
// Scheduler (runTaskDagPartial)
//===----------------------------------------------------------------------===//

/// Records a global completion order and verifies every edge afterwards.
struct OrderRecorder {
  std::mutex M;
  std::vector<uint32_t> Order;
  void record(uint32_t T) {
    std::lock_guard<std::mutex> L(M);
    Order.push_back(T);
  }
  bool respects(const std::vector<std::vector<uint32_t>> &Succs) const {
    std::vector<std::size_t> Pos(Order.size());
    for (std::size_t I = 0; I < Order.size(); ++I)
      Pos[Order[I]] = I;
    for (uint32_t U = 0; U < Succs.size(); ++U)
      for (uint32_t V : Succs[U])
        if (Pos[U] >= Pos[V])
          return false;
    return true;
  }
};

std::vector<uint32_t> inDegreesOf(std::size_t N,
                                  const std::vector<std::vector<uint32_t>> &S) {
  std::vector<uint32_t> D(N, 0);
  for (const auto &Out : S)
    for (uint32_t V : Out)
      ++D[V];
  return D;
}

/// Runs \p Body on every task through runTaskDagPartial (bodies always
/// succeed); true when the graph was accepted and every task completed.
bool runAll(std::size_t N, const std::vector<std::vector<uint32_t>> &Succs,
            const std::vector<uint32_t> &InDegree, unsigned Threads,
            const std::function<void(uint32_t, unsigned)> &Body,
            DagRunStats *Stats = nullptr) {
  DagRunOptions Opts;
  Opts.NumThreads = Threads;
  DagRunResult R = runTaskDagPartial(N, Succs, InDegree, Opts,
                                     [&Body](uint32_t T, unsigned W) {
                                       Body(T, W);
                                       return true;
                                     });
  if (Stats)
    *Stats = R.Stats;
  return !R.Refused && R.Completed;
}

TEST(Scheduler, RunsChainInOrderEveryThreadCount) {
  const std::size_t N = 64;
  std::vector<std::vector<uint32_t>> Succs(N);
  for (uint32_t I = 0; I + 1 < N; ++I)
    Succs[I].push_back(I + 1);
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    OrderRecorder R;
    DagRunStats Stats;
    ASSERT_TRUE(runAll(
        N, Succs, inDegreesOf(N, Succs), Threads,
        [&](uint32_t T, unsigned) { R.record(T); }, &Stats));
    EXPECT_EQ(R.Order.size(), N);
    EXPECT_TRUE(R.respects(Succs));
    EXPECT_EQ(Stats.TasksRun, N);
  }
}

TEST(Scheduler, RunsDiamondAndWideFanOut) {
  // 0 -> {1..62} -> 63.
  const std::size_t N = 64;
  std::vector<std::vector<uint32_t>> Succs(N);
  for (uint32_t I = 1; I + 1 < N; ++I) {
    Succs[0].push_back(I);
    Succs[I].push_back(N - 1);
  }
  for (unsigned Threads : {1u, 3u, 8u}) {
    OrderRecorder R;
    ASSERT_TRUE(runAll(N, Succs, inDegreesOf(N, Succs), Threads,
                       [&](uint32_t T, unsigned) { R.record(T); }));
    ASSERT_EQ(R.Order.size(), N);
    EXPECT_EQ(R.Order.front(), 0u);
    EXPECT_EQ(R.Order.back(), N - 1);
    EXPECT_TRUE(R.respects(Succs));
  }
}

TEST(Scheduler, RunsLayeredRandomishDag) {
  // Deterministic pseudo-random layered DAG: 8 layers of 16, each node
  // depends on a few nodes of the previous layer.
  const unsigned Layers = 8, Width = 16;
  const std::size_t N = Layers * Width;
  std::vector<std::vector<uint32_t>> Succs(N);
  uint64_t State = 12345;
  auto Next = [&State]() {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(State >> 33);
  };
  for (unsigned L = 1; L < Layers; ++L)
    for (unsigned W = 0; W < Width; ++W) {
      uint32_t V = L * Width + W;
      unsigned Preds = 1 + Next() % 3;
      for (unsigned K = 0; K < Preds; ++K) {
        uint32_t U = (L - 1) * Width + Next() % Width;
        if (std::find(Succs[U].begin(), Succs[U].end(), V) == Succs[U].end())
          Succs[U].push_back(V);
      }
    }
  for (unsigned Threads : {1u, 4u, 8u}) {
    OrderRecorder R;
    ASSERT_TRUE(runAll(N, Succs, inDegreesOf(N, Succs), Threads,
                       [&](uint32_t T, unsigned) { R.record(T); }));
    EXPECT_EQ(R.Order.size(), N);
    EXPECT_TRUE(R.respects(Succs));
  }
}

TEST(Scheduler, RefusesCyclesWithoutRunningAnything) {
  std::vector<std::vector<uint32_t>> Succs = {{1}, {2}, {0}};
  std::atomic<int> Ran{0};
  EXPECT_FALSE(runAll(3, Succs, inDegreesOf(3, Succs), 4,
                      [&](uint32_t, unsigned) { Ran.fetch_add(1); }));
  EXPECT_EQ(Ran.load(), 0);
}

TEST(Scheduler, RefusesInconsistentInDegrees) {
  std::vector<std::vector<uint32_t>> Succs = {{1}, {}};
  std::vector<uint32_t> Wrong = {0, 0}; // Node 1 really has in-degree 1.
  std::atomic<int> Ran{0};
  EXPECT_FALSE(runAll(2, Succs, Wrong, 2,
                      [&](uint32_t, unsigned) { Ran.fetch_add(1); }));
  EXPECT_EQ(Ran.load(), 0);
}

TEST(Scheduler, WideFanOutForcesDequeGrowthUnderContention) {
  // TSan stress: one root releases 4096 successors in a single completion,
  // overflowing the finishing worker's deque capacity (N/workers + 64) and
  // forcing growth while seven other workers steal from it.
  const std::size_t N = 4097;
  std::vector<std::vector<uint32_t>> Succs(N);
  for (uint32_t V = 1; V < N; ++V)
    Succs[0].push_back(V);
  std::vector<std::atomic<uint32_t>> Ran(N);
  for (auto &R : Ran)
    R.store(0);
  DagRunStats Stats;
  ASSERT_TRUE(runAll(
      N, Succs, inDegreesOf(N, Succs), 8,
      [&](uint32_t T, unsigned) { Ran[T].fetch_add(1); }, &Stats));
  EXPECT_EQ(Stats.TasksRun, N);
  for (std::size_t T = 0; T < N; ++T)
    ASSERT_EQ(Ran[T].load(), 1u) << "task " << T;
}

TEST(Scheduler, WavefrontNarrowWideAlternationParksAndWakesCleanly) {
  // TSan stress: layers alternate between 1 task (every other worker must
  // park) and 8 tasks (one per worker), hammering the park/wake protocol.
  const unsigned Layers = 40;
  std::vector<std::vector<uint32_t>> Succs;
  std::vector<uint32_t> LayerStart;
  uint32_t Next = 0;
  for (unsigned L = 0; L < Layers; ++L) {
    LayerStart.push_back(Next);
    Next += (L % 2 == 0) ? 1 : 8;
  }
  const std::size_t N = Next;
  Succs.resize(N);
  for (unsigned L = 0; L + 1 < Layers; ++L) {
    uint32_t W = (L % 2 == 0) ? 1 : 8;
    uint32_t WN = ((L + 1) % 2 == 0) ? 1 : 8;
    for (uint32_t A = 0; A < W; ++A)
      for (uint32_t B = 0; B < WN; ++B)
        Succs[LayerStart[L] + A].push_back(LayerStart[L + 1] + B);
  }
  OrderRecorder R;
  DagRunStats Stats;
  ASSERT_TRUE(runAll(
      N, Succs, inDegreesOf(N, Succs), 8,
      [&](uint32_t T, unsigned) { R.record(T); }, &Stats));
  EXPECT_EQ(R.Order.size(), N);
  EXPECT_TRUE(R.respects(Succs));
}

TEST(Scheduler, PartialRunReportsExactlyTheUnfinishedSuffix) {
  // Chain 0->1->2->3->4; task 2 fails. Tasks 0 and 1 complete, 2 fails,
  // 3 and 4 are never released — the completion map says exactly that.
  const std::size_t N = 5;
  std::vector<std::vector<uint32_t>> Succs(N);
  for (uint32_t I = 0; I + 1 < N; ++I)
    Succs[I].push_back(I + 1);
  std::atomic<uint32_t> Ran{0};
  DagRunOptions Opts;
  Opts.NumThreads = 4;
  DagRunResult Result = runTaskDagPartial(
      N, Succs, inDegreesOf(N, Succs), Opts, [&](uint32_t T, unsigned) {
        Ran.fetch_add(1);
        return T != 2;
      });
  ASSERT_FALSE(Result.Refused);
  EXPECT_FALSE(Result.Completed);
  EXPECT_EQ(Result.Stats.Abort, DagAbort::TaskFailed);
  EXPECT_EQ(Result.Stats.TaskFailures, 1u);
  ASSERT_EQ(Result.TaskDone.size(), N);
  EXPECT_TRUE(Result.TaskDone[0]);
  EXPECT_TRUE(Result.TaskDone[1]);
  EXPECT_FALSE(Result.TaskDone[2]);
  EXPECT_FALSE(Result.TaskDone[3]);
  EXPECT_FALSE(Result.TaskDone[4]);
  EXPECT_EQ(Ran.load(), 3u); // 0, 1, and the failing 2; never 3 or 4.
}

TEST(Scheduler, PartialRunThrownExceptionQuiescesLikeAFailure) {
  std::vector<std::vector<uint32_t>> Succs = {{1}, {}};
  DagRunOptions Opts;
  Opts.NumThreads = 2;
  DagRunResult Result = runTaskDagPartial(
      2, Succs, inDegreesOf(2, Succs), Opts,
      [&](uint32_t, unsigned) -> bool { throw std::runtime_error("boom"); });
  ASSERT_FALSE(Result.Refused);
  EXPECT_FALSE(Result.Completed);
  EXPECT_EQ(Result.Stats.Abort, DagAbort::TaskFailed);
  EXPECT_FALSE(Result.TaskDone[0]);
  EXPECT_FALSE(Result.TaskDone[1]);
}

TEST(Scheduler, PartialRunRefusesCyclesLikeTheStrictWrapper) {
  std::vector<std::vector<uint32_t>> Succs = {{1}, {2}, {0}};
  DagRunOptions Opts;
  Opts.NumThreads = 2;
  std::atomic<int> Ran{0};
  DagRunResult Result =
      runTaskDagPartial(3, Succs, inDegreesOf(3, Succs), Opts,
                        [&](uint32_t, unsigned) {
                          Ran.fetch_add(1);
                          return true;
                        });
  EXPECT_TRUE(Result.Refused);
  EXPECT_FALSE(Result.Completed);
  EXPECT_EQ(Ran.load(), 0);
}

TEST(Scheduler, DeadlineAbortsARunThatCannotFinishInTime) {
  // A chain of tasks that each sleep: the deadline fires mid-run and the
  // completion map records a strict prefix.
  const std::size_t N = 64;
  std::vector<std::vector<uint32_t>> Succs(N);
  for (uint32_t I = 0; I + 1 < N; ++I)
    Succs[I].push_back(I + 1);
  DagRunOptions Opts;
  Opts.NumThreads = 2;
  Opts.DeadlineMs = 40;
  DagRunResult Result = runTaskDagPartial(
      N, Succs, inDegreesOf(N, Succs), Opts, [&](uint32_t, unsigned) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return true;
      });
  ASSERT_FALSE(Result.Refused);
  EXPECT_FALSE(Result.Completed);
  EXPECT_EQ(Result.Stats.Abort, DagAbort::Deadline);
  uint64_t Done = 0;
  for (uint8_t D : Result.TaskDone)
    Done += D;
  EXPECT_GT(Done, 0u);
  EXPECT_LT(Done, N);
  // Chain: completion must be a prefix (failed tasks release no successors).
  for (std::size_t T = 1; T < N; ++T) {
    if (Result.TaskDone[T]) {
      EXPECT_TRUE(Result.TaskDone[T - 1]) << "task " << T;
    }
  }
}

TEST(Scheduler, HandlesEmptyAndSingletonDags) {
  EXPECT_TRUE(runAll(0, {}, {}, 4, [](uint32_t, unsigned) {}));
  std::atomic<int> Ran{0};
  EXPECT_TRUE(runAll(1, {{}}, {0}, 8,
                     [&](uint32_t, unsigned) { Ran.fetch_add(1); }));
  EXPECT_EQ(Ran.load(), 1);
}

//===----------------------------------------------------------------------===//
// BlockDepGraph
//===----------------------------------------------------------------------===//

TEST(BlockDepGraph, MatMulOnCBlocksAreIndependent) {
  // Every dependence of C += A*B is a reduction on one C element; shackled
  // on C, both endpoints land in the same block, so no cross-block sign
  // pattern is feasible and the DAG has no edges at all.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleC(P, 8);
  ASSERT_TRUE(checkLegality(P, Chain).Legal);

  bool SawUnknown = false;
  std::vector<std::vector<int>> Patterns =
      blockDependenceSigns(P, Chain, {32}, SolverBudget(), &SawUnknown);
  EXPECT_FALSE(SawUnknown);
  EXPECT_TRUE(Patterns.empty());

  LoopNest Nest = generateShackledCode(P, Chain);
  BlockPartition Part = partitionLoopNestByBlocks(Nest, 2, {32});
  ASSERT_TRUE(Part.OK);
  EXPECT_EQ(Part.Tasks.size(), 16u); // (32/8)^2 blocks of C.

  BlockDepGraph G = buildBlockDepGraph(P, Chain, {32}, Part.coords());
  EXPECT_EQ(G.numBlocks(), 16u);
  EXPECT_EQ(G.NumEdges, 0u);
  EXPECT_TRUE(G.acyclic());
  EXPECT_EQ(G.criticalPathLength(), 1u);
  EXPECT_FALSE(G.Conservative);
}

TEST(BlockDepGraph, CholeskyHasForwardEdgesAndIsAcyclic) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = choleskyShackleStores(P, 4);
  ASSERT_TRUE(checkLegality(P, Chain).Legal);

  LoopNest Nest = generateShackledCode(P, Chain);
  BlockPartition Part = partitionLoopNestByBlocks(Nest, 2, {16});
  ASSERT_TRUE(Part.OK);

  BlockDepGraph G = buildBlockDepGraph(P, Chain, {16}, Part.coords());
  EXPECT_GT(G.NumEdges, 0u); // The factorization really orders its blocks.
  EXPECT_TRUE(G.acyclic());
  // Legal shackle => every feasible pattern is lexicographically positive
  // (Theorem 1 excludes backward patterns, and the all-zero pattern is
  // excluded by construction).
  for (const std::vector<int> &Pat : G.SignPatterns) {
    auto NZ = std::find_if(Pat.begin(), Pat.end(), [](int S) { return S != 0; });
    ASSERT_NE(NZ, Pat.end());
    EXPECT_GT(*NZ, 0);
  }
  // Every edge goes forward in traversal order (Coords are sorted lex).
  for (uint32_t U = 0; U < G.Succs.size(); ++U)
    for (uint32_t V : G.Succs[U])
      EXPECT_LT(G.Coords[U], G.Coords[V]);
  // The diagonal chain forces a critical path several blocks long.
  EXPECT_GT(G.criticalPathLength(), 1u);
  EXPECT_LE(G.criticalPathLength(), G.numBlocks());
}

TEST(BlockDepGraph, EdgeCapDegradesGracefully) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = choleskyShackleStores(P, 4);
  LoopNest Nest = generateShackledCode(P, Chain);
  BlockPartition Part = partitionLoopNestByBlocks(Nest, 2, {16});
  ASSERT_TRUE(Part.OK);
  BlockDepGraphOptions Opts;
  Opts.MaxEdges = 1;
  BlockDepGraph G = buildBlockDepGraph(P, Chain, {16}, Part.coords(), Opts);
  EXPECT_TRUE(G.EdgeCapHit);
  EXPECT_FALSE(G.acyclic()); // Unusable graphs must not schedule.
}

//===----------------------------------------------------------------------===//
// BlockPartition
//===----------------------------------------------------------------------===//

TEST(BlockPartition, CoordsMatchTraversalOrderAndCoverEveryBlock) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = choleskyShackleStores(P, 4);
  LoopNest Nest = generateShackledCode(P, Chain);
  BlockPartition Part = partitionLoopNestByBlocks(Nest, 2, {16});
  ASSERT_TRUE(Part.OK);
  EXPECT_EQ(Part.NumBlockDims, 2u);
  ASSERT_FALSE(Part.Tasks.empty());
  // Traversal order is lexicographic in block coordinates, no duplicates.
  for (std::size_t I = 0; I + 1 < Part.Tasks.size(); ++I)
    EXPECT_LT(Part.Tasks[I].Coords, Part.Tasks[I + 1].Coords);
  // Lower-triangular 16x16 matrix in 4x4 blocks: 4+3+2+1 touched blocks.
  EXPECT_EQ(Part.Tasks.size(), 10u);
  for (const BlockTask &T : Part.Tasks) {
    EXPECT_EQ(T.Coords.size(), 2u);
    EXPECT_FALSE(T.Segments.empty());
    for (const BlockTask::Segment &Seg : T.Segments) {
      ASSERT_NE(Seg.Node, nullptr);
      ASSERT_EQ(Seg.DimValues.size(), Nest.NumDims);
      EXPECT_EQ(Seg.DimValues[0], 16); // Parameter N.
      EXPECT_EQ(Seg.DimValues[1], T.Coords[0]);
      EXPECT_EQ(Seg.DimValues[2], T.Coords[1]);
    }
  }
}

TEST(BlockPartition, SerialSegmentReplayMatchesFullNest) {
  // Running every task's segments in traversal order through
  // runLoopNestSubtree must reproduce plain runLoopNest exactly.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleC(P, 8);
  LoopNest Nest = generateShackledCode(P, Chain);
  int64_t N = 24;
  BlockPartition Part = partitionLoopNestByBlocks(Nest, 2, {N});
  ASSERT_TRUE(Part.OK);

  ProgramInstance Ref(P, {N}), Test(P, {N});
  Ref.fillRandom(11, -1.0, 1.0);
  for (unsigned A = 0; A < 3; ++A)
    Test.buffer(A) = Ref.buffer(A);
  runLoopNest(Nest, Ref);
  for (const BlockTask &T : Part.Tasks)
    for (const BlockTask::Segment &Seg : T.Segments)
      runLoopNestSubtree(Nest, *Seg.Node, Seg.DimValues, Test);
  EXPECT_TRUE(Ref.bitwiseEqual(Test));
}

//===----------------------------------------------------------------------===//
// ParallelPlan: end-to-end determinism
//===----------------------------------------------------------------------===//

bool hasParallelFallbackDiag(const std::vector<Diagnostic> &Diags) {
  for (const Diagnostic &D : Diags)
    if (D.Code == DiagCode::ParallelFallback)
      return true;
  return false;
}

/// Runs Spec's Chain in parallel with every thread count and checks the
/// result is bitwise-identical to the serial shackled execution.
void expectDeterministic(const BenchSpec &Spec, const ShackleChain &Chain,
                         std::vector<int64_t> Params, bool ExpectReady,
                         unsigned Repeats = 2) {
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, Chain, Params);
  EXPECT_EQ(Plan.parallelReady(), ExpectReady) << Plan.summary();

  ProgramInstance Ref(P, Params);
  Ref.fillRandom(77, 0.5, 1.5);
  // Diagonal boost keeps Cholesky-style factorizations well conditioned.
  for (unsigned A = 0; A < P.getNumArrays(); ++A)
    for (double &V : Ref.buffer(A))
      V += 1.0;
  ProgramInstance Init = Ref;
  Plan.runSerial(Ref);

  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    for (unsigned Rep = 0; Rep < Repeats; ++Rep) {
      ProgramInstance Par = Init;
      ParallelRunOptions Opts;
      Opts.NumThreads = Threads;
      ParallelRunStats Stats = Plan.run(Par, Opts);
      EXPECT_TRUE(Ref.bitwiseEqual(Par))
          << Spec.Name << " threads=" << Threads << " rep=" << Rep
          << " mode=" << parallelModeName(Stats.Mode);
      if (ExpectReady) {
        EXPECT_EQ(Stats.Mode, ParallelMode::Parallel);
        EXPECT_EQ(Stats.BlocksRun, Plan.partition().Tasks.size());
      } else {
        EXPECT_EQ(Stats.Mode, ParallelMode::SerialFallback);
      }
    }
  }
}

TEST(ParallelPlan, MatMulDeterministicAcrossThreadCounts) {
  BenchSpec Spec = makeMatMul();
  expectDeterministic(Spec, mmmShackleC(*Spec.Prog, 8), {32}, true);
}

TEST(ParallelPlan, MatMulFullyBlockedDeterministic) {
  BenchSpec Spec = makeMatMul();
  expectDeterministic(Spec, mmmShackleCxA(*Spec.Prog, 8), {24}, true);
}

TEST(ParallelPlan, CholeskyDeterministicAcrossThreadCounts) {
  BenchSpec Spec = makeCholeskyRight();
  expectDeterministic(Spec, choleskyShackleStores(*Spec.Prog, 4), {20}, true);
}

TEST(ParallelPlan, AdiDeterministicAcrossThreadCounts) {
  BenchSpec Spec = makeADI();
  expectDeterministic(Spec, adiShackle(*Spec.Prog), {12}, true);
}

TEST(ParallelPlan, MatMulParallelSpeedupInstrumentation) {
  // Not a timing test (CI machines vary); asserts the parallel run really
  // distributes work: with independent blocks and several workers, worker 0
  // must not execute everything when other workers steal.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmShackleC(P, 8), {32});
  ASSERT_TRUE(Plan.parallelReady());
  EXPECT_EQ(Plan.graph().NumEdges, 0u);
  ProgramInstance Inst(P, {32});
  Inst.fillRandom(3, 0.0, 1.0);
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  ParallelRunStats Stats = Plan.run(Inst, Opts);
  EXPECT_EQ(Stats.Mode, ParallelMode::Parallel);
  EXPECT_EQ(Stats.BlocksRun, 16u);
  EXPECT_LE(Stats.ThreadsUsed, 4u);
}

TEST(ParallelPlan, IllegalShackleFallsBackToSerialAndStaysCorrect) {
  // Seidel's single-sweep shackle is illegal; the plan must degrade to the
  // original-order serial tier, emit a ParallelFallback diagnostic, and
  // still compute the right answer.
  BenchSpec Spec = makeSeidel1D();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, seidelShackle(P, 8), {24, 3});
  EXPECT_FALSE(Plan.parallelReady());
  EXPECT_EQ(Plan.tier(), CodegenTier::Original);
  bool SawFallbackDiag = false;
  for (const Diagnostic &D : Plan.diags())
    if (D.Code == DiagCode::ParallelFallback)
      SawFallbackDiag = true;
  EXPECT_TRUE(SawFallbackDiag);

  ProgramInstance Ref(P, {24, 3}), Par(P, {24, 3});
  Ref.fillRandom(5, 0.0, 1.0);
  Par.buffer(0) = Ref.buffer(0);
  runLoopNest(generateOriginalCode(P), Ref);
  ParallelRunOptions Opts;
  Opts.NumThreads = 8;
  ParallelRunStats Stats = Plan.run(Par, Opts);
  EXPECT_EQ(Stats.Mode, ParallelMode::SerialFallback);
  EXPECT_TRUE(Ref.bitwiseEqual(Par));
}

TEST(ParallelPlan, TinySolverBudgetFallsBackAcrossTheTierBoundary) {
  // With a starved solver the legality check cannot prove the shackle, so
  // the plan crosses the tier boundary down to Original code, diagnoses
  // the fallback, and still computes the right answer serially.
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ParallelPlanOptions Opts;
  Opts.Budget.MaxWorkUnits = 5;
  ParallelPlan Plan =
      ParallelPlan::build(P, choleskyShackleStores(P, 4), {16}, Opts);
  EXPECT_FALSE(Plan.parallelReady());
  EXPECT_TRUE(hasParallelFallbackDiag(Plan.diags())) << Plan.summary();

  ProgramInstance Ref(P, {16}), Par(P, {16});
  Ref.fillRandom(5, 0.5, 1.5);
  for (double &V : Ref.buffer(0))
    V += 1.0;
  Par.buffer(0) = Ref.buffer(0);
  runLoopNest(generateOriginalCode(P), Ref);
  ParallelRunOptions RunOpts;
  RunOpts.NumThreads = 4;
  ParallelRunStats Stats = Plan.run(Par, RunOpts);
  EXPECT_EQ(Stats.Mode, ParallelMode::SerialFallback);
  EXPECT_TRUE(Ref.bitwiseEqual(Par));
}

TEST(ParallelPlan, EdgeCapHitKeepsTheProvenTierButRunsSerially) {
  // MaxEdges=1 makes the DAG unusable (EdgeCapHit -> not acyclic), but the
  // shackle itself is proven legal: the plan keeps the shackled nest and
  // runs it serially in traversal order, bitwise-equal to runSerial.
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ParallelPlanOptions Opts;
  Opts.MaxEdges = 1;
  ParallelPlan Plan =
      ParallelPlan::build(P, choleskyShackleStores(P, 4), {16}, Opts);
  EXPECT_FALSE(Plan.parallelReady());
  EXPECT_EQ(Plan.tier(), CodegenTier::Shackled);
  EXPECT_TRUE(hasParallelFallbackDiag(Plan.diags())) << Plan.summary();

  ProgramInstance Ref(P, {16}), Par(P, {16});
  Ref.fillRandom(5, 0.5, 1.5);
  for (double &V : Ref.buffer(0))
    V += 1.0;
  Par.buffer(0) = Ref.buffer(0);
  Plan.runSerial(Ref);
  ParallelRunOptions RunOpts;
  RunOpts.NumThreads = 4;
  ParallelRunStats Stats = Plan.run(Par, RunOpts);
  EXPECT_EQ(Stats.Mode, ParallelMode::SerialFallback);
  EXPECT_TRUE(Ref.bitwiseEqual(Par));
}

TEST(ParallelPlan, ZeroThreadsMeansOne) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmShackleC(P, 8), {16});
  ASSERT_TRUE(Plan.parallelReady());
  ProgramInstance A(P, {16}), B(P, {16});
  A.fillRandom(9, 0.0, 1.0);
  for (unsigned Arr = 0; Arr < 3; ++Arr)
    B.buffer(Arr) = A.buffer(Arr);
  ParallelRunOptions Opts;
  Opts.NumThreads = 0;
  ParallelRunStats SA = Plan.run(A, Opts);
  Plan.runSerial(B);
  EXPECT_EQ(SA.ThreadsUsed, 1u);
  EXPECT_TRUE(A.bitwiseEqual(B));
}

} // namespace
