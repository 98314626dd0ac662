//===- footprint_test.cpp - Plan footprints against the write walk --------===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Differential battery for the exact polyhedral write footprints a plan
// computes at build (computeFootprints, parallel/BlockPartition.h): every
// task's runs must equal what the interpreter's write walk collects
// (captureBlockUndo(Nest, Task, Inst), the oracle), with no task falling
// back to the walk, on every registry program and configuration, every
// examples/dsl program, both benchmark plans at full size, and a plan
// restored from a snapshot. One hand-built nest whose projection cannot be
// certified checks the fallback itself.
//
//===----------------------------------------------------------------------===//

#include "parallel/ParallelExecutor.h"
#include "parallel/UndoLog.h"
#include "programs/Registry.h"
#include "service/Engine.h"
#include "service/PlanSerdes.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace shackle;

namespace {

/// Checks the footprint of every \p Stride-th task of \p Plan (and the
/// last) against the interpreter walk, pre-images included, and returns the
/// number of tasks checked.
unsigned expectOracleFootprints(const ParallelPlan &Plan, const Program &P,
                                std::size_t Stride = 1) {
  EXPECT_EQ(Plan.footprintFallbacks(), 0u) << Plan.summary();
  ProgramInstance Inst(P, Plan.paramValues());
  Inst.fillRandom(3, 0.5, 1.5);
  const std::vector<BlockTask> &Tasks = Plan.partition().Tasks;
  unsigned Checked = 0;
  for (std::size_t T = 0; T < Tasks.size(); ++T) {
    if (T % Stride != 0 && T + 1 != Tasks.size())
      continue;
    EXPECT_NE(Tasks[T].Footprint, nullptr) << "task " << T;
    if (!Tasks[T].Footprint)
      continue;
    BlockUndoLog Oracle = captureBlockUndo(Plan.nest(), Tasks[T], Inst);
    BlockUndoLog Plain = captureBlockUndo(Tasks[T], Inst);
    EXPECT_EQ(Plain.runs(), Oracle.runs()) << "task " << T;
    EXPECT_EQ(Plain.Entries, Oracle.Entries) << "task " << T;
    ++Checked;
  }
  return Checked;
}

/// Builds \p Chain's plan for \p P flat and at the automatic task level and
/// checks both; returns the tasks checked.
unsigned expectBothLevels(const Program &P, const ShackleChain &Chain,
                          const std::vector<int64_t> &Params,
                          const std::string &What) {
  unsigned Checked = 0;
  for (bool Auto : {false, true}) {
    SCOPED_TRACE(What + (Auto ? " auto" : " flat"));
    ParallelPlanOptions Opts;
    Opts.AutoTaskLevel = Auto;
    ParallelPlan Plan = ParallelPlan::build(P, Chain, Params, Opts);
    if (Plan.partition().OK)
      Checked += expectOracleFootprints(Plan, P);
  }
  return Checked;
}

/// The first parameter is the problem size; later ones (band widths, time
/// steps) stay small.
std::vector<int64_t> smallParams(const Program &P) {
  std::vector<int64_t> Params(P.getNumParams(), 4);
  if (!Params.empty())
    Params[0] = 13;
  return Params;
}

TEST(PlanFootprints, EveryRegistryProgramAndConfigMatchesTheWalk) {
  unsigned Plans = 0, Checked = 0;
  for (const auto &[Name, Entry] : benchRegistry()) {
    for (const auto &[Config, MakeChain] : Entry.Configs) {
      BenchSpec Spec = Entry.Make();
      const Program &P = *Spec.Prog;
      unsigned Got = expectBothLevels(P, MakeChain(P, 4), smallParams(P),
                                      Name + " " + Config);
      Plans += Got > 0;
      Checked += Got;
    }
  }
  EXPECT_GE(Plans, 13u) << "the battery lost part of the registry";
  EXPECT_GT(Checked, 1000u);
}

TEST(PlanFootprints, EveryDslExampleMatchesTheWalk) {
  unsigned Checked = 0, Files = 0;
  for (const auto &File : std::filesystem::directory_iterator(
           std::string(SHACKLE_SOURCE_DIR) + "/examples/dsl")) {
    std::ifstream In(File.path());
    std::stringstream Text;
    Text << In.rdbuf();
    ProgramSource Src;
    Src.Dsl = Text.str();
    Src.WantChain = false;
    Expected<Resolved> Plain = resolveProgram(Src);
    ASSERT_TRUE(Plain) << File.path();
    // Shackle through the first statement's store.
    const Program &P0 = *Plain.get().Prog;
    Src.Array = P0.getArray(P0.getStmt(0).LHS.ArrayId).Name;
    Src.Blocks = {4};
    Src.WantChain = true;
    ++Files;
    for (const char *Order : {"", "colblocks"}) {
      if (*Order)
        Src.Order = Order;
      Expected<Resolved> R = resolveProgram(Src);
      ASSERT_TRUE(R) << File.path() << ": " << R.diagnostic().str();
      const Program &P = *R.get().Prog;
      Checked += expectBothLevels(P, R.get().Chain, smallParams(P),
                                  File.path().filename().string() + " " +
                                      Order);
    }
  }
  EXPECT_EQ(Files, 5u);
  EXPECT_GT(Checked, 100u);
}

/// The two benchmark plans at full size (as bench/e2e builds them: the
/// automatic task level for one thread). The walk costs about a second per
/// matmul task, so that plan checks every 32nd task; both plans report
/// how long computing all their footprints took.
TEST(PlanFootprints, BenchmarkPlansAtFullSizeMatchTheWalk) {
  struct Case {
    const char *Bench, *Config;
    int64_t N;
    std::size_t Stride;
  };
  for (const Case &C : {Case{"matmul", "two-level", 1024, 32},
                        Case{"cholesky-right", "product-wr", 768, 1}}) {
    SCOPED_TRACE(C.Bench);
    const BenchEntry &Entry = benchRegistry().at(C.Bench);
    BenchSpec Spec = Entry.Make();
    ParallelPlanOptions Opts;
    Opts.AutoTaskLevel = true;
    Opts.ThreadsHint = 1;
    ParallelPlan Plan = ParallelPlan::build(
        *Spec.Prog, Entry.Configs.at(C.Config)(*Spec.Prog, 64), {C.N}, Opts);
    ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
    std::printf("%s: %zu task footprints in %.2f ms\n", C.Bench,
                Plan.partition().Tasks.size(), Plan.footprintMs());
    EXPECT_GE(expectOracleFootprints(Plan, *Spec.Prog, C.Stride), 9u);
  }
}

TEST(PlanFootprints, PlanRestoredFromASnapshotRecomputesThem) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ParallelPlan Built = ParallelPlan::build(
      P, benchRegistry().at("cholesky-right").Configs.at("product-wr")(P, 8),
      {40});
  ASSERT_TRUE(Built.parallelReady());
  ParallelPlanParts Parts;
  std::string Err;
  ASSERT_TRUE(deserializePlan(serializePlan(Built), P, Parts, &Err)) << Err;
  ParallelPlan Restored = ParallelPlan::fromParts(std::move(Parts));
  ASSERT_TRUE(Restored.parallelReady());
  ASSERT_EQ(Restored.partition().Tasks.size(), Built.partition().Tasks.size());
  for (std::size_t T = 0; T < Built.partition().Tasks.size(); ++T)
    EXPECT_EQ(*Restored.partition().Tasks[T].Footprint,
              *Built.partition().Tasks[T].Footprint)
        << "task " << T;
  EXPECT_GT(expectOracleFootprints(Restored, P), 10u);
}

/// Two-level MMM: strip-mined k tiles pair non-unit bounds
/// (a - 3 <= 4x <= a), yet every task's footprint projects exactly onto its
/// block of C alone — reads are never reported and the reduction loops
/// project away instead of being enumerated.
TEST(PlanFootprints, TwoLevelStripMinedReductionProjectsToTheCBlock) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan =
      ParallelPlan::build(P, mmmShackleTwoLevel(P, 32, 4), {72});
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  for (const BlockTask &T : Plan.partition().Tasks) {
    ASSERT_FALSE(T.Footprint->empty());
    for (const FootprintRun &R : *T.Footprint)
      EXPECT_EQ(R.ArrayId, 0u); // C
  }
  EXPECT_EQ(expectOracleFootprints(Plan, P),
            Plan.partition().Tasks.size());
}

/// for i = 0 .. N-1:  A[2*i] = A[2*i] + 1, hand-blocked by 4 iterations:
/// the store's image {2t : 4b <= t <= 4b + 3} is every other element, which
/// no Fourier-Motzkin projection expresses (the equality a = 2t has no unit
/// coefficient on t), so every task must fall back to the walk.
TEST(PlanFootprints, UncertifiableProjectionFallsBackToTheWalk) {
  Program P;
  unsigned N = P.addParam("N");
  unsigned A = P.addArray("A", {P.v(N) * 2});
  unsigned I = P.beginLoop("i", P.cst(0), P.v(N) + -1);
  ArrayRef Ref{A, {P.v(I) * 2}};
  P.addStmt("S", Ref,
            ScalarExpr::add(ScalarExpr::load(Ref), ScalarExpr::number(1)));
  P.endLoop();
  P.finalize();

  // Dims: N, the block b, the iteration t.
  LoopNest Nest;
  Nest.Prog = &P;
  Nest.NumDims = 3;
  Nest.NumParams = 1;
  Nest.DimNames = {"N", "b", "t"};
  auto Dim = [](unsigned D, int64_t Scale, int64_t C) {
    return AffineExpr::var(3, D) * Scale + C;
  };
  ASTNodePtr B = ASTNode::makeLoop(1);
  B->Lbs.push_back({AffineExpr::constant(3, 0)});
  B->Ubs.push_back({Dim(0, 1, -1), 4, /*IsCeil=*/false});
  ASTNodePtr T = ASTNode::makeLoop(2);
  T->Lbs.push_back({Dim(1, 4, 0)});
  T->Ubs.push_back({Dim(1, 4, 3)});
  T->Ubs.push_back({Dim(0, 1, -1)});
  T->Body.push_back(ASTNode::makeInstance(&P.getStmt(0), {2}));
  B->Body.push_back(std::move(T));
  Nest.Roots.push_back(std::move(B));

  const std::vector<int64_t> Params{10};
  BlockPartition Part = partitionLoopNestByBlocks(Nest, 1, Params);
  ASSERT_TRUE(Part.OK) << Part.FailReason;
  ASSERT_EQ(Part.Tasks.size(), 3u);
  EXPECT_EQ(computeFootprints(Nest, Part, ArrayAddressing(P, Params)), 3u);

  ProgramInstance Inst(P, Params);
  for (std::size_t Id = 0; Id < Part.Tasks.size(); ++Id) {
    BlockUndoLog Oracle = captureBlockUndo(Nest, Part.Tasks[Id], Inst);
    EXPECT_EQ(*Part.Tasks[Id].Footprint, Oracle.runs()) << "task " << Id;
  }
  // Task 1 writes A[8], A[10], A[12], A[14]: four runs of one element.
  EXPECT_EQ(*Part.Tasks[1].Footprint,
            (FootprintRuns{{A, 8, 1}, {A, 10, 1}, {A, 12, 1}, {A, 14, 1}}));
}

} // namespace
