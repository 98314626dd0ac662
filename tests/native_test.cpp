//===- native_test.cpp - Native tier vs interpreter differential oracle ------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Tests for the native execution tier (ctest label: native). The interpreter
// is the correctness oracle: every battery case runs the same plan once
// interpreted and once through compiled kernels, across benchmarks, chain
// shapes, thread counts, and seeds, and demands the results agree.
//
// Equality policy (docs/CLI.md "--native"): with MicroBlas routing off the
// emitted loops give every element the interpreter's operations in the
// interpreter's order (an interchanged loop pair reverses no dependence, an
// `omp simd` loop has no two iterations touching one element with a write)
// and the TU is compiled with -ffp-contract=off, so agreement is BITWISE.
// With MicroBlas on, matched GEMM blocks keep the ascending-k summation
// order per element (microGemm is i-k-j), so agreement is still
// bitwise on this toolchain — but reassociation is permitted by the
// contract, so those checks use the documented 1e-12 absolute bound and a
// separate test pins the bitwise case only for routing off.
//
// Every test skips (never fails) when the machine has no usable compiler:
// the tier is an accelerator, and the fallback path is itself under test.
//
//===----------------------------------------------------------------------===//

#include "core/ShackleDriver.h"
#include "emitc/EmitC.h"
#include "emitc/SimdMark.h"
#include "frontend/Parser.h"
#include "native/NativeJit.h"
#include "parallel/ParallelExecutor.h"
#include "parallel/UndoLog.h"
#include "programs/Benchmarks.h"
#include "programs/Registry.h"
#include "service/Engine.h"
#include "service/PlanKey.h"
#include "support/FaultInjector.h"

#include "SimdEnv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace shackle;

namespace {

#ifndef SHACKLE_CLI_PATH
#error "SHACKLE_CLI_PATH must be defined by the build"
#endif

/// Runs the CLI with \p Args; returns (exit code, combined stdout+stderr).
std::pair<int, std::string> runCli(const std::string &Args) {
  std::string Cmd = std::string(SHACKLE_CLI_PATH) + " " + Args + " 2>&1";
  std::FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  std::string Out;
  char Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Out.append(Buf, Got);
  int Status = pclose(Pipe);
  return {WEXITSTATUS(Status), Out};
}

std::shared_ptr<NativeModule>
buildModule(const ParallelPlan &Plan, bool MicroBlas,
            std::vector<Diagnostic> *DiagsOut = nullptr) {
  NativeJitOptions Opts;
  Opts.UseMicroBlas = MicroBlas;
  std::vector<Diagnostic> Diags;
  std::shared_ptr<NativeModule> M =
      NativeModule::compile(Plan.nest(), Plan.partition(), Opts, Diags);
  if (DiagsOut)
    *DiagsOut = Diags;
  return M;
}

bool hasFallbackDiag(const std::vector<Diagnostic> &Diags) {
  for (const Diagnostic &D : Diags)
    if (D.Code == DiagCode::NativeFallback &&
        D.str().find("[native-fallback]") != std::string::npos)
      return true;
  return false;
}

class NativeTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!nativeTierAvailable())
      GTEST_SKIP() << "no usable native compiler on this machine";
  }
};

/// Fault-injection variants additionally need the injector compiled in.
class NativeChaosTest : public NativeTest {
protected:
  void SetUp() override {
    NativeTest::SetUp();
    if (IsSkipped())
      return;
    if (!FaultInjectionCompiledIn)
      GTEST_SKIP() << "built without SHACKLE_ENABLE_FAULT_INJECTION";
    FaultInjector::instance().disarm();
  }
  void TearDown() override { FaultInjector::instance().disarm(); }
  void arm(const std::string &Spec) {
    Status S = FaultInjector::instance().configure(Spec);
    ASSERT_TRUE(S.ok()) << S.diagnostic().str();
  }
};

/// The differential oracle: plan once, run interpreted (the reference),
/// then run native at every thread count and seed and demand agreement.
/// Tol == 0.0 means bitwise; otherwise maxAbsDifference <= Tol.
/// SpdDim > 0 boosts the diagonal of array 0 (an SpdDim x SpdDim matrix)
/// into strict diagonal dominance so Cholesky-style factorizations never
/// hit sqrt of a negative — the clean-data battery must exercise the
/// native fast path, not the genuine-poison oracle rerun.
/// \p Emitted, when non-null, receives the module's stats (loop pairs
/// emitted interchanged, loops emitted under `omp simd`).
void expectOracleAgreement(const Program &P, const ShackleChain &Chain,
                           std::vector<int64_t> Params, bool MicroBlas,
                           double Tol, double Lo, double Hi,
                           unsigned SpdDim = 0,
                           NativeJitStats *Emitted = nullptr) {
  ParallelPlan Plan = ParallelPlan::build(P, Chain, Params);
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  std::vector<Diagnostic> Diags;
  std::shared_ptr<NativeModule> M = buildModule(Plan, MicroBlas, &Diags);
  ASSERT_NE(M, nullptr) << (Diags.empty() ? "" : Diags.front().str());
  EXPECT_EQ(M->usesMicroBlas(), MicroBlas);
  if (Emitted)
    *Emitted = M->stats();

  for (uint64_t Seed : {7ull, 23ull, 101ull}) {
    ProgramInstance Init(P, Params);
    Init.fillRandom(Seed, Lo, Hi);
    if (SpdDim > 0)
      for (unsigned I = 0; I < SpdDim; ++I)
        Init.buffer(0)[static_cast<std::size_t>(I) * SpdDim + I] +=
            2.0 * SpdDim;
    ProgramInstance Ref = Init;
    {
      ParallelRunOptions RO;
      RO.NumThreads = 1;
      ParallelRunStats RS = Plan.run(Ref, RO); // interpreted reference
      ASSERT_FALSE(RS.Failed);
      EXPECT_EQ(RS.NativeSegments, 0u);
    }
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      ProgramInstance Nat = Init;
      ParallelRunOptions RO;
      RO.NumThreads = Threads;
      RO.Native = M.get();
      ParallelRunStats S = Plan.run(Nat, RO);
      EXPECT_FALSE(S.Failed) << Plan.summary();
      EXPECT_EQ(S.Mode, ParallelMode::Parallel);
      EXPECT_EQ(S.NativeTaskCalls, Plan.partition().Tasks.size())
          << "every task must dispatch its kernel (seed " << Seed
          << ", threads " << Threads << ")";
      EXPECT_GT(S.NativeSegments, 0u);
      EXPECT_EQ(S.NativeOracleReruns, 0u)
          << "clean data must never trip the poison oracle";
      EXPECT_EQ(S.NativeSegments + S.InterpSegments, S.SegmentsRun);
      if (Tol == 0.0)
        EXPECT_TRUE(Ref.bitwiseEqual(Nat))
            << "seed " << Seed << " threads " << Threads << " microblas "
            << MicroBlas << ": " << Plan.summary();
      else
        EXPECT_LE(Ref.maxAbsDifference(Nat), Tol)
            << "seed " << Seed << " threads " << Threads;
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential battery: MMM / Cholesky / ADI x flat / two-level x threads
//===----------------------------------------------------------------------===//

TEST_F(NativeTest, MMMFlatBitwise) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  expectOracleAgreement(P, mmmShackleCxA(P, 8), {32},
                        /*MicroBlas=*/false, /*Tol=*/0.0, 0.0, 1.0);
}

TEST_F(NativeTest, MMMFlatMicroBlasWithinUlpBound) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  expectOracleAgreement(P, mmmShackleCxA(P, 8), {32},
                        /*MicroBlas=*/true, /*Tol=*/1e-12, 0.0, 1.0);
}

TEST_F(NativeTest, MMMTwoLevelBitwise) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  expectOracleAgreement(P, mmmShackleTwoLevel(P, 8, 4), {32},
                        /*MicroBlas=*/false, /*Tol=*/0.0, 0.0, 1.0);
}

TEST_F(NativeTest, MMMTwoLevelMicroBlasWithinUlpBound) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  expectOracleAgreement(P, mmmShackleTwoLevel(P, 8, 4), {32},
                        /*MicroBlas=*/true, /*Tol=*/1e-12, 0.0, 1.0);
}

TEST_F(NativeTest, CholeskyFlatBitwise) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  expectOracleAgreement(P, choleskyShackleStores(P, 4), {16},
                        /*MicroBlas=*/false, /*Tol=*/0.0, 0.5, 1.5,
                        /*SpdDim=*/16);
}

TEST_F(NativeTest, CholeskyTwoLevelBitwise) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  expectOracleAgreement(P, choleskyShackleProduct(P, 4, true),
                        {16}, /*MicroBlas=*/false, /*Tol=*/0.0, 0.5, 1.5,
                        /*SpdDim=*/16);
}

TEST_F(NativeTest, ADIFlatBitwise) {
  BenchSpec Spec = makeADI();
  const Program &P = *Spec.Prog;
  expectOracleAgreement(P, adiShackle(P), {24},
                        /*MicroBlas=*/false, /*Tol=*/0.0, 0.5, 1.5);
}

TEST_F(NativeTest, ADITwoLevelBitwise) {
  BenchSpec Spec = makeADI();
  const Program &P = *Spec.Prog;
  expectOracleAgreement(P, adiShackleTwoLevel(P, 8), {32},
                        /*MicroBlas=*/false, /*Tol=*/0.0, 0.5, 1.5);
}

//===----------------------------------------------------------------------===//
// Innermost loop interchange: unit-stride loop innermost, only when legal
//===----------------------------------------------------------------------===//

/// Ragged and whole-block triangular nests: the interchanged pairs take
/// bounds like t2 = max(lo, t3) and must stay bitwise.
TEST_F(NativeTest, TriangularInterchangeBitwise) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  for (int64_t N : {24, 30}) {
    SCOPED_TRACE("N=" + std::to_string(N));
    for (bool TwoLevel : {false, true}) {
      SCOPED_TRACE(TwoLevel ? "two-level" : "flat");
      const ShackleChain Chain = TwoLevel ? choleskyShackleProduct(P, 8, true)
                                          : choleskyShackleStores(P, 8);
      NativeJitStats Emitted;
      expectOracleAgreement(P, Chain, {N}, /*MicroBlas=*/false, /*Tol=*/0.0,
                            0.5, 1.5, /*SpdDim=*/N, &Emitted);
      EXPECT_GT(Emitted.Reordered, 0u);
      EXPECT_GT(Emitted.SimdLoops, 0u);
    }
  }
}

/// A column-major stencil blocked in row bands: inside a band the pair
/// (i outer, j inner) stores A[i][j] with unit stride along i, so the
/// layout favours the swap. With A[i-1][j+1] the (<,>) dependence forbids
/// it; with A[i-1][j-1] nothing is reversed and the pair is interchanged.
void expectStencilInterchange(const std::string &Read, bool Expected) {
  ParseResult R = parseProgram("param N\n"
                               "array A[N][N] colmajor\n"
                               "do i = 1, N-2\n"
                               "  do j = 1, N-2\n"
                               "    A[i][j] = 0.5 * " +
                               Read +
                               " + 0.25 * A[i][j]\n"
                               "  end\n"
                               "end\n");
  ASSERT_TRUE(R) << R.Error;
  DataBlocking Rows;
  Rows.ArrayId = 0;
  Rows.Planes.push_back({/*Normal=*/{1, 0}, /*BlockSize=*/8, false});
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onStores(*R.Prog, Rows));
  NativeJitStats Emitted;
  expectOracleAgreement(*R.Prog, Chain, {30}, /*MicroBlas=*/false,
                        /*Tol=*/0.0, 0.5, 1.5, /*SpdDim=*/0, &Emitted);
  EXPECT_EQ(Emitted.Reordered > 0, Expected) << Read;
}

TEST_F(NativeTest, ReversedDependenceKeepsLoopOrder) {
  expectStencilInterchange("A[i-1][j+1]", /*Expected=*/false);
}

TEST_F(NativeTest, ForwardDependenceAllowsInterchange) {
  expectStencilInterchange("A[i-1][j-1]", /*Expected=*/true);
}

/// In the emitted cholesky-right product-wr kernels every S3 store
/// A[L][K] (column-major: unit stride along L) sits directly under a loop
/// over L's dim.
TEST_F(NativeTest, EmittedUpdateRunsUnitStrideInnermost) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan =
      ParallelPlan::build(P, choleskyShackleProduct(P, 8, true), {30});
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  std::vector<NativeTaskKernelSpec> Specs;
  for (const BlockTask &T : Plan.partition().Tasks) {
    NativeTaskKernelSpec K{"k" + std::to_string(Specs.size()), &Plan.nest(),
                           {}};
    for (const BlockTask::Segment &Seg : T.Segments)
      K.Roots.push_back(Seg.Node);
    Specs.push_back(std::move(K));
  }
  NativeEmitStats Emitted;
  std::istringstream TU(
      emitNativeTranslationUnit(Specs, NativeEmitOptions(), &Emitted));
  EXPECT_GT(Emitted.Reordered, 0u);
  // S3 is the only statement that subtracts: a0[((K))*(N) + (L)] = (... -
  // ...), with L, the unit-stride index, last in the column-major offset.
  std::string Line, InnerLoop;
  unsigned Stores = 0;
  while (std::getline(TU, Line)) {
    const std::size_t For = Line.find("for (int64_t ");
    const std::size_t Eq = Line.find("] = (");
    if (For != std::string::npos) {
      const std::size_t Begin = For + 13;
      InnerLoop = Line.substr(Begin, Line.find(' ', Begin) - Begin);
    } else if (Eq != std::string::npos &&
               Line.find(" - (") != std::string::npos) {
      ++Stores;
      const std::size_t Unit = Line.rfind("+ (", Eq) + 3;
      EXPECT_EQ(InnerLoop, Line.substr(Unit, Line.find(')', Unit) - Unit))
          << Line;
    }
  }
  EXPECT_GT(Stores, 0u);
}

//===----------------------------------------------------------------------===//
// SIMD marks: an innermost loop runs in lanes only when no two of its
// iterations touch one element with a write
//===----------------------------------------------------------------------===//

/// The loops of \p Src's source-order nest that the emitter marks
/// `omp simd`.
std::size_t simdMarks(const std::string &Src) {
  ParseResult R = parseProgram("param N\n"
                               "array A[N]\n"
                               "array B[N]\n"
                               "array C[N]\n"
                               "array S[1]\n" +
                               Src);
  EXPECT_TRUE(R) << R.Error;
  if (!R)
    return 0;
  const LoopNest Nest = generateOriginalCode(*R.Prog);
  return planSimdLoops(Nest, planInterchanges(Nest)).size();
}

TEST(SimdMark, RecurrenceStaysScalar) {
  // Iteration i reads the A[i-1] that iteration i-1 wrote.
  EXPECT_EQ(simdMarks("do i = 1, N-1\n"
                      "  A[i] = A[i-1] + B[i]\n"
                      "end\n"),
            0u);
  // Control: reading B[i-1] carries nothing.
  EXPECT_EQ(simdMarks("do i = 1, N-1\n"
                      "  A[i] = B[i-1] + B[i]\n"
                      "end\n"),
            1u);
}

TEST(SimdMark, ReductionStaysScalar) {
  // Every iteration writes S[0]: without a reduction clause the lanes would
  // race, and with one the sum would be reassociated.
  EXPECT_EQ(simdMarks("do i = 0, N-1\n"
                      "  S[0] = S[0] + A[i]\n"
                      "end\n"),
            0u);
  // Control: one accumulator per iteration.
  EXPECT_EQ(simdMarks("do i = 0, N-1\n"
                      "  C[i] = C[i] + A[i]\n"
                      "end\n"),
            1u);
}

TEST(SimdMark, CrossStatementAntiDependenceStaysScalar) {
  // S2(i) reads A[i+1] before S1(i+1) overwrites it. Lanes run S1 for every
  // lane before S2, so S2 would read the new value.
  EXPECT_EQ(simdMarks("do i = 0, N-2\n"
                      "  S1: A[i] = B[i] * 0.5\n"
                      "  S2: C[i] = A[i+1] + 1.0\n"
                      "end\n"),
            0u);
  // Control: S2(i) reads only what S1(i) wrote.
  EXPECT_EQ(simdMarks("do i = 0, N-2\n"
                      "  S1: A[i] = B[i] * 0.5\n"
                      "  S2: C[i] = A[i] + 1.0\n"
                      "end\n"),
            1u);
}

/// A column-major sweep along rows, blocked in row bands: A[i][j] reads
/// A[i][j-1], so the source inner loop j carries a dependence and i does
/// not. The pair is interchanged (i, the store's unit-stride loop, runs
/// inside), and the mark goes to i, the pair's new innermost loop.
TEST_F(NativeTest, InterchangedPairMarksItsNewInnermostLoop) {
  ParseResult R = parseProgram("param N\n"
                               "array A[N][N] colmajor\n"
                               "do i = 1, N-2\n"
                               "  do j = 1, N-2\n"
                               "    A[i][j] = 0.5 * A[i][j-1] + 0.25 * A[i][j]\n"
                               "  end\n"
                               "end\n");
  ASSERT_TRUE(R) << R.Error;
  DataBlocking Rows;
  Rows.ArrayId = 0;
  Rows.Planes.push_back({/*Normal=*/{1, 0}, /*BlockSize=*/8, false});
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onStores(*R.Prog, Rows));
  NativeJitStats Emitted;
  expectOracleAgreement(*R.Prog, Chain, {30}, /*MicroBlas=*/false,
                        /*Tol=*/0.0, 0.5, 1.5, /*SpdDim=*/0, &Emitted);
  EXPECT_GT(Emitted.Reordered, 0u);
  EXPECT_EQ(Emitted.SimdLoops, Emitted.Reordered);

  const LoopNest Nest = generateShackledCode(*R.Prog, Chain);
  const InterchangeMap Swaps = planInterchanges(Nest);
  const SimdMarks Marks = planSimdLoops(Nest, Swaps);
  ASSERT_FALSE(Swaps.empty());
  EXPECT_EQ(Marks.size(), Swaps.size());
  std::string Outer; // the dim of the pairs' old outer loop
  for (const auto &[Node, X] : Swaps) {
    EXPECT_EQ(Marks.count(Node), 1u);
    Outer = Nest.DimNames[Node->Dim];
  }
  const std::string Text = emitKernel(Nest, "k");
  const std::size_t Pragma = Text.find("_Pragma(\"omp simd\")");
  ASSERT_NE(Pragma, std::string::npos) << Text;
  EXPECT_EQ(Text.compare(Text.find("for (", Pragma), 14 + Outer.size(),
                         "for (int64_t " + Outer + " "),
            0)
      << Text;
}

/// The chol-768 unit (cholesky-right product-wr, N=768, B=64) runs every
/// trailing-update store and every column scaling in an `omp simd` loop.
TEST_F(NativeTest, Cholesky768MarksItsTrailingUpdateLoops) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan =
      ParallelPlan::build(P, choleskyShackleProduct(P, 64, true), {768});
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  std::vector<NativeTaskKernelSpec> Specs;
  for (const BlockTask &T : Plan.partition().Tasks) {
    NativeTaskKernelSpec K{"k" + std::to_string(Specs.size()), &Plan.nest(),
                           {}};
    for (const BlockTask::Segment &Seg : T.Segments)
      K.Roots.push_back(Seg.Node);
    Specs.push_back(std::move(K));
  }
  NativeEmitStats Emitted;
  std::istringstream TU(
      emitNativeTranslationUnit(Specs, NativeEmitOptions(), &Emitted));
  // Each store line below its loop: S3 subtracts, S2 divides.
  std::string Line, Prev;
  bool InMarked = false;
  unsigned Updates = 0, Scalings = 0;
  while (std::getline(TU, Line)) {
    if (Line.find("for (int64_t ") != std::string::npos)
      InMarked = Prev.find("_Pragma(\"omp simd\")") != std::string::npos;
    const bool Update = Line.find("] = (") != std::string::npos &&
                        Line.find(" - (") != std::string::npos;
    const bool Scaling = Line.find("] = (") != std::string::npos &&
                         Line.find(" / ") != std::string::npos;
    if (Update || Scaling) {
      EXPECT_TRUE(InMarked) << Line;
      Updates += Update;
      Scalings += Scaling;
    }
    Prev = Line;
  }
  EXPECT_GT(Updates, 0u);
  EXPECT_GT(Scalings, 0u);
  EXPECT_EQ(Emitted.SimdLoops, Updates + Scalings);
}

//===----------------------------------------------------------------------===//
// Hierarchical task-level dispatch (whole outer task per kernel)
//===----------------------------------------------------------------------===//

TEST_F(NativeTest, TwoLevelMMMAtOuterTaskLevelBitwise) {
  // TaskLevel = 2: each task is one outer (Figure 10) block; its segment
  // subtree contains the whole inner shackle level, so one native call
  // executes the full outer task.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleTwoLevel(P, 8, 4);
  ParallelPlanOptions POpts;
  POpts.TaskLevel = 2;
  ParallelPlan Plan = ParallelPlan::build(P, Chain, {32}, POpts);
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  ASSERT_TRUE(Plan.hierarchical());

  // Scalar routing only: the bitwise claim below depends on microGemm
  // keeping the interpreter's reduction order, which the FMA vector
  // kernels do not promise (opt-in ULP policy; the simd suite covers
  // them).
  ScopedSimdEnv Scalar("off");
  NativeJitOptions NOpts;
  NOpts.UseMicroBlas = true;
  std::vector<Diagnostic> Diags;
  std::shared_ptr<NativeModule> M =
      NativeModule::compile(Plan.nest(), Plan.partition(), NOpts, Diags);
  ASSERT_NE(M, nullptr);

  ProgramInstance Init(P, {32});
  Init.fillRandom(13, 0.0, 1.0);
  ProgramInstance Ref = Init;
  Plan.runSerial(Ref);
  for (unsigned Threads : {1u, 4u}) {
    ProgramInstance Nat = Init;
    ParallelRunOptions RO;
    RO.NumThreads = Threads;
    RO.Native = M.get();
    ParallelRunStats S = Plan.run(Nat, RO);
    EXPECT_FALSE(S.Failed);
    EXPECT_GT(S.NativeSegments, 0u);
    // microGemm keeps the interpreter's per-element ascending-k order and
    // the TU forbids contraction, so even routed blocks match bitwise here.
    EXPECT_TRUE(Ref.bitwiseEqual(Nat)) << Plan.summary();
  }
}

//===----------------------------------------------------------------------===//
// Emitted-kernel text: ABI surface and GEMM routing
//===----------------------------------------------------------------------===//

TEST_F(NativeTest, EmittedTextHasAbiAndGemmRouting) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmShackleCxA(P, 8), {32});
  ASSERT_TRUE(Plan.parallelReady());
  ASSERT_FALSE(Plan.partition().Tasks.empty());
  std::vector<const ASTNode *> Roots;
  for (const BlockTask::Segment &Seg : Plan.partition().Tasks[0].Segments)
    Roots.push_back(Seg.Node);
  ASSERT_FALSE(Roots.empty());

  NativeEmitOptions On;
  On.GemmHooks = true;
  std::vector<NativeTaskKernelSpec> Specs{
      {"shk_native_t0", &Plan.nest(), Roots}};
  NativeEmitStats Emitted;
  std::string TU = emitNativeTranslationUnit(Specs, On, &Emitted);
  EXPECT_NE(TU.find("shackle_native_abi_version"), std::string::npos);
  EXPECT_NE(TU.find("struct shackle_native_hooks"), std::string::npos);
  EXPECT_NE(TU.find("\nvoid shk_native_t0("), std::string::npos) << TU;
  // Kernels only: undo footprints come from the plan, not the module.
  EXPECT_EQ(TU.find("_writes("), std::string::npos);
  EXPECT_EQ(Emitted.GemmRouted, 1u);
  // The lean unit: <stdint.h> is its only include, so no C++ header is
  // parsed for every module.
  EXPECT_NE(TU.find("#include <stdint.h>"), std::string::npos);
  EXPECT_EQ(TU.find("#include <cmath>"), std::string::npos);
  EXPECT_EQ(TU.find("#include <cstdint>"), std::string::npos);
  // The MMM block body is a dense rectangular triple loop: the matcher
  // must route it, guarded, through hooks->gemm with plain loops kept as
  // the else branch.
  std::string Kern = emitNativeTaskKernel(Plan.nest(), Roots, "k", On);
  EXPECT_NE(Kern.find("hooks->gemm"), std::string::npos);
  EXPECT_NE(Kern.find("else"), std::string::npos);

  NativeEmitOptions Off;
  Off.GemmHooks = false;
  std::string Plain = emitNativeTaskKernel(Plan.nest(), Roots, "k", Off);
  EXPECT_EQ(Plain.find("hooks->gemm"), std::string::npos);
  emitNativeTranslationUnit(Specs, Off, &Emitted);
  EXPECT_EQ(Emitted.GemmRouted, 0u);
}

TEST_F(NativeTest, ModuleStatsCountKernelsAndRouting) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmShackleCxA(P, 8), {32});
  ASSERT_TRUE(Plan.parallelReady());
  std::shared_ptr<NativeModule> M = buildModule(Plan, /*MicroBlas=*/true);
  ASSERT_NE(M, nullptr);
  // Every flat cxa task replays the same subtree: one shared kernel.
  EXPECT_EQ(M->stats().TaskKernels, 1u);
  EXPECT_EQ(M->stats().GemmRouted, 1u);
  EXPECT_GT(M->stats().CompileMs, 0.0);
  // Every task id resolves; ids past the partition do not.
  const std::size_t NumTasks = Plan.partition().Tasks.size();
  for (uint32_t T = 0; T < NumTasks; ++T)
    EXPECT_NE(M->taskFnFor(T), nullptr);
  EXPECT_EQ(M->taskFnFor(static_cast<uint32_t>(NumTasks)), nullptr);
}

//===----------------------------------------------------------------------===//
// Fallback ladder: broken compiler, injected cc / dlsym failures
//===----------------------------------------------------------------------===//

TEST(NativeFallback, MissingCompilerProbesFalseAndCompileFallsBack) {
  NativeJitOptions Opts;
  Opts.Compiler = "/nonexistent/shackle-cc";
  EXPECT_FALSE(nativeTierAvailable(Opts));

  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmShackleCxA(P, 8), {32});
  ASSERT_TRUE(Plan.parallelReady());
  std::vector<Diagnostic> Diags;
  std::shared_ptr<NativeModule> M =
      NativeModule::compile(Plan.nest(), Plan.partition(), Opts, Diags);
  EXPECT_EQ(M, nullptr);
  EXPECT_TRUE(hasFallbackDiag(Diags));

  // The run proceeds on the interpreter tier, bitwise-identical to serial.
  ProgramInstance Ref(P, {32}), Par(P, {32});
  Ref.fillRandom(3, 0.0, 1.0);
  Par = Ref;
  Plan.runSerial(Ref);
  ParallelRunOptions RO;
  RO.NumThreads = 4;
  RO.Native = M.get(); // null: plain interpreted run
  ParallelRunStats S = Plan.run(Par, RO);
  EXPECT_FALSE(S.Failed);
  EXPECT_EQ(S.NativeSegments, 0u);
  EXPECT_TRUE(Ref.bitwiseEqual(Par));
}

/// A compiler that rejects one flag of the module command (here the one
/// that honours the `omp simd` marks) must fail the probe as well as every
/// module: the probe compiles with the module's own command.
TEST_F(NativeTest, ProbeRejectsACompilerThatRejectsAModuleFlag) {
  const char *Tmp = std::getenv("TMPDIR");
  const std::string Script = std::string(Tmp && *Tmp ? Tmp : "/tmp") +
                             "/shackle-no-openmp-simd-" +
                             std::to_string(getpid()) + ".sh";
  {
    std::ofstream Out(Script);
    Out << "#!/bin/sh\n"
           "for a in \"$@\"; do\n"
           "  [ \"$a\" = -fopenmp-simd ] && exit 1\n"
           "done\n"
           "exec '"
        << nativeCompilerPath() << "' \"$@\"\n";
  }
  ASSERT_EQ(std::system(("chmod +x '" + Script + "'").c_str()), 0);
  NativeJitOptions Opts;
  Opts.Compiler = Script;
  EXPECT_FALSE(nativeTierAvailable(Opts));

  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmShackleCxA(P, 8), {32});
  std::vector<Diagnostic> Diags;
  EXPECT_EQ(NativeModule::compile(Plan.nest(), Plan.partition(), Opts, Diags),
            nullptr);
  EXPECT_TRUE(hasFallbackDiag(Diags));
  std::remove(Script.c_str());
}

TEST_F(NativeChaosTest, InjectedCompilerFailureFallsBack) {
  arm("cc-fail@native");
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmShackleCxA(P, 8), {32});
  std::vector<Diagnostic> Diags;
  std::shared_ptr<NativeModule> M = buildModule(Plan, true, &Diags);
  EXPECT_EQ(M, nullptr);
  EXPECT_TRUE(hasFallbackDiag(Diags));
  EXPECT_EQ(FaultInjector::instance().counters().NativeCompileFails, 1u);

  // Budget spent: the next compile succeeds (same process, same plan).
  std::shared_ptr<NativeModule> M2 = buildModule(Plan, true, &Diags);
  EXPECT_NE(M2, nullptr);
}

TEST_F(NativeChaosTest, InjectedDlsymFailureFallsBack) {
  arm("dlsym-fail@native");
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmShackleCxA(P, 8), {32});
  std::vector<Diagnostic> Diags;
  std::shared_ptr<NativeModule> M = buildModule(Plan, true, &Diags);
  EXPECT_EQ(M, nullptr);
  EXPECT_TRUE(hasFallbackDiag(Diags));
  EXPECT_EQ(FaultInjector::instance().counters().NativeDlsymFails, 1u);
}

//===----------------------------------------------------------------------===//
// Executor integration details
//===----------------------------------------------------------------------===//

TEST_F(NativeTest, WorkerTracesForceInterpreter) {
  // Native kernels cannot emit per-access trace records, so a traced run
  // must silently interpret everything.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmShackleCxA(P, 8), {32});
  ASSERT_TRUE(Plan.parallelReady());
  std::shared_ptr<NativeModule> M = buildModule(Plan, false);
  ASSERT_NE(M, nullptr);

  ProgramInstance Inst(P, {32});
  Inst.fillRandom(1, 0.0, 1.0);
  uint64_t Accesses = 0;
  std::vector<TraceFn> Traces(1);
  Traces[0] = [&](unsigned, int64_t, bool) { ++Accesses; };
  ParallelRunOptions RO;
  RO.NumThreads = 1;
  RO.Native = M.get();
  RO.WorkerTraces = &Traces;
  ParallelRunStats S = Plan.run(Inst, RO);
  EXPECT_FALSE(S.Failed);
  EXPECT_EQ(S.NativeSegments, 0u);
  EXPECT_GT(Accesses, 0u);
}

TEST_F(NativeTest, ModuleCacheRoundTrip) {
  NativeModuleCache &C = NativeModuleCache::instance();
  C.clear();
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmShackleCxA(P, 8), {32});
  std::shared_ptr<NativeModule> M = buildModule(Plan, true);
  ASSERT_NE(M, nullptr);

  NativeJitOptions Opts;
  const uint64_t Key = 0x5eed ^ nativeConfigHash(Opts);
  EXPECT_EQ(C.lookup(Key), nullptr);
  C.insert(Key, M);
  EXPECT_EQ(C.lookup(Key), M);
  EXPECT_EQ(C.size(), 1u);
  // A different native config is a different key: never a stale module.
  NativeJitOptions Other = Opts;
  Other.UseMicroBlas = !Opts.UseMicroBlas;
  EXPECT_NE(nativeConfigHash(Other), nativeConfigHash(Opts));
  C.clear();
  EXPECT_EQ(C.size(), 0u);
}

TEST_F(NativeTest, ModuleServesARebuiltPlanWithTheSamePlanKey) {
  // The module cache hands a module to any plan with the same PlanKey, so
  // a module must not depend on the plan object it was compiled from. The
  // registry's cholesky-right `stores` config and examples/dsl/cholesky.dsl
  // at the same B and N share a key: compile against the first plan,
  // destroy it, and run the second plan on the first plan's module.
  const int64_t N = 48, B = 16;
  const MachineShape Shape = detectMachineShape();
  std::shared_ptr<NativeModule> M;
  uint64_t FirstKey = 0;
  {
    BenchSpec Spec = makeCholeskyRight();
    const Program &P = *Spec.Prog;
    ShackleChain Chain = choleskyShackleStores(P, B);
    ParallelPlan Plan = ParallelPlan::build(P, Chain, {N});
    ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
    FirstKey = makePlanKey(P, Chain, {N}, 0, Shape).digest();
    ScopedSimdEnv Scalar("off");
    NativeJitOptions Opts;
    std::vector<Diagnostic> Diags;
    M = NativeModule::compile(Plan.nest(), Plan.partition(), Opts, Diags);
    ASSERT_NE(M, nullptr) << (Diags.empty() ? "" : Diags.front().str());
  }

  std::ifstream In(std::string(SHACKLE_SOURCE_DIR) +
                   "/examples/dsl/cholesky.dsl");
  ASSERT_TRUE(In) << "examples/dsl/cholesky.dsl not found";
  std::stringstream Src;
  Src << In.rdbuf();
  ParseResult R = parseProgram(Src.str());
  ASSERT_TRUE(R) << R.Diag.str();
  const Program &P = *R.Prog;
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onStores(
      P, DataBlocking::rectangular(0, {B, B}, {1, 0})));
  ASSERT_EQ(makePlanKey(P, Chain, {N}, 0, Shape).digest(), FirstKey);
  ParallelPlan Plan = ParallelPlan::build(P, Chain, {N});
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();

  ProgramInstance Ref(P, {N});
  Ref.fillRandom(29, 0.5, 1.5);
  for (int64_t I = 0; I < N; ++I)
    Ref.buffer(0)[static_cast<std::size_t>(I * N + I)] += 2.0 * N;
  ProgramInstance Nat = Ref;
  Plan.runSerial(Ref);
  ParallelRunOptions RO;
  RO.NumThreads = 4;
  RO.Native = M.get();
  ParallelRunStats S = Plan.run(Nat, RO);
  EXPECT_FALSE(S.Failed);
  EXPECT_EQ(S.NativeTaskCalls, Plan.partition().Tasks.size());
  EXPECT_EQ(S.InterpSegments, 0u);
  EXPECT_TRUE(Ref.bitwiseEqual(Nat)) << Plan.summary();
}

//===----------------------------------------------------------------------===//
// Write footprints under the native tier: the plan's footprints (computed
// at build) must be exactly what the interpreter walk collects — the same
// runs and pre-images; the undo log, checksums, and poison scans all key
// off that set — whatever module the capture is handed.
//===----------------------------------------------------------------------===//

void expectFootprintAgreement(const BenchSpec &Spec,
                              const ShackleChain &Chain,
                              std::vector<int64_t> Params,
                              unsigned TaskLevel) {
  const Program &P = *Spec.Prog;
  ParallelPlanOptions PO;
  PO.TaskLevel = TaskLevel;
  ParallelPlan Plan = ParallelPlan::build(P, Chain, Params, PO);
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  EXPECT_EQ(Plan.footprintFallbacks(), 0u);
  std::shared_ptr<NativeModule> M = buildModule(Plan, true);
  ASSERT_NE(M, nullptr);
  ProgramInstance Inst(P, Params);
  Inst.fillRandom(5, 0.5, 1.5);
  const std::vector<BlockTask> &Tasks = Plan.partition().Tasks;
  for (uint32_t Id = 0; Id < Tasks.size(); ++Id) {
    const BlockTask &T = Tasks[Id];
    BlockUndoLog Interp = captureBlockUndo(Plan.nest(), T, Inst);
    BlockUndoLog Native =
        captureBlockUndo(Plan.nest(), T, Id, Inst, M.get());
    EXPECT_EQ(Interp.runs(), Native.runs()) << "task " << Id;
    ASSERT_EQ(Interp.Entries.size(), Native.Entries.size());
    for (std::size_t I = 0; I < Interp.Entries.size(); ++I)
      EXPECT_EQ(Interp.Entries[I], Native.Entries[I]);
    // Every capture shares the plan's runs.
    EXPECT_EQ(Native.Runs, T.Footprint);
  }
}

TEST_F(NativeTest, PlanFootprintMatchesInterpreterWalkFlat) {
  // 48 is not a multiple of 16: boundary tiles exercise the clamped ranges.
  BenchSpec Spec = makeMatMul();
  expectFootprintAgreement(Spec, mmmShackleC(*Spec.Prog, 16), {48},
                           /*TaskLevel=*/0);
}

TEST_F(NativeTest, PlanFootprintMatchesInterpreterWalkTwoLevel) {
  // Strip-mined loops pair non-unit bounds (a - 3 <= 4x <= a): their
  // projection must still be certified and exact.
  BenchSpec Spec = makeMatMul();
  expectFootprintAgreement(Spec, mmmShackleTwoLevel(*Spec.Prog, 16, 4),
                           {48}, /*TaskLevel=*/2);
}

TEST_F(NativeTest, PlanFootprintMatchesInterpreterWalkTriangular) {
  BenchSpec Spec = makeCholeskyRight();
  expectFootprintAgreement(Spec, choleskyShackleStores(*Spec.Prog, 8), {24},
                           /*TaskLevel=*/0);
}

//===----------------------------------------------------------------------===//
// CLI end to end
//===----------------------------------------------------------------------===//

TEST_F(NativeTest, CliNativeTaskMatchesInterpreter) {
  // --verify does a bitwise compare against a fresh serial-interpreted
  // execution inside the CLI itself: exit 0 with --native=task IS the
  // differential oracle passing end to end. --task-level=0 keeps the flat
  // plan (--native=task alone defaults to auto).
  auto [RcInterp, OutInterp] = runCli(
      "run matmul cxa --block=8 --params=32 --threads=4 --verify "
      "--native=off");
  EXPECT_EQ(RcInterp, 0) << OutInterp;
  EXPECT_EQ(OutInterp.find("native:"), std::string::npos) << OutInterp;
  // SHACKLE_NATIVE_SIMD=off keeps the routed kernel scalar so the verify
  // line stays bitwise (the simd suite pins the vector-kernel ULP contract).
  ScopedSimdEnv Scalar("off");
  auto [Rc, Out] = runCli(
      "run matmul cxa --block=8 --params=32 --threads=4 --verify "
      "--native=task --task-level=0");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("native:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

TEST_F(NativeTest, CliTwoLevelNativeMatchesInterpreter) {
  ScopedSimdEnv Scalar("off");
  auto [Rc, Out] = runCli(
      "run matmul two-level --block=32 --params=64 --task-level=2 "
      "--threads=4 --verify --native=task");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("native:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

/// The count \p Key (e.g. "gemm-routed=") on the native: line, or -1 when
/// absent.
long nativeCount(const std::string &Out, const std::string &Key) {
  std::size_t At = Out.find(" " + Key);
  if (At == std::string::npos)
    return -1;
  return std::strtol(Out.c_str() + At + 1 + Key.size(), nullptr, 10);
}

long gemmRouted(const std::string &Out) {
  return nativeCount(Out, "gemm-routed=");
}

TEST_F(NativeTest, CliNativeStatsLineReportsKernels) {
  auto [Rc, Out] = runCli("run matmul cxa --block=8 --params=32 --threads=2 "
                          "--native=task --task-level=0");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("native: mode=task kernels=1 "), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("gemm-routed="), std::string::npos) << Out;
  EXPECT_GE(nativeCount(Out, "reordered="), 0) << Out;
  EXPECT_EQ(Out.find("task-kernels="), std::string::npos) << Out;
  // Cholesky's trailing update is interchanged in all four of its nests.
  auto [RcChol, Chol] =
      runCli("run cholesky-right product-wr --block=8 --params=30 "
             "--native=task --native-microblas=off --verify");
  EXPECT_EQ(RcChol, 0) << Chol;
  EXPECT_EQ(nativeCount(Chol, "reordered="), 4) << Chol;
  // Its four trailing updates and three column scalings run in lanes; the
  // matmul k loops are reductions and stay scalar.
  EXPECT_EQ(nativeCount(Chol, "simd-loops="), 7) << Chol;
  EXPECT_EQ(nativeCount(Out, "simd-loops="), 0) << Out;
  EXPECT_NE(Chol.find("bitwise-identical"), std::string::npos) << Chol;
}

TEST_F(NativeTest, CliGemmRoutedFollowsMicroBlasFlag) {
  auto [RcOn, On] = runCli("run matmul two-level --block=32 --params=64 "
                           "--native=task --native-microblas=on");
  EXPECT_EQ(RcOn, 0) << On;
  EXPECT_GT(gemmRouted(On), 0) << On;
  auto [RcOff, Off] = runCli("run matmul two-level --block=32 --params=64 "
                             "--native=task --native-microblas=off");
  EXPECT_EQ(RcOff, 0) << Off;
  EXPECT_EQ(gemmRouted(Off), 0) << Off;
}

//===----------------------------------------------------------------------===//
// Battery: every registry program/config and every examples/dsl file at
// N=30 and N=64, routing off, bitwise against serial execution
//===----------------------------------------------------------------------===//

struct BatteryCase {
  std::string Name; ///< Test-name suffix.
  ProgramSource Src;
  int64_t N;
};

void PrintTo(const BatteryCase &C, std::ostream *OS) { *OS << C.Name; }

std::vector<BatteryCase> batteryCases() {
  std::vector<std::pair<std::string, ProgramSource>> Sources;
  for (const auto &[Bench, Entry] : benchRegistry())
    for (const auto &Config : Entry.Configs) {
      ProgramSource S;
      S.Benchmark = Bench;
      S.Config = Config.first;
      Sources.emplace_back(Bench + "_" + Config.first, std::move(S));
    }
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(SHACKLE_SOURCE_DIR) + "/examples/dsl"))
    if (E.path().extension() == ".dsl")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const std::filesystem::path &F : Files) {
    std::ifstream In(F);
    std::stringstream Text;
    Text << In.rdbuf();
    ProgramSource S;
    S.Dsl = Text.str();
    // Block the array the first statement stores to.
    if (ParseResult R = parseProgram(*S.Dsl))
      S.Array = R.Prog->getArray(R.Prog->getStmt(0).LHS.ArrayId).Name;
    Sources.emplace_back("dsl_" + F.stem().string(), std::move(S));
  }
  std::vector<BatteryCase> Cases;
  for (int64_t N : {30, 64})
    for (auto [Name, S] : Sources) {
      std::replace_if(
          Name.begin(), Name.end(),
          [](char C) { return !std::isalnum(static_cast<unsigned char>(C)); },
          '_');
      S.Blocks = {8};
      Cases.push_back({Name + "_N" + std::to_string(N), std::move(S), N});
    }
  return Cases;
}

class NativeBattery : public ::testing::TestWithParam<BatteryCase> {
protected:
  void SetUp() override {
    if (!nativeTierAvailable())
      GTEST_SKIP() << "no usable native compiler on this machine";
  }
};

/// The Engine pipeline of `shackle run --block=8 --native=task
/// --native-microblas=off --verify` (so an automatic task level), with
/// every parameter after N set to 4 (a band width, a sweep count).
TEST_P(NativeBattery, RoutingOffIsBitwiseAgainstSerial) {
  const BatteryCase &C = GetParam();
  Expected<Resolved> T = resolveProgram(C.Src);
  ASSERT_TRUE(T) << T.diagnostic().str();
  RunRequest Req;
  Req.Target = std::move(T.get());
  Req.Params.assign(Req.Target.Prog->getNumParams(), 4);
  Req.Params[0] = C.N;
  Req.TaskLevel = PlanKeyAutoTaskLevel;
  Req.Run.NumThreads = 4;
  NativeJitOptions Opts;
  Opts.UseMicroBlas = false;
  Req.Native = Opts;
  Req.Verify = true;
  const RunResult R = Engine(detectMachineShape()).run(Req);
  ASSERT_FALSE(R.Error) << R.Error->str();
  if (R.Plan->parallelReady()) {
    ASSERT_NE(R.Native, nullptr)
        << (R.NativeDiags.empty() ? "" : R.NativeDiags.front().str());
  }
  EXPECT_EQ(R.Verify, VerifyOutcome::Bitwise) << "max diff " << R.MaxDiff;
}

INSTANTIATE_TEST_SUITE_P(RegistryAndDsl, NativeBattery,
                         ::testing::ValuesIn(batteryCases()),
                         [](const ::testing::TestParamInfo<BatteryCase> &I) {
                           return I.param.Name;
                         });

TEST(NativeFallbackCli, BrokenCompilerFallsBackAndStillVerifies) {
  auto [Rc, Out] = runCli(
      "run matmul cxa --block=8 --params=32 --threads=2 --verify "
      "--native=task --task-level=0 --native-cxx=/nonexistent/shackle-cc");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("native-fallback"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

TEST(NativeCli, RejectsUnknownNativeModes) {
  // 'block' was the retired per-segment grain; it is now an unknown value.
  for (const char *Mode : {"block", "bogus", ""}) {
    auto [Rc, Out] = runCli(
        std::string("run matmul cxa --block=8 --params=32 --native=") +
        Mode);
    EXPECT_EQ(Rc, 1) << Mode << ": " << Out;
    EXPECT_NE(Out.find("[usage-error] --native expects 'off' or 'task'"),
              std::string::npos)
        << Out;
  }
}

} // namespace
