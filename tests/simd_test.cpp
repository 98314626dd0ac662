//===- simd_test.cpp - SIMD micro-kernels and task-grain dispatch ------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Tests for the vector-width GEMM micro-kernels (kernels/SimdGemm.h), the
// --native-simd selection machinery, and task-grain native compilation
// (ctest label: simd).
//
// Kernel policy: the SIMD kernels keep the scalar kernel's per-element
// ascending-k summation order but fuse multiply-add, so they agree with
// microGemm to the documented 1e-12 absolute bound, never bitwise. The
// plan-level differential battery therefore mirrors native_test.cpp:
// routing off -> bitwise against the interpreter, routing on (any SIMD
// level) -> 1e-12.
//
// Every AVX-512 case skips (never fails) on parts without the extension,
// and everything that needs the native tier skips without a usable
// compiler — same ladder as the native suite.
//
//===----------------------------------------------------------------------===//

#include "cachesim/CacheSim.h"
#include "core/ShackleDriver.h"
#include "interp/Interpreter.h"
#include "kernels/CpuFeatures.h"
#include "kernels/MicroBlas.h"
#include "kernels/SimdGemm.h"
#include "native/NativeJit.h"
#include "parallel/ParallelExecutor.h"
#include "parallel/UndoLog.h"
#include "programs/Benchmarks.h"
#include "support/PerfCounters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <sys/wait.h>

using namespace shackle;

namespace {

#ifndef SHACKLE_CLI_PATH
#error "SHACKLE_CLI_PATH must be defined by the build"
#endif

/// Runs the CLI with \p Args (optionally under `env \p Env`); returns
/// (exit code, combined stdout+stderr).
std::pair<int, std::string> runCli(const std::string &Args,
                                   const std::string &Env = "") {
  std::string Cmd = (Env.empty() ? std::string() : "env " + Env + " ") +
                    std::string(SHACKLE_CLI_PATH) + " " + Args + " 2>&1";
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

//===----------------------------------------------------------------------===//
// Direct kernel battery: SIMD vs scalar on full, ragged, and strided tiles
//===----------------------------------------------------------------------===//

/// C += A*B via \p Fn and via the scalar reference on identical inputs;
/// max |diff| must be within the ULP-policy bound. Leading dimensions are
/// deliberately larger than the tile so stride handling is exercised.
void expectKernelAgreement(GemmKernelFn Fn, int64_t M, int64_t N, int64_t K) {
  const int64_t Ldc = N + 3, Lda = K + 5, Ldb = N + 3;
  std::vector<double> A(M * Lda), B(K * Ldb), C0(M * Ldc), C1(M * Ldc);
  uint64_t X = 12345 + static_cast<uint64_t>(M * 1000 + N * 100 + K);
  auto Next = [&X]() {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    return 0.5 + static_cast<double>(X >> 11) * 0x1.0p-53;
  };
  for (double &V : A)
    V = Next();
  for (double &V : B)
    V = Next();
  for (int64_t I = 0; I < M * Ldc; ++I)
    C0[I] = C1[I] = Next();

  microGemm(C0.data(), A.data(), B.data(), M, N, K, Ldc, Lda, Ldb);
  Fn(C1.data(), A.data(), B.data(), M, N, K, Ldc, Lda, Ldb);

  double Worst = 0.0;
  for (int64_t I = 0; I < M * Ldc; ++I)
    Worst = std::max(Worst, std::fabs(C0[I] - C1[I]));
  EXPECT_LE(Worst, 1e-12) << "M=" << M << " N=" << N << " K=" << K;
}

void runKernelBattery(GemmKernelFn Fn) {
  // Full tiles, ragged edges in every dimension, sub-tile shapes, and the
  // narrow-N (8-wide) blocks the paper's register blocking produces. M=100
  // is many row tiles with a ragged tail, so B strips are packed; K above
  // 256 crosses the packed strip's K-chunk boundary.
  for (int64_t M : {1, 3, 6, 7, 8, 13, 16, 24, 64, 100})
    for (int64_t N : {1, 5, 8, 9, 16, 17, 64})
      for (int64_t K : {1, 4, 8, 33, 64, 257, 600})
        expectKernelAgreement(Fn, M, N, K);
}

TEST(SimdKernel, Avx2MatchesScalar) {
  if (!cpuHasAvx2Fma())
    GTEST_SKIP() << "no AVX2+FMA on this part";
  runKernelBattery(&microGemmAvx2);
}

TEST(SimdKernel, Avx512MatchesScalar) {
  if (!cpuHasAvx512())
    GTEST_SKIP() << "no AVX-512F on this part";
  runKernelBattery(&microGemmAvx512);
}

/// C += A*B as one call and as one call per \p MR-row slice. A slice holds
/// a single row tile, which reads B in place, so this pins packing to the
/// bit: the whole panel packs its B strips and must still memcmp-equal the
/// slices. Ld = 1024 puts every B row of a strip in the same L1 sets.
void expectPackingBitwise(GemmKernelFn Fn, int64_t MR, int64_t M, int64_t N,
                          int64_t K, int64_t Ld) {
  const int64_t Ldc = Ld, Ldb = Ld, Lda = Ld == 1024 ? Ld : K + 3;
  std::vector<double> A(M * Lda), B(K * Ldb), Whole(M * Ldc);
  uint64_t X = 777 + static_cast<uint64_t>(M * 1000 + N * 100 + K);
  auto Next = [&X]() {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(X >> 11) * 0x1.0p-53 - 0.5;
  };
  for (double &V : A)
    V = Next();
  for (double &V : B)
    V = Next();
  for (double &V : Whole)
    V = Next();
  std::vector<double> Sliced = Whole;

  Fn(Whole.data(), A.data(), B.data(), M, N, K, Ldc, Lda, Ldb);
  for (int64_t I = 0; I < M; I += MR)
    Fn(Sliced.data() + I * Ldc, A.data() + I * Lda, B.data(),
       std::min(MR, M - I), N, K, Ldc, Lda, Ldb);
  EXPECT_EQ(std::memcmp(Whole.data(), Sliced.data(),
                        Whole.size() * sizeof(double)),
            0)
      << "M=" << M << " N=" << N << " K=" << K << " Ld=" << Ld;
}

TEST(SimdKernel, PackedPanelsMatchRowSlicesBitwise) {
  struct Level {
    bool Has;
    GemmKernelFn Fn;
    int64_t MR;
  };
  const Level Levels[] = {{cpuHasAvx2Fma(), &microGemmAvx2, 6},
                          {cpuHasAvx512(), &microGemmAvx512, 4}};
  bool Ran = false;
  for (const Level &L : Levels) {
    if (!L.Has)
      continue;
    Ran = true;
    // N >= 16 keeps the AVX-512 driver off its 8x8 narrow path, whose row
    // tile is 8 rows rather than MR. 37 and 70 are ragged at both widths.
    for (int64_t M : {12, 101})
      for (int64_t N : {16, 37, 70})
        for (int64_t K : {64, 600})
          for (int64_t Ld : {N + 3, int64_t(1024)})
            expectPackingBitwise(L.Fn, L.MR, M, N, K, Ld);
  }
  if (!Ran)
    GTEST_SKIP() << "no AVX2+FMA on this part";
}

//===----------------------------------------------------------------------===//
// Mode resolution: CLI strings, CPUID degradation, env override
//===----------------------------------------------------------------------===//

TEST(SimdMode, ParseRoundTrips) {
  SimdMode M;
  ASSERT_TRUE(parseSimdMode("off", M));
  EXPECT_EQ(M, SimdMode::Off);
  ASSERT_TRUE(parseSimdMode("avx2", M));
  EXPECT_EQ(M, SimdMode::Avx2);
  ASSERT_TRUE(parseSimdMode("avx512", M));
  EXPECT_EQ(M, SimdMode::Avx512);
  ASSERT_TRUE(parseSimdMode("auto", M));
  EXPECT_EQ(M, SimdMode::Auto);
  EXPECT_FALSE(parseSimdMode("sse9", M));
  EXPECT_FALSE(parseSimdMode("", M));
}

/// Unsets SHACKLE_NATIVE_SIMD for one scope and restores it after, so a
/// test about the requested mode holds on a CI leg that forces a level.
class NoSimdOverride {
public:
  NoSimdOverride() {
    if (const char *V = std::getenv("SHACKLE_NATIVE_SIMD"))
      Saved = V;
    unsetenv("SHACKLE_NATIVE_SIMD");
  }
  ~NoSimdOverride() {
    if (Saved)
      setenv("SHACKLE_NATIVE_SIMD", Saved->c_str(), 1);
  }
  NoSimdOverride(const NoSimdOverride &) = delete;
  NoSimdOverride &operator=(const NoSimdOverride &) = delete;

private:
  std::optional<std::string> Saved;
};

TEST(SimdMode, OffAlwaysResolvesScalar) {
  NoSimdOverride Clear;
  EXPECT_EQ(resolveSimdLevel(SimdMode::Off), SimdLevel::Scalar);
}

TEST(SimdMode, AutoNeverExceedsCpu) {
  SimdLevel L = resolveSimdLevel(SimdMode::Auto);
  if (L == SimdLevel::Avx512) {
    EXPECT_TRUE(cpuHasAvx512());
  }
  if (L == SimdLevel::Avx2) {
    EXPECT_TRUE(cpuHasAvx2Fma());
  }
}

TEST(SimdMode, EnvOverrideForcesScalar) {
  ASSERT_EQ(setenv("SHACKLE_NATIVE_SIMD", "off", 1), 0);
  EXPECT_EQ(resolveSimdLevel(SimdMode::Auto), SimdLevel::Scalar);
  EXPECT_EQ(resolveSimdLevel(SimdMode::Avx512), SimdLevel::Scalar);
  unsetenv("SHACKLE_NATIVE_SIMD");
}

TEST(SimdMode, SelectKernelNeverNull) {
  for (SimdLevel L :
       {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512})
    EXPECT_NE(selectGemmKernel(L), nullptr);
}

//===----------------------------------------------------------------------===//
// Plan-level differential battery: SIMD modes x threads x seeds
//===----------------------------------------------------------------------===//

class SimdNativeTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!nativeTierAvailable())
      GTEST_SKIP() << "no usable native compiler on this machine";
  }
};

std::shared_ptr<NativeModule> buildModule(const ParallelPlan &Plan,
                                          bool MicroBlas, SimdMode Simd) {
  NativeJitOptions Opts;
  Opts.UseMicroBlas = MicroBlas;
  Opts.Simd = Simd;
  std::vector<Diagnostic> Diags;
  return NativeModule::compile(Plan.nest(), Plan.partition(), Opts, Diags);
}

/// Interpreted reference vs native execution at every SIMD mode, thread
/// count, and seed. Tol 0.0 = bitwise (routing off); else 1e-12.
/// AutoLevel plans at the auto task level (what `--native=task` picks), so
/// each task replays the inner shackle level inside its kernel.
void expectSimdOracleAgreement(const BenchSpec &Spec,
                               const ShackleChain &Chain,
                               std::vector<int64_t> Params, bool MicroBlas,
                               SimdMode Simd, bool AutoLevel, double Tol,
                               unsigned SpdDim = 0) {
  const Program &P = *Spec.Prog;
  ParallelPlanOptions PO;
  PO.AutoTaskLevel = AutoLevel;
  ParallelPlan Plan = ParallelPlan::build(P, Chain, Params, PO);
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  EXPECT_EQ(Plan.hierarchical(), AutoLevel) << Plan.summary();
  std::shared_ptr<NativeModule> M = buildModule(Plan, MicroBlas, Simd);
  ASSERT_NE(M, nullptr);
  EXPECT_GT(M->stats().TaskKernels, 0u);

  for (uint64_t Seed : {7ull, 23ull, 101ull}) {
    ProgramInstance Init(P, Params);
    Init.fillRandom(Seed, 0.5, 1.5);
    if (SpdDim > 0)
      for (unsigned I = 0; I < SpdDim; ++I)
        Init.buffer(0)[static_cast<std::size_t>(I) * SpdDim + I] +=
            2.0 * SpdDim;
    ProgramInstance Ref = Init;
    {
      ParallelRunOptions RO;
      RO.NumThreads = 1;
      ParallelRunStats RS = Plan.run(Ref, RO);
      ASSERT_FALSE(RS.Failed);
    }
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      ProgramInstance Nat = Init;
      ParallelRunOptions RO;
      RO.NumThreads = Threads;
      RO.Native = M.get();
      ParallelRunStats S = Plan.run(Nat, RO);
      EXPECT_FALSE(S.Failed) << Plan.summary();
      EXPECT_GT(S.NativeSegments, 0u);
      EXPECT_EQ(S.NativeTaskCalls, Plan.partition().Tasks.size())
          << "every task must dispatch its kernel";
      if (Tol == 0.0)
        EXPECT_TRUE(Ref.bitwiseEqual(Nat))
            << "seed " << Seed << " threads " << Threads;
      else
        EXPECT_LE(Ref.maxAbsDifference(Nat), Tol)
            << "seed " << Seed << " threads " << Threads;
    }
  }
}

TEST_F(SimdNativeTest, MMMTwoLevelSimdOffBitwise) {
  BenchSpec Spec = makeMatMul();
  expectSimdOracleAgreement(Spec, mmmShackleTwoLevel(*Spec.Prog, 8, 4), {32},
                            /*MicroBlas=*/false, SimdMode::Off,
                            /*AutoLevel=*/false, /*Tol=*/0.0);
}

TEST_F(SimdNativeTest, MMMTwoLevelSimdAutoWithinUlpBound) {
  BenchSpec Spec = makeMatMul();
  expectSimdOracleAgreement(Spec, mmmShackleTwoLevel(*Spec.Prog, 8, 4), {32},
                            /*MicroBlas=*/true, SimdMode::Auto,
                            /*AutoLevel=*/false, /*Tol=*/1e-12);
}

TEST_F(SimdNativeTest, MMMTwoLevelSimdAvx2WithinUlpBound) {
  if (!cpuHasAvx2Fma())
    GTEST_SKIP() << "no AVX2+FMA on this part";
  BenchSpec Spec = makeMatMul();
  expectSimdOracleAgreement(Spec, mmmShackleTwoLevel(*Spec.Prog, 8, 4), {32},
                            /*MicroBlas=*/true, SimdMode::Avx2,
                            /*AutoLevel=*/false, /*Tol=*/1e-12);
}

TEST_F(SimdNativeTest, MMMTwoLevelSimdAvx512WithinUlpBound) {
  if (!cpuHasAvx512())
    GTEST_SKIP() << "no AVX-512F on this part";
  BenchSpec Spec = makeMatMul();
  expectSimdOracleAgreement(Spec, mmmShackleTwoLevel(*Spec.Prog, 8, 4), {32},
                            /*MicroBlas=*/true, SimdMode::Avx512,
                            /*AutoLevel=*/false, /*Tol=*/1e-12);
}

//===----------------------------------------------------------------------===//
// Task-grain compilation: dispatch, multi-segment replay, undo capture
//===----------------------------------------------------------------------===//

TEST_F(SimdNativeTest, TaskGrainMMMBitwise) {
  BenchSpec Spec = makeMatMul();
  expectSimdOracleAgreement(Spec, mmmShackleTwoLevel(*Spec.Prog, 8, 4), {32},
                            /*MicroBlas=*/false, SimdMode::Off,
                            /*AutoLevel=*/true, /*Tol=*/0.0);
}

TEST_F(SimdNativeTest, TaskGrainMMMSimdAutoWithinUlpBound) {
  BenchSpec Spec = makeMatMul();
  expectSimdOracleAgreement(Spec, mmmShackleTwoLevel(*Spec.Prog, 8, 4), {32},
                            /*MicroBlas=*/true, SimdMode::Auto,
                            /*AutoLevel=*/true, /*Tol=*/1e-12);
}

/// Cholesky tasks carry several segments each (the factor/update subtrees
/// of one block column), so this is the case that exercises the inlined
/// replay loop over flattened per-segment dims.
TEST_F(SimdNativeTest, TaskGrainMultiSegmentCholeskyBitwise) {
  BenchSpec Spec = makeCholeskyRight();
  expectSimdOracleAgreement(Spec,
                            choleskyShackleStores(*Spec.Prog, 16), {48},
                            /*MicroBlas=*/false, SimdMode::Off,
                            /*AutoLevel=*/false, /*Tol=*/0.0, /*SpdDim=*/48);
}

/// A task-grain native plan's undo capture must produce the same undo log
/// as the interpreter's write walk for every task — same runs, same order,
/// same pre-images.
TEST_F(SimdNativeTest, TaskGrainUndoCaptureMatchesInterpreter) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = choleskyShackleStores(P, 16);
  ParallelPlan Plan = ParallelPlan::build(P, Chain, {48});
  ASSERT_TRUE(Plan.parallelReady());
  std::shared_ptr<NativeModule> M =
      buildModule(Plan, /*MicroBlas=*/false, SimdMode::Off);
  ASSERT_NE(M, nullptr);

  ProgramInstance Inst(P, {48});
  Inst.fillRandom(17, 0.5, 1.5);
  const BlockPartition &Part = Plan.partition();
  bool SawMultiSegment = false;
  for (uint32_t T = 0; T < Part.Tasks.size(); ++T) {
    SawMultiSegment |= Part.Tasks[T].Segments.size() > 1;
    BlockUndoLog Interp = captureBlockUndo(Plan.nest(), Part.Tasks[T], Inst);
    ASSERT_NE(M->taskFnFor(T), nullptr) << "task " << T;
    BlockUndoLog Native =
        captureBlockUndo(Plan.nest(), Part.Tasks[T], T, Inst, M.get());
    EXPECT_EQ(Interp.runs(), Native.runs()) << "task " << T;
    ASSERT_EQ(Interp.Entries.size(), Native.Entries.size()) << "task " << T;
    for (std::size_t I = 0; I < Interp.Entries.size(); ++I)
      EXPECT_EQ(Interp.Entries[I], Native.Entries[I]);
  }
  EXPECT_TRUE(SawMultiSegment)
      << "battery lost its multi-segment coverage; pick another plan";
}

/// Modules compiled for different resolved SIMD levels must not share a
/// cache slot: the config hash separates them.
TEST(SimdConfig, NativeConfigHashSeparatesSimdLevels) {
  NoSimdOverride Clear;
  NativeJitOptions A;
  NativeJitOptions C = A;
  C.Simd = SimdMode::Off;
  if (resolveSimdLevel(A.Simd) != SimdLevel::Scalar) {
    EXPECT_NE(nativeConfigHash(A), nativeConfigHash(C));
  }
}

//===----------------------------------------------------------------------===//
// CLI: --native-simd plumbing and the env-forced off leg
//===----------------------------------------------------------------------===//

class SimdCliTest : public SimdNativeTest {};

TEST_F(SimdCliTest, NativeSimdOffReportsScalar) {
  auto [Code, Out] = runCli("run matmul two-level --block=8 --params=32 "
                            "--native=task --native-simd=off --verify",
                            "-u SHACKLE_NATIVE_SIMD");
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("simd=scalar"), std::string::npos) << Out;
  EXPECT_NE(Out.find("task-calls="), std::string::npos) << Out;
}

/// With SIMD routing active --verify applies the documented ULP policy:
/// a sub-1e-12 FMA difference passes with the "within ULP bound" line
/// instead of failing the strict bitwise compare.
TEST_F(SimdCliTest, NativeSimdAutoVerifiesWithinUlp) {
  auto [Code, Out] = runCli("run matmul two-level --block=64 --params=128 "
                            "--native=task --native-simd=auto --verify");
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("gemm-routed=1"), std::string::npos) << Out;
  bool Bitwise = Out.find("bitwise-identical") != std::string::npos;
  bool Ulp = Out.find("within ULP bound") != std::string::npos;
  EXPECT_TRUE(Bitwise || Ulp) << Out;
}

TEST_F(SimdCliTest, NativeSimdRejectsUnknownWidth) {
  auto [Code, Out] = runCli("run matmul c --block=8 --params=32 "
                            "--native=task --native-simd=sse9");
  EXPECT_NE(Code, 0);
  EXPECT_NE(Out.find("--native-simd"), std::string::npos) << Out;
}

TEST_F(SimdCliTest, EnvForcesScalarOverAuto) {
  auto [Code, Out] =
      runCli("run matmul two-level --block=8 --params=32 --native=task "
             "--native-simd=auto --verify",
             /*Env=*/"SHACKLE_NATIVE_SIMD=off");
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("simd=scalar"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Hardware counters: graceful unavailability + CacheSim sanity
//===----------------------------------------------------------------------===//

TEST(PerfCounters, UnavailableIsGracefulNotFatal) {
  ASSERT_EQ(setenv("SHACKLE_NO_PERF", "1", 1), 0);
  PerfCounterSet Set;
  EXPECT_FALSE(Set.open());
  EXPECT_FALSE(Set.unavailableReason().empty());
  Set.close();
  unsetenv("SHACKLE_NO_PERF");
}

TEST(PerfCounters, CliPerfLineAlwaysPrints) {
  auto [Code, Out] =
      runCli("run matmul c --block=8 --params=32 --threads=2 --perf");
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("perf:"), std::string::npos) << Out;
}

/// Measured L2 misses vs the CacheSim prediction on blocked vs unblocked
/// MMM. The simulator is not cycle-accurate and the real part prefetches,
/// so the tolerance is an order-of-magnitude band — what it protects is
/// the *ordering* (blocking reduces measured misses) and the counters
/// being plausibly scaled, not exact agreement. Skips without a PMU.
TEST(PerfCounters, CacheSimTracksHardwareOnBlockedMMM) {
  if (!PerfCounterSet::available())
    GTEST_SKIP() << "perf_event_open unavailable on this machine";
  const int64_t N = 256;
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;

  auto MissesFor = [&](const LoopNest &Nest, uint64_t &HwL2,
                       uint64_t &SimL2) {
    // Simulated.
    CacheHierarchy H({
        CacheConfig{"L1", 32 * 1024, 64, 4},
        CacheConfig{"L2", 256 * 1024, 64, 8},
    });
    {
      ProgramInstance Inst(P, {N});
      Inst.fillRandom(3, 0.5, 1.5);
      TraceFn Trace = [&H](unsigned ArrayId, int64_t Off, bool) {
        H.access((static_cast<uint64_t>(ArrayId + 1) << 33) +
                 static_cast<uint64_t>(Off) * sizeof(double));
      };
      runLoopNest(Nest, Inst, &Trace);
    }
    SimL2 = H.level(1).misses();
    // Measured, same interpreted access stream.
    ProgramInstance Inst(P, {N});
    Inst.fillRandom(3, 0.5, 1.5);
    PerfCounterSet Perf;
    ASSERT_TRUE(Perf.open());
    Perf.start();
    runLoopNest(Nest, Inst, nullptr);
    HwCounterSample S = Perf.stop();
    Perf.close();
    ASSERT_TRUE(S.Available);
    HwL2 = S.L2Misses;
  };

  uint64_t HwBlocked = 0, SimBlocked = 0, HwFlat = 0, SimFlat = 0;
  MissesFor(generateShackledCode(P, mmmShackleC(P, 32)), HwBlocked,
            SimBlocked);
  MissesFor(generateOriginalCode(P), HwFlat, SimFlat);
  if (HasFatalFailure())
    return;

  // Blocking must help on real hardware like it does in the model.
  EXPECT_LT(HwBlocked, HwFlat);
  // And the model must be within an order of magnitude of the part.
  ASSERT_GT(SimBlocked, 0u);
  double Ratio = static_cast<double>(HwBlocked) /
                 static_cast<double>(SimBlocked);
  EXPECT_GT(Ratio, 0.1) << "hw=" << HwBlocked << " sim=" << SimBlocked;
  EXPECT_LT(Ratio, 10.0) << "hw=" << HwBlocked << " sim=" << SimBlocked;
}

} // namespace
