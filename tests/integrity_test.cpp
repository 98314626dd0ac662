//===- integrity_test.cpp - Data-integrity runtime tests ----------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Tests for the data-plane half of fault tolerance (DESIGN.md §12, ctest
// label: integrity): checksummed undo logs, shadow re-execution
// verification, numerical-poisoning quarantine, and the escalation ladder
// verify -> rollback-retry -> pristine serial replay -> fail with
// provenance. The contract under test is absolute: a run either finishes
// bitwise-identical to serial shackled execution or fails loudly naming
// the corrupted block. Never a silently wrong answer.
//
//===----------------------------------------------------------------------===//

#include "native/NativeJit.h"
#include "parallel/Integrity.h"
#include "parallel/ParallelExecutor.h"
#include "parallel/UndoLog.h"
#include "programs/Benchmarks.h"
#include "service/Engine.h"
#include "support/Checksum.h"
#include "support/FaultInjector.h"

#include "SimdEnv.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

class IntegrityTest : public ::testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().disarm(); }
  void TearDown() override { FaultInjector::instance().disarm(); }

  void arm(const std::string &Spec) {
    if (!FaultInjectionCompiledIn)
      GTEST_SKIP() << "built without SHACKLE_ENABLE_FAULT_INJECTION";
    Status S = FaultInjector::instance().configure(Spec);
    ASSERT_TRUE(S.ok()) << S.diagnostic().str();
  }
};

/// True when some diag of \p Code has a message or note containing \p Sub.
bool diagContains(const std::vector<Diagnostic> &Diags, DiagCode Code,
                  const std::string &Sub) {
  for (const Diagnostic &D : Diags) {
    if (D.Code != Code)
      continue;
    if (D.Message.find(Sub) != std::string::npos)
      return true;
    for (const Diagnostic &Note : D.Notes)
      if (Note.Message.find(Sub) != std::string::npos)
        return true;
  }
  return false;
}

/// Builds the plan, runs it under \p Opts with the already-armed injector,
/// and asserts the integrity contract: completion, no Failed flag, and a
/// result bitwise-identical to serial shackled execution.
ParallelRunStats runExpectBitwise(const BenchSpec &Spec,
                                  const ShackleChain &Chain,
                                  std::vector<int64_t> Params,
                                  const ParallelRunOptions &Opts) {
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, Chain, Params);
  EXPECT_TRUE(Plan.parallelReady()) << Plan.summary();

  ProgramInstance Ref(P, Params);
  Ref.fillRandom(77, 0.5, 1.5);
  for (unsigned A = 0; A < P.getNumArrays(); ++A)
    for (double &V : Ref.buffer(A))
      V += 1.0; // Keep factorizations well conditioned.
  ProgramInstance Par = Ref;
  Plan.runSerial(Ref);

  ParallelRunStats Stats = Plan.run(Par, Opts);
  EXPECT_FALSE(Stats.Failed) << Spec.Name;
  EXPECT_TRUE(Ref.bitwiseEqual(Par))
      << Spec.Name << " mode=" << parallelModeName(Stats.Mode);
  EXPECT_TRUE(Stats.Progress.complete()) << Stats.Progress.str();
  return Stats;
}

//===----------------------------------------------------------------------===//
// Checksum primitives
//===----------------------------------------------------------------------===//

/// An undo log of \p Values along one run of array \p ArrayId from
/// \p Offset on.
BlockUndoLog oneRunLog(std::vector<double> Values, unsigned ArrayId = 0,
                       int64_t Offset = 0) {
  BlockUndoLog Log;
  Log.Runs = std::make_shared<const FootprintRuns>(FootprintRuns{
      {ArrayId, Offset, static_cast<int64_t>(Values.size())}});
  Log.Entries = std::move(Values);
  return Log;
}

TEST(Checksum, SingleBitFlipChangesTheDigest) {
  std::vector<double> Values;
  for (int I = 0; I < 32; ++I)
    Values.push_back(1.0 + 0.25 * I);
  BlockUndoLog Log = oneRunLog(Values);
  const uint64_t Clean = checksumUndoLog(Log);
  EXPECT_EQ(checksumUndoLog(Log), Clean); // Deterministic.
  for (unsigned Bit : {0u, 31u, 52u, 63u}) {
    BlockUndoLog Mutated = Log;
    Mutated.Entries[7] = flipDoubleBit(Mutated.Entries[7], Bit);
    EXPECT_NE(checksumUndoLog(Mutated), Clean) << "bit " << Bit;
  }
  // Metadata is covered too: the same values at a shifted offset, or in
  // another array, differ.
  EXPECT_NE(checksumUndoLog(oneRunLog(Values, 0, 1)), Clean);
  EXPECT_NE(checksumUndoLog(oneRunLog(Values, 1, 0)), Clean);
}

TEST(Checksum, FlipDoubleBitIsAnInvolution) {
  for (unsigned Bit = 0; Bit < 64; ++Bit) {
    const double V = 3.14159 * (Bit + 1);
    const double Flipped = flipDoubleBit(V, Bit);
    EXPECT_NE(Flipped, V) << "bit " << Bit; // Finite values: bitwise change.
    EXPECT_EQ(flipDoubleBit(Flipped, Bit), V) << "bit " << Bit;
  }
  EXPECT_EQ(flipDoubleBit(2.0, 63), -2.0); // Sign bit.
}

TEST(Checksum, ZeroRepresentationsAreDistinguished) {
  // The digest hashes bit patterns, not values: +0.0 and -0.0 compare
  // equal as doubles but must not collide, or a sign-bit flip of a zero
  // would be undetectable.
  EXPECT_NE(checksumUndoLog(oneRunLog({0.0})),
            checksumUndoLog(oneRunLog({-0.0})));
}

TEST(Cone, DownstreamConeIsTheTransitiveSuccessorSet) {
  // 0 -> {1, 2}, 1 -> {3}, 2 -> {3}, 3 -> {}, 4 isolated.
  BlockDepGraph G;
  G.Succs = {{1, 2}, {3}, {3}, {}, {}};
  G.InDegree = {0, 1, 1, 2, 0};
  EXPECT_EQ(downstreamCone(G, 0), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(downstreamCone(G, 1), (std::vector<uint32_t>{3}));
  EXPECT_TRUE(downstreamCone(G, 3).empty());
  EXPECT_TRUE(downstreamCone(G, 4).empty());
  EXPECT_EQ(formatCone({1, 2, 3}), "#1, #2, #3");
  EXPECT_EQ(formatCone({1, 2, 3}, 2), "#1, #2, ...");
}

//===----------------------------------------------------------------------===//
// Injection clauses
//===----------------------------------------------------------------------===//

TEST_F(IntegrityTest, DataFaultClausesParseAndHaveFiniteBudgets) {
  arm("seed=9;flip@block=3,bit=52;corrupt-undo@block=1;nan@block=2;"
      "inf@block=4,count=2");
  unsigned Bit = 99;
  uint64_t Pick = 0;
  EXPECT_FALSE(injectBitFlip(0, Bit, Pick)); // Only the named block.
  EXPECT_TRUE(injectBitFlip(3, Bit, Pick));
  EXPECT_EQ(Bit, 52u);
  EXPECT_FALSE(injectBitFlip(3, Bit, Pick)); // Budget exhausted.
  EXPECT_FALSE(injectUndoCorrupt(0, Pick));
  EXPECT_TRUE(injectUndoCorrupt(1, Pick));
  EXPECT_FALSE(injectUndoCorrupt(1, Pick));
  EXPECT_EQ(injectPoisonValue(0, Pick), 0);
  EXPECT_EQ(injectPoisonValue(2, Pick), 1); // NaN.
  EXPECT_EQ(injectPoisonValue(2, Pick), 0);
  EXPECT_EQ(injectPoisonValue(4, Pick), 2); // Inf, twice.
  EXPECT_EQ(injectPoisonValue(4, Pick), 2);
  EXPECT_EQ(injectPoisonValue(4, Pick), 0);
  const FaultCounters &C = FaultInjector::instance().counters();
  EXPECT_EQ(C.BitFlips, 1u);
  EXPECT_EQ(C.UndoCorruptions, 1u);
  EXPECT_EQ(C.NansInjected, 1u);
  EXPECT_EQ(C.InfsInjected, 2u);
}

TEST_F(IntegrityTest, ElementPicksAreSeedDeterministic) {
  uint64_t P1, P2;
  arm("seed=41;flip@block=5");
  unsigned Bit;
  ASSERT_TRUE(injectBitFlip(5, Bit, P1));
  arm("seed=41;flip@block=5");
  ASSERT_TRUE(injectBitFlip(5, Bit, P2));
  EXPECT_EQ(P1, P2);
  arm("seed=42;flip@block=5");
  ASSERT_TRUE(injectBitFlip(5, Bit, P2));
  EXPECT_NE(P1, P2); // Different seed, different element pick.
}

TEST_F(IntegrityTest, MalformedDataClausesAreRejectedWholesale) {
  FaultInjector &FI = FaultInjector::instance();
  for (const char *Bad :
       {"flip@bit=3", "flip@block=1,bit=64", "flip@block=x",
        "corrupt-undo@worker=1", "nan@block", "inf@rate=0.5"}) {
    Status S = FI.configure(Bad);
    ASSERT_FALSE(S.ok()) << Bad;
    EXPECT_EQ(S.diagnostic().Code, DiagCode::UsageError) << Bad;
    EXPECT_FALSE(FI.armed()) << Bad; // A bad spec must not half-arm.
  }
}

//===----------------------------------------------------------------------===//
// Bit flips: detected, rolled back, recomputed bitwise
//===----------------------------------------------------------------------===//

struct FlipCase {
  const char *Label;
  BenchSpec (*Make)();
  ShackleChain (*Shackle)(const Program &);
  std::vector<int64_t> Params;
};

ShackleChain mmmC8(const Program &P) { return mmmShackleC(P, 8); }
ShackleChain cholStores4(const Program &P) {
  return choleskyShackleStores(P, 4);
}
ShackleChain adi1(const Program &P) { return adiShackle(P); }

const FlipCase FlipCases[] = {
    {"matmul-c", makeMatMul, mmmC8, {32}},
    {"cholesky-stores", makeCholeskyRight, cholStores4, {20}},
    {"adi-fused", makeADI, adi1, {12}},
};

TEST_F(IntegrityTest, FlipIsDetectedAndRecomputedBitwiseOnEverySchedule) {
  // The acceptance gate: under flip@block with --verify-data=block, every
  // benchmark at every thread count finishes bitwise-identical to serial
  // with the corruption counted — the flipped execution never commits.
  for (const FlipCase &C : FlipCases) {
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      arm("seed=5;flip@block=1");
      if (IsSkipped())
        return;
      BenchSpec Spec = C.Make();
      ParallelRunOptions Opts;
      Opts.NumThreads = Threads;
      Opts.VerifyData = DataVerify::Block;
      ParallelRunStats Stats =
          runExpectBitwise(Spec, C.Shackle(*Spec.Prog), C.Params, Opts);
      EXPECT_GE(Stats.Integrity.CorruptionsDetected, 1u)
          << C.Label << " threads=" << Threads;
      EXPECT_GE(Stats.Integrity.ChecksumsVerified, 1u) << C.Label;
      EXPECT_GE(Stats.Retries, 1u) << C.Label;
      EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelFault,
                               "checksums diverged"))
          << C.Label;
      EXPECT_EQ(FaultInjector::instance().counters().BitFlips, 1u)
          << C.Label;
    }
  }
}

TEST_F(IntegrityTest, SeedSweptFlipsNeverCommitSilently) {
  // Zero-silent-wrong-answers: whatever element and bit the seed picks,
  // the run either matches serial bitwise or fails loudly. (With
  // verification on it must in fact always match.)
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    arm("seed=" + std::to_string(Seed) + ";flip@block=2");
    if (IsSkipped())
      return;
    BenchSpec Spec = makeMatMul();
    ParallelRunOptions Opts;
    Opts.NumThreads = 4;
    Opts.VerifyData = DataVerify::Block;
    ParallelRunStats Stats =
        runExpectBitwise(Spec, mmmC8(*Spec.Prog), {32}, Opts);
    EXPECT_GE(Stats.Integrity.CorruptionsDetected, 1u) << "seed " << Seed;
  }
}

TEST_F(IntegrityTest, UndoVerifyModeAloneDoesNotCatchFlips) {
  // Contrast case documenting the verification tiers: --verify-data=undo
  // protects restores, not commits, so a flipped commit goes through and
  // the result legitimately differs from serial. The run must still be
  // "successful" (no Failed flag) — this is exactly the gap that
  // --verify-data=block closes.
  arm("seed=5;flip@block=1");
  if (IsSkipped())
    return;
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmC8(P), {32});
  ASSERT_TRUE(Plan.parallelReady());
  ProgramInstance Ref(P, {32});
  Ref.fillRandom(77, 0.5, 1.5);
  ProgramInstance Par = Ref;
  Plan.runSerial(Ref);
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  Opts.VerifyData = DataVerify::Undo;
  ParallelRunStats Stats = Plan.run(Par, Opts);
  EXPECT_FALSE(Stats.Failed);
  EXPECT_EQ(Stats.Integrity.CorruptionsDetected, 0u);
  EXPECT_FALSE(Ref.bitwiseEqual(Par)); // The flip landed undetected.
}

//===----------------------------------------------------------------------===//
// Corrupted undo logs: refused restores escalate to the pristine replay
//===----------------------------------------------------------------------===//

TEST_F(IntegrityTest, CorruptUndoRefusesRestoreAndReplaysFromPristine) {
  // The undo log of block 2 is mutated before its restore (the restore is
  // forced by pairing a throw on the same block). The checksum catches
  // the mutation, the restore is refused, and the whole nest restarts
  // serially from the pristine snapshot — still bitwise-identical.
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    arm("seed=9;throw@block=2,count=1;corrupt-undo@block=2");
    if (IsSkipped())
      return;
    BenchSpec Spec = makeCholeskyRight();
    ParallelRunOptions Opts;
    Opts.NumThreads = Threads;
    Opts.VerifyData = DataVerify::Undo;
    ParallelRunStats Stats =
        runExpectBitwise(Spec, cholStores4(*Spec.Prog), {20}, Opts);
    EXPECT_EQ(Stats.Mode, ParallelMode::Degraded) << Threads;
    EXPECT_GE(Stats.Integrity.UndoRefused, 1u) << Threads;
    EXPECT_GE(Stats.Integrity.CorruptionsDetected, 1u) << Threads;
    EXPECT_EQ(Stats.Integrity.PristineReplays, 1u) << Threads;
    EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelFault,
                             "refusing the unsound restore"))
        << Threads;
    EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelDegrade,
                             "pristine"))
        << Threads;
    EXPECT_EQ(FaultInjector::instance().counters().UndoCorruptions, 1u)
        << Threads;
  }
}

TEST_F(IntegrityTest, CorruptUndoUnderBlockVerifyNeedsNoPairedFault) {
  // --verify-data=block restores between the two shadow executions, so a
  // corrupt-undo fires without any other fault — and MMM and ADI join
  // Cholesky in converging bitwise through the pristine replay.
  struct Case {
    const char *Label;
    BenchSpec (*Make)();
    ShackleChain (*Shackle)(const Program &);
    std::vector<int64_t> Params;
  };
  const Case Cases[] = {
      {"matmul-c", makeMatMul, mmmC8, {32}},
      {"adi-fused", makeADI, adi1, {12}},
  };
  for (const Case &C : Cases) {
    arm("seed=3;corrupt-undo@block=1");
    if (IsSkipped())
      return;
    BenchSpec Spec = C.Make();
    ParallelRunOptions Opts;
    Opts.NumThreads = 4;
    Opts.VerifyData = DataVerify::Block;
    ParallelRunStats Stats =
        runExpectBitwise(Spec, C.Shackle(*Spec.Prog), C.Params, Opts);
    EXPECT_GE(Stats.Integrity.UndoRefused, 1u) << C.Label;
    EXPECT_EQ(Stats.Integrity.PristineReplays, 1u) << C.Label;
  }
}

//===----------------------------------------------------------------------===//
// The pristine snapshot: the plan's written set, in a buffer the instance
// keeps across runs
//===----------------------------------------------------------------------===//

/// Minor page faults this process has taken so far.
long minorFaults() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_minflt;
}

TEST_F(IntegrityTest, PristineSnapshotHoldsTheWrittenSetOnly) {
  // MMM writes C alone: the snapshot is C's 32 x 32 doubles, none of A's
  // or B's.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmC8(P), {32});
  ASSERT_TRUE(Plan.parallelReady());
  EXPECT_EQ(Plan.writtenSet(), (FootprintRuns{{0, 0, 32 * 32}}));
  ProgramInstance Inst(P, {32});
  Inst.fillRandom(4);
  ParallelRunOptions Opts;
  Opts.NumThreads = 2;
  EXPECT_EQ(Plan.run(Inst, Opts).Integrity.PristineBytes,
            32u * 32 * sizeof(double));
  EXPECT_EQ(Inst.snapshotBuffer().size(), 32u * 32);
}

TEST_F(IntegrityTest, InstanceCopiesLeaveTheSnapshotBufferBehind) {
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmC8(P), {32});
  ProgramInstance Inst(P, {32});
  Inst.fillRandom(4);
  ParallelRunOptions Opts;
  Opts.NumThreads = 2;
  Plan.run(Inst, Opts);
  ASSERT_FALSE(Inst.snapshotBuffer().empty());

  ProgramInstance Copy = Inst;
  EXPECT_TRUE(Copy.bitwiseEqual(Inst));
  EXPECT_TRUE(Copy.snapshotBuffer().empty());
  ProgramInstance Assigned(P, {32});
  Assigned = Inst;
  EXPECT_TRUE(Assigned.bitwiseEqual(Inst));
  EXPECT_TRUE(Assigned.snapshotBuffer().empty());
}

TEST_F(IntegrityTest, PristineReplayAfterWarmRunsRestoresThisRunsPreState) {
  // Two clean verified runs leave the reused buffer holding an older
  // pre-state. A third run whose corrupt undo log forces the pristine
  // replay must restart from its own pre-state: bitwise equal to a serial
  // run from there.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmC8(P), {32});
  ASSERT_TRUE(Plan.parallelReady());
  ProgramInstance Inst(P, {32});
  Inst.fillRandom(6, 0.5, 1.5);
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  for (int Run = 0; Run < 2; ++Run)
    ASSERT_EQ(Plan.run(Inst, Opts).Integrity.PristineReplays, 0u);
  ProgramInstance Ref = Inst;
  Plan.runSerial(Ref);

  arm("seed=9;throw@block=2,count=1;corrupt-undo@block=2");
  if (IsSkipped())
    return;
  ParallelRunStats Stats = Plan.run(Inst, Opts);
  EXPECT_FALSE(Stats.Failed);
  EXPECT_EQ(Stats.Integrity.PristineReplays, 1u);
  EXPECT_TRUE(Ref.bitwiseEqual(Inst));
}

TEST_F(IntegrityTest, WarmVerifiedRunsFaultInNoSnapshotPages) {
  // One Jacobi sweep at N=512: the written set is New's 510 x 510
  // interior, about 500 pages. The first verified run sizes the
  // instance's buffer; later runs copy into it without faulting it in, so
  // a warm run's minor faults stay far below the snapshot's page count.
  std::ifstream In(std::string(SHACKLE_SOURCE_DIR) +
                   "/examples/dsl/jacobi2d.dsl");
  std::stringstream Text;
  Text << In.rdbuf();
  ProgramSource Src;
  Src.Dsl = Text.str();
  Src.Array = "New";
  Src.Blocks = {64, 64};
  Expected<Resolved> R = resolveProgram(Src);
  ASSERT_TRUE(R) << R.diagnostic().str();
  const Program &P = *R.get().Prog;
  ParallelPlan Plan = ParallelPlan::build(P, R.get().Chain, {512});
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  ProgramInstance Inst(P, {512});
  Inst.fillRandom(8);
  ParallelRunOptions Opts;
  Opts.NumThreads = 2;
  ParallelRunStats Stats;
  long Faults = 0;
  const double *Buffer = nullptr;
  for (int Run = 0; Run < 3; ++Run) {
    const long Before = minorFaults();
    Stats = Plan.run(Inst, Opts);
    Faults = minorFaults() - Before;
    if (Run == 0)
      Buffer = Inst.snapshotBuffer().data();
  }
  EXPECT_EQ(Inst.snapshotBuffer().data(), Buffer);
  EXPECT_EQ(Stats.Integrity.PristineBytes, 510u * 510 * sizeof(double));
  const long Pages = static_cast<long>(Stats.Integrity.PristineBytes) /
                     sysconf(_SC_PAGESIZE);
  EXPECT_GE(Pages, 400);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  // The sanitizers' allocators hold freed memory back, so every run's undo
  // logs land on fresh pages there and the count measures the allocator.
  EXPECT_LT(Faults, Pages / 4) << "snapshot pages " << Pages;
#else
  (void)Faults;
#endif
}

//===----------------------------------------------------------------------===//
// Numerical poisoning: quarantine with provenance
//===----------------------------------------------------------------------===//

TEST_F(IntegrityTest, InjectedNanQuarantinesTheBlockAndItsCone) {
  arm("seed=5;nan@block=2");
  if (IsSkipped())
    return;
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, cholStores4(P), {20});
  ASSERT_TRUE(Plan.parallelReady());
  ProgramInstance Inst(P, {20});
  Inst.fillRandom(77, 0.5, 1.5);
  // A strongly diagonally dominant matrix is SPD: the factorization is
  // finite everywhere, so the only non-finite value in the run is the
  // injected one — unmistakably corruption, not "produced" arithmetic.
  for (int64_t I = 0; I < 20; ++I)
    Inst.buffer(0)[I * 20 + I] += 100.0;
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  ParallelRunStats Stats = Plan.run(Inst, Opts);

  // The run fails with provenance: the exact first poisoned block, the
  // poisoned address, and the downstream cone — never a silent NaN.
  EXPECT_TRUE(Stats.Failed);
  EXPECT_FALSE(Stats.Progress.complete());
  EXPECT_GE(Stats.Integrity.PoisonedBlocks, 1u);
  EXPECT_GE(Stats.Integrity.CorruptionsDetected, 1u);
  EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelPoison,
                           "block #2"));
  EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelPoison,
                           "silent corruption"));
  // Cholesky block 2 has dependents; the cone is named and larger than
  // the block itself.
  EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelPoison,
                           "downstream dependence cone"));
  EXPECT_GT(Stats.Integrity.PoisonedBlocks, 1u);
  EXPECT_EQ(FaultInjector::instance().counters().NansInjected, 1u);
}

TEST_F(IntegrityTest, InjectedInfIsCaughtLikeNan) {
  arm("seed=7;inf@block=1");
  if (IsSkipped())
    return;
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmC8(P), {32});
  ASSERT_TRUE(Plan.parallelReady());
  ProgramInstance Inst(P, {32});
  Inst.fillRandom(77, 0.5, 1.5);
  ParallelRunOptions Opts;
  Opts.NumThreads = 2;
  ParallelRunStats Stats = Plan.run(Inst, Opts);
  EXPECT_TRUE(Stats.Failed);
  EXPECT_GE(Stats.Integrity.PoisonedBlocks, 1u);
  EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelPoison, "inf"));
  EXPECT_EQ(FaultInjector::instance().counters().InfsInjected, 1u);
}

TEST_F(IntegrityTest, PoisonedFootprintIsRolledBackNotCommitted) {
  // The quarantined block's footprint must hold its pre-run values: the
  // poison is withheld, not published for some later consumer to read.
  arm("seed=5;nan@block=0");
  if (IsSkipped())
    return;
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmC8(P), {16});
  ASSERT_TRUE(Plan.parallelReady());
  ProgramInstance Inst(P, {16});
  Inst.fillRandom(3, 0.5, 1.5);
  ParallelRunOptions Opts;
  Opts.NumThreads = 1;
  ParallelRunStats Stats = Plan.run(Inst, Opts);
  EXPECT_TRUE(Stats.Failed);
  for (unsigned A = 0; A < P.getNumArrays(); ++A)
    for (double V : Inst.buffer(A))
      EXPECT_TRUE(std::isfinite(V)); // No NaN escaped into the instance.
}

TEST_F(IntegrityTest, GenuineNanIsAttributedButCommittedLikeSerial) {
  // A negative matrix sends Cholesky's sqrt to NaN in the block's own
  // arithmetic. That is the program's honest answer — serial would
  // compute the same bits — so the runtime attributes it (store-check
  // provenance, "produced", not corruption) and commits it. Refusing it
  // would break serial equivalence.
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, cholStores4(P), {20});
  ASSERT_TRUE(Plan.parallelReady());
  ProgramInstance Ref(P, {20});
  Ref.fillRandom(13, -2.0, -1.0); // Negative diagonal: sqrt -> NaN.
  ProgramInstance Par = Ref;
  Plan.runSerial(Ref);
  bool RefHasNan = false;
  for (unsigned A = 0; A < P.getNumArrays(); ++A)
    for (double V : Ref.buffer(A))
      RefHasNan |= !std::isfinite(V);
  ASSERT_TRUE(RefHasNan); // Premise: the program genuinely produces NaN.

  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  ParallelRunStats Stats = Plan.run(Par, Opts);
  EXPECT_FALSE(Stats.Failed);
  EXPECT_TRUE(Stats.Progress.complete());
  EXPECT_EQ(Stats.Integrity.PoisonedBlocks, 0u); // Nothing quarantined.
  EXPECT_EQ(Stats.Integrity.CorruptionsDetected, 0u);
  EXPECT_TRUE(Ref.bitwiseEqual(Par));
  EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelPoison,
                           "genuine numerical failure"));
}

//===----------------------------------------------------------------------===//
// Escalation interplay: retries x watchdog deadlines (seed swept)
//===----------------------------------------------------------------------===//

TEST_F(IntegrityTest, ThrowPlusStallConvergesOrDegradesCleanlyAcrossSeeds) {
  // A block that both throws (twice) and stalls its worker forever: the
  // retry ladder and the watchdog race. Whatever the interleaving at any
  // thread count, the run must converge bitwise — retried in place or
  // degraded to the serial replay — and never hang, fail, or lie.
  for (uint64_t Seed : {1u, 7u, 23u}) {
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      arm("seed=" + std::to_string(Seed) +
          ";throw@block=1,count=2;stall@worker=0,ms=30000");
      if (IsSkipped())
        return;
      BenchSpec Spec = makeCholeskyRight();
      ParallelRunOptions Opts;
      Opts.NumThreads = Threads;
      Opts.MaxRetries = 2;
      Opts.StallTimeoutMs = 100;
      ParallelRunStats Stats =
          runExpectBitwise(Spec, cholStores4(*Spec.Prog), {20}, Opts);
      EXPECT_TRUE(Stats.Mode == ParallelMode::Parallel ||
                  Stats.Mode == ParallelMode::Degraded)
          << "seed=" << Seed << " threads=" << Threads;
      EXPECT_GE(Stats.Faults + Stats.ReplayedSerially, 1u)
          << "seed=" << Seed << " threads=" << Threads;
    }
  }
}

//===----------------------------------------------------------------------===//
// CLI end-to-end
//===----------------------------------------------------------------------===//

TEST_F(IntegrityTest, CliFlipRunPrintsIntegrityLineAndVerifiesBitwise) {
  if (!FaultInjectionCompiledIn)
    GTEST_SKIP() << "built without SHACKLE_ENABLE_FAULT_INJECTION";
  auto [Rc, Out] = runCli(
      "run matmul c --params=32 --block=8 --threads=4 --verify-data=block "
      "--verify --inject='seed=5;flip@block=1'");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("integrity: verify-data=block"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("corruptions-detected=1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

TEST_F(IntegrityTest, CliNanRunFailsWithPoisonProvenance) {
  if (!FaultInjectionCompiledIn)
    GTEST_SKIP() << "built without SHACKLE_ENABLE_FAULT_INJECTION";
  auto [Rc, Out] = runCli(
      "run matmul c --params=32 --block=8 --threads=4 "
      "--inject='seed=5;nan@block=3'");
  EXPECT_EQ(Rc, 1) << Out;
  EXPECT_NE(Out.find("parallel-poison"), std::string::npos) << Out;
  EXPECT_NE(Out.find("block #3"), std::string::npos) << Out;
  EXPECT_NE(Out.find("quarantined"), std::string::npos) << Out;
}

TEST_F(IntegrityTest, CliCorruptUndoConvergesThroughPristineReplay) {
  if (!FaultInjectionCompiledIn)
    GTEST_SKIP() << "built without SHACKLE_ENABLE_FAULT_INJECTION";
  auto [Rc, Out] = runCli(
      "run cholesky-right stores --params=20 --block=4 --threads=4 "
      "--verify --inject='seed=9;throw@block=2;corrupt-undo@block=2'");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("pristine-replays=1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("undo-refused=1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Native-tier integrity. Native kernels have no per-store check hook, so
// the footprint scan plus an interpreter oracle rerun (DESIGN.md §15) must
// reconstruct exactly the interpreted tier's verdicts: injected corruption
// is still detected/quarantined, genuine arithmetic poison is still
// committed bitwise like serial.
//===----------------------------------------------------------------------===//

/// Compiles a native module with one kernel per task of \p Plan.
std::shared_ptr<NativeModule> compileModuleFor(const ParallelPlan &Plan) {
  // SIMD routing pinned off: these tests assert bitwise agreement with the
  // serial interpreter, and the vector kernels use FMA (opt-in ULP policy,
  // covered by the simd suite). Scalar routing keeps the reduction order.
  ScopedSimdEnv Scalar("off");
  NativeJitOptions Opts;
  std::vector<Diagnostic> Diags;
  return NativeModule::compile(Plan.nest(), Plan.partition(), Opts, Diags);
}

TEST_F(IntegrityTest, FlipUnderNativeIsDetectedAndRecomputedBitwise) {
  if (!nativeTierAvailable())
    GTEST_SKIP() << "no usable native compiler on this machine";
  // Block-level shadow verification is engine-agnostic: both executions
  // run natively, their footprint checksums diverge on the flipped commit,
  // and the recomputation lands bitwise-identical to serial.
  arm("seed=5;flip@block=1");
  if (IsSkipped())
    return;
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmC8(P), {32});
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  std::shared_ptr<NativeModule> M = compileModuleFor(Plan);
  ASSERT_NE(M, nullptr);

  ProgramInstance Ref(P, {32});
  Ref.fillRandom(77, 0.5, 1.5);
  ProgramInstance Par = Ref;
  Plan.runSerial(Ref);
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  Opts.VerifyData = DataVerify::Block;
  Opts.Native = M.get();
  ParallelRunStats Stats = Plan.run(Par, Opts);
  EXPECT_FALSE(Stats.Failed);
  EXPECT_GT(Stats.NativeSegments, 0u);
  EXPECT_GE(Stats.Integrity.CorruptionsDetected, 1u);
  EXPECT_GE(Stats.Retries, 1u);
  EXPECT_TRUE(Ref.bitwiseEqual(Par));
  EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelFault,
                           "checksums diverged"));
  EXPECT_EQ(FaultInjector::instance().counters().BitFlips, 1u);
}

TEST_F(IntegrityTest, InjectedNanUnderNativeQuarantinesViaOracleRerun) {
  if (!nativeTierAvailable())
    GTEST_SKIP() << "no usable native compiler on this machine";
  arm("seed=5;nan@block=2");
  if (IsSkipped())
    return;
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, cholStores4(P), {20});
  ASSERT_TRUE(Plan.parallelReady());
  std::shared_ptr<NativeModule> M = compileModuleFor(Plan);
  ASSERT_NE(M, nullptr);

  ProgramInstance Inst(P, {20});
  Inst.fillRandom(77, 0.5, 1.5);
  // SPD input: the factorization is finite everywhere, so the only
  // non-finite value is the injected one. The footprint scan flags it, the
  // interpreter rerun comes back clean, and that disagreement convicts the
  // commit of silent corruption — same verdict as the interpreted tier.
  for (int64_t I = 0; I < 20; ++I)
    Inst.buffer(0)[I * 20 + I] += 100.0;
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  Opts.Native = M.get();
  ParallelRunStats Stats = Plan.run(Inst, Opts);
  EXPECT_TRUE(Stats.Failed);
  EXPECT_GE(Stats.NativeOracleReruns, 1u);
  EXPECT_GE(Stats.Integrity.PoisonedBlocks, 1u);
  EXPECT_GE(Stats.Integrity.CorruptionsDetected, 1u);
  EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelPoison,
                           "block #2"));
  EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelPoison,
                           "silent corruption"));
  EXPECT_EQ(FaultInjector::instance().counters().NansInjected, 1u);
}

TEST_F(IntegrityTest, GenuineNanUnderNativeCommitsViaInterpreterOracle) {
  if (!nativeTierAvailable())
    GTEST_SKIP() << "no usable native compiler on this machine";
  // Negative input sends Cholesky's sqrt to NaN inside the native kernel.
  // The scan can't tell produced from corrupted on its own; the oracle
  // rerun interprets the block from the same pre-state, sees its own
  // arithmetic store the NaN, and commits the interpreted result — bitwise
  // what serial computes, attributed as genuine, never quarantined.
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, cholStores4(P), {20});
  ASSERT_TRUE(Plan.parallelReady());
  std::shared_ptr<NativeModule> M = compileModuleFor(Plan);
  if (!M)
    GTEST_SKIP() << "native compile unavailable";

  ProgramInstance Ref(P, {20});
  Ref.fillRandom(13, -2.0, -1.0); // Negative diagonal: sqrt -> NaN.
  ProgramInstance Par = Ref;
  Plan.runSerial(Ref);

  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  Opts.Native = M.get();
  ParallelRunStats Stats = Plan.run(Par, Opts);
  EXPECT_FALSE(Stats.Failed);
  EXPECT_GE(Stats.NativeOracleReruns, 1u);
  EXPECT_EQ(Stats.Integrity.PoisonedBlocks, 0u);
  EXPECT_EQ(Stats.Integrity.CorruptionsDetected, 0u);
  EXPECT_TRUE(Ref.bitwiseEqual(Par));
  EXPECT_TRUE(diagContains(Stats.Diags, DiagCode::ParallelPoison,
                           "genuine numerical failure"));
}

//===----------------------------------------------------------------------===//
// Plan-lifetime footprints (BlockPartition.h): each task's write footprint
// is computed once, at plan build, and every run of the plan reads it. The
// integrity ladder must behave the same on every run.
//===----------------------------------------------------------------------===//

/// A Cholesky plan at N=20 with an SPD input: every result is finite, so
/// the only non-finite value a run can see is an injected one.
struct MemoFixture {
  BenchSpec Spec = makeCholeskyRight();
  ParallelPlan Plan = ParallelPlan::build(*Spec.Prog, cholStores4(*Spec.Prog),
                                          {20});
  ProgramInstance Input{*Spec.Prog, {20}};
  MemoFixture() {
    Input.fillRandom(77, 0.5, 1.5);
    for (int64_t I = 0; I < 20; ++I)
      Input.buffer(0)[I * 20 + I] += 100.0;
  }
};

/// Each task's footprint pointer: a run that recomputed or replaced a
/// footprint would change it.
std::vector<const FootprintRuns *> footprintsOf(const ParallelPlan &Plan) {
  std::vector<const FootprintRuns *> Out;
  for (const BlockTask &T : Plan.partition().Tasks)
    Out.push_back(T.Footprint.get());
  return Out;
}

/// Runs \p F's plan from several threads at once, each on its own instance
/// (the service and Engine case), then checks every result and that each
/// task kept the one footprint its plan computed at build.
void expectSharedPlanFillsOnce(const MemoFixture &F, const NativeModule *M) {
  const ParallelPlan &Plan = F.Plan;
  ASSERT_TRUE(Plan.parallelReady());
  EXPECT_EQ(Plan.footprintFallbacks(), 0u);
  const std::vector<const FootprintRuns *> Built = footprintsOf(Plan);
  ProgramInstance Ref = F.Input;
  Plan.runSerial(Ref);

  constexpr unsigned Callers = 4;
  std::vector<ProgramInstance> Insts(Callers, F.Input);
  std::vector<ParallelRunStats> Stats(Callers);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Callers; ++C)
    Threads.emplace_back([&, C] {
      ParallelRunOptions Opts;
      Opts.NumThreads = 2;
      Opts.Native = M;
      Stats[C] = Plan.run(Insts[C], Opts);
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned C = 0; C < Callers; ++C) {
    EXPECT_FALSE(Stats[C].Failed) << C;
    EXPECT_EQ(Stats[C].Mode, ParallelMode::Parallel) << C;
    EXPECT_TRUE(Ref.bitwiseEqual(Insts[C])) << C;
  }

  const std::vector<BlockTask> &Tasks = Plan.partition().Tasks;
  for (uint32_t Id = 0; Id < Tasks.size(); ++Id) {
    const BlockTask &T = Tasks[Id];
    ASSERT_NE(T.Footprint, nullptr) << "task " << Id;
    EXPECT_EQ(T.Footprint.get(), Built[Id]) << "task " << Id;
    // The footprint is exactly what a fresh interpreter walk collects.
    BlockUndoLog Fresh = captureBlockUndo(Plan.nest(), T, Ref);
    BlockUndoLog Memo = captureBlockUndo(Plan.nest(), T, Id, Ref, M);
    EXPECT_EQ(Fresh.runs(), Memo.runs()) << "task " << Id;
    EXPECT_EQ(Fresh.Entries, Memo.Entries) << "task " << Id;
  }
}

TEST(UndoMemo, ConcurrentRunsOfASharedPlanFillEachFootprintOnce) {
  MemoFixture F;
  expectSharedPlanFillsOnce(F, nullptr);
}

TEST(UndoMemo, ConcurrentNativeRunsOfASharedPlanFillEachFootprintOnce) {
  if (!nativeTierAvailable())
    GTEST_SKIP() << "no usable native compiler on this machine";
  MemoFixture F;
  std::shared_ptr<NativeModule> M = compileModuleFor(F.Plan);
  ASSERT_NE(M, nullptr);
  expectSharedPlanFillsOnce(F, M.get());

  // An interpreter-only run after the native ones reads the same
  // footprints: there is one per task, whichever tier runs it.
  const std::vector<const FootprintRuns *> Built = footprintsOf(F.Plan);
  ProgramInstance Inst = F.Input;
  ParallelRunOptions Opts;
  Opts.NumThreads = 2;
  EXPECT_FALSE(F.Plan.run(Inst, Opts).Failed);
  EXPECT_EQ(footprintsOf(F.Plan), Built);
}

TEST_F(IntegrityTest, MemoHitRunsDetectAndRecoverLikeTheFirstRun) {
  // Each injection runs twice on one plan, both reading the footprints
  // the plan computed at build. Detection, recovery, and the result must
  // match.
  struct Case {
    const char *Spec;
    DataVerify Verify;
  };
  const Case Cases[] = {
      {"seed=9;throw@block=2,count=1;corrupt-undo@block=2", DataVerify::Undo},
      {"seed=5;flip@block=1", DataVerify::Block},
      {"seed=5;nan@block=2", DataVerify::Undo},
  };
  std::vector<bool> Tiers{false};
  if (nativeTierAvailable())
    Tiers.push_back(true);
  for (bool Native : Tiers) {
    for (const Case &C : Cases) {
      SCOPED_TRACE(std::string(C.Spec) + (Native ? " native" : ""));
      MemoFixture F;
      ASSERT_TRUE(F.Plan.parallelReady());
      std::shared_ptr<NativeModule> M;
      if (Native) {
        M = compileModuleFor(F.Plan);
        ASSERT_NE(M, nullptr);
      }
      const std::vector<const FootprintRuns *> Built = footprintsOf(F.Plan);
      ParallelRunOptions Opts;
      Opts.NumThreads = 1; // One schedule, so both runs are comparable.
      Opts.VerifyData = C.Verify;
      Opts.Native = M.get();

      std::vector<ProgramInstance> Out(2, F.Input);
      std::vector<ParallelRunStats> Stats(2);
      for (unsigned Run = 0; Run < 2; ++Run) {
        arm(C.Spec);
        if (IsSkipped())
          return;
        Stats[Run] = F.Plan.run(Out[Run], Opts);
      }
      const ParallelRunStats &First = Stats[0], &Hit = Stats[1];
      EXPECT_GE(Hit.Integrity.CorruptionsDetected, 1u);
      EXPECT_EQ(Hit.Failed, First.Failed);
      EXPECT_EQ(Hit.Mode, First.Mode);
      EXPECT_EQ(Hit.Retries, First.Retries);
      EXPECT_EQ(Hit.Integrity.ChecksumsVerified,
                First.Integrity.ChecksumsVerified);
      EXPECT_EQ(Hit.Integrity.CorruptionsDetected,
                First.Integrity.CorruptionsDetected);
      EXPECT_EQ(Hit.Integrity.UndoRefused, First.Integrity.UndoRefused);
      EXPECT_EQ(Hit.Integrity.PoisonedBlocks, First.Integrity.PoisonedBlocks);
      EXPECT_EQ(Hit.Integrity.PristineReplays,
                First.Integrity.PristineReplays);
      EXPECT_TRUE(Out[0].bitwiseEqual(Out[1]));
      ASSERT_EQ(Hit.Diags.size(), First.Diags.size());
      for (std::size_t I = 0; I < Hit.Diags.size(); ++I)
        EXPECT_EQ(Hit.Diags[I].str(), First.Diags[I].str());
      EXPECT_EQ(footprintsOf(F.Plan), Built);
    }
  }
}

} // namespace
