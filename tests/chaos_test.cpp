//===- chaos_test.cpp - Chaos tests for the parallel runtime ------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Deterministic fault-injection tests (ctest label: chaos). Every test arms
// the process-wide FaultInjector with a seeded spec, runs the parallel
// runtime against it, and asserts the recovery contract: the run completes
// (retry or degradation, never a crash or hang), the result is
// bitwise-identical to serial shackled execution, and every injected fault
// is visible in the diagnostics and counters.
//
//===----------------------------------------------------------------------===//

#include "native/NativeJit.h"
#include "parallel/Affinity.h"
#include "parallel/ChaseLevDeque.h"
#include "parallel/ParallelExecutor.h"
#include "parallel/Scheduler.h"
#include "parallel/UndoLog.h"
#include "programs/Benchmarks.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
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

/// Arms the injector in SetUp-compatible form and guarantees it is disarmed
/// when the test ends, so no schedule leaks into the next test.
class ChaosTest : public ::testing::Test {
protected:
  void SetUp() override {
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

bool hasDiag(const std::vector<Diagnostic> &Diags, DiagCode Code) {
  for (const Diagnostic &D : Diags)
    if (D.Code == Code)
      return true;
  return false;
}

/// Builds the plan, runs it under \p Opts with the already-armed injector,
/// and asserts the recovery contract: completion, no Failed flag, and a
/// result bitwise-identical to serial shackled execution.
ParallelRunStats runExpectBitwise(const BenchSpec &Spec,
                                  const ShackleChain &Chain,
                                  std::vector<int64_t> Params,
                                  const ParallelRunOptions &Opts,
                                  const ParallelPlanOptions &PlanOpts =
                                      ParallelPlanOptions()) {
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, Chain, Params, PlanOpts);
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
// Injection-spec parsing
//===----------------------------------------------------------------------===//

TEST_F(ChaosTest, MalformedSpecsAreUsageErrors) {
  FaultInjector &FI = FaultInjector::instance();
  for (const char *Bad :
       {"bogus@spec=1", "throw@block", "throw@block=x", "stall@worker=1,ms=",
        "throw@rate=2.5", "seed", ";;throw@block=1=2", "die@domain=x",
        "die@ms=1"}) {
    Status S = FI.configure(Bad);
    ASSERT_FALSE(S.ok()) << Bad;
    EXPECT_EQ(S.diagnostic().Code, DiagCode::UsageError) << Bad;
    EXPECT_FALSE(FI.armed()) << Bad; // A bad spec must not half-arm.
  }
}

TEST_F(ChaosTest, DisarmSilencesEveryHook) {
  arm("seed=1;throw@any,count=100");
  FaultInjector::instance().disarm();
  EXPECT_FALSE(injectTaskThrow(0));
  EXPECT_EQ(injectWorkerStall(0), 0u);
  EXPECT_FALSE(injectWorkerDeath(0));
  EXPECT_FALSE(injectAllocFail());
  EXPECT_FALSE(injectSolverUnknown());
  EXPECT_EQ(FaultInjector::instance().counters().total(), 0u);
}

TEST_F(ChaosTest, FireBudgetsAreFinite) {
  arm("seed=9;throw@any,count=2");
  EXPECT_TRUE(injectTaskThrow(0));
  EXPECT_TRUE(injectTaskThrow(1));
  EXPECT_FALSE(injectTaskThrow(2)); // Budget exhausted: recovery can finish.
  EXPECT_EQ(FaultInjector::instance().counters().TaskThrows, 2u);
}

//===----------------------------------------------------------------------===//
// Task throw -> rollback-and-retry (across the benchmark schedules)
//===----------------------------------------------------------------------===//

struct ThrowCase {
  const char *Label;
  BenchSpec (*Make)();
  ShackleChain (*Shackle)(const Program &);
  std::vector<int64_t> Params;
};

ShackleChain mmmC8(const Program &P) { return mmmShackleC(P, 8); }
ShackleChain mmmCxA8(const Program &P) { return mmmShackleCxA(P, 8); }
ShackleChain cholStores4(const Program &P) {
  return choleskyShackleStores(P, 4);
}
ShackleChain adi1(const Program &P) { return adiShackle(P); }

const ThrowCase ThrowCases[] = {
    {"matmul-c", makeMatMul, mmmC8, {32}},
    {"matmul-cxa", makeMatMul, mmmCxA8, {24}},
    {"cholesky-stores", makeCholeskyRight, cholStores4, {20}},
    {"adi-fused", makeADI, adi1, {12}},
};

TEST_F(ChaosTest, InjectedThrowIsRecoveredByRetryOnEverySchedule) {
  for (const ThrowCase &C : ThrowCases) {
    arm("seed=5;throw@block=1,count=1");
    BenchSpec Spec = C.Make();
    ParallelRunOptions Opts;
    Opts.NumThreads = 4;
    ParallelRunStats Stats = runExpectBitwise(Spec, C.Shackle(*Spec.Prog),
                                              C.Params, Opts);
    EXPECT_EQ(Stats.Mode, ParallelMode::Parallel) << C.Label;
    EXPECT_GE(Stats.Faults, 1u) << C.Label;
    EXPECT_GE(Stats.Retries, 1u) << C.Label;
    EXPECT_TRUE(hasDiag(Stats.Diags, DiagCode::ParallelFault)) << C.Label;
    ASSERT_GT(Stats.RetriesPerBlock.size(), 1u) << C.Label;
    EXPECT_GE(Stats.RetriesPerBlock[1], 1u) << C.Label;
    EXPECT_EQ(FaultInjector::instance().counters().TaskThrows, 1u) << C.Label;
  }
}

TEST_F(ChaosTest, RateBasedThrowsAreRecoveredDeterministically) {
  // Hash-selected blocks fail on every attempt until the fire budget
  // drains; with MaxRetries >= the total budget no block can exhaust its
  // retries, so all faults are absorbed in place.
  arm("seed=1234;throw@rate=0.5,count=6");
  BenchSpec Spec = makeMatMul();
  ParallelRunOptions Opts;
  Opts.NumThreads = 8;
  Opts.MaxRetries = 6;
  ParallelRunStats Stats =
      runExpectBitwise(Spec, mmmShackleC(*Spec.Prog, 8), {32}, Opts);
  EXPECT_EQ(Stats.Mode, ParallelMode::Parallel);
  EXPECT_GE(Stats.Faults, 1u);
  EXPECT_EQ(Stats.Faults,
            FaultInjector::instance().counters().TaskThrows);
}

TEST_F(ChaosTest, RetryExhaustionDegradesToSerialReplay) {
  // count=3 fires against MaxRetries=1: both parallel attempts of block 2
  // fail, the run quiesces and degrades, and the serial replay (one more
  // fire, then a clean retry) completes the suffix exactly.
  arm("seed=5;throw@block=2,count=3");
  BenchSpec Spec = makeMatMul();
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  Opts.MaxRetries = 1;
  ParallelRunStats Stats =
      runExpectBitwise(Spec, mmmShackleC(*Spec.Prog, 8), {32}, Opts);
  EXPECT_EQ(Stats.Mode, ParallelMode::Degraded);
  EXPECT_EQ(Stats.Abort, DagAbort::TaskFailed);
  EXPECT_GT(Stats.ReplayedSerially, 0u);
  EXPECT_EQ(Stats.Faults, 3u);
  EXPECT_TRUE(hasDiag(Stats.Diags, DiagCode::ParallelFault));
  EXPECT_TRUE(hasDiag(Stats.Diags, DiagCode::ParallelDegrade));
}

TEST_F(ChaosTest, BlockFailingEveryAttemptIncludingReplayFailsTheRun) {
  // The ladder's last control-flow rung: block 2 throws on both parallel
  // attempts (first + one retry) and on both serial-replay attempts, so the
  // run reports Failed with the error diagnostic instead of a result.
  arm("seed=5;throw@block=2,count=4");
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmShackleC(P, 8), {32});
  ASSERT_TRUE(Plan.parallelReady());
  ProgramInstance Inst(P, {32});
  Inst.fillRandom(3, 0.0, 1.0);
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  Opts.MaxRetries = 1;
  ParallelRunStats Stats = Plan.run(Inst, Opts);
  EXPECT_TRUE(Stats.Failed);
  EXPECT_EQ(Stats.Mode, ParallelMode::Degraded);
  EXPECT_EQ(Stats.Faults, 4u);
  bool SawFailedEverywhere = false;
  for (const Diagnostic &D : Stats.Diags)
    SawFailedEverywhere |=
        D.Code == DiagCode::ParallelFault && D.Sev == Severity::Error &&
        D.Message.find("failed every attempt including serial replay") !=
            std::string::npos;
  EXPECT_TRUE(SawFailedEverywhere);
}

//===----------------------------------------------------------------------===//
// Watchdog: stalls, deaths, deadlines
//===----------------------------------------------------------------------===//

TEST_F(ChaosTest, StalledWorkerTripsWatchdogAndDegrades) {
  // One worker, so worker 0 is guaranteed to claim a block and hit the
  // stall (with more workers a loaded machine can let the others finish
  // everything before worker 0 ever claims, and no fault fires).
  arm("seed=3;stall@worker=0,ms=30000");
  BenchSpec Spec = makeCholeskyRight();
  ParallelRunOptions Opts;
  Opts.NumThreads = 1;
  Opts.StallTimeoutMs = 100;
  ParallelRunStats Stats = runExpectBitwise(
      Spec, choleskyShackleStores(*Spec.Prog, 4), {20}, Opts);
  EXPECT_EQ(Stats.Mode, ParallelMode::Degraded);
  EXPECT_EQ(Stats.Abort, DagAbort::Stalled);
  EXPECT_GT(Stats.ReplayedSerially, 0u);
  EXPECT_TRUE(hasDiag(Stats.Diags, DiagCode::ParallelFault));
  EXPECT_TRUE(hasDiag(Stats.Diags, DiagCode::ParallelDegrade));
  EXPECT_EQ(FaultInjector::instance().counters().WorkerStalls, 1u);
}

TEST_F(ChaosTest, DeadWorkerLosesItsTaskButTheRunRecovers) {
  arm("seed=3;die@worker=0");
  BenchSpec Spec = makeCholeskyRight();
  ParallelRunOptions Opts;
  Opts.NumThreads = 1; // Worker 0 must claim; see the stall test above.
  Opts.StallTimeoutMs = 100;
  ParallelRunStats Stats = runExpectBitwise(
      Spec, choleskyShackleStores(*Spec.Prog, 4), {20}, Opts);
  EXPECT_EQ(Stats.Mode, ParallelMode::Degraded);
  EXPECT_EQ(Stats.Abort, DagAbort::Stalled);
  EXPECT_EQ(FaultInjector::instance().counters().WorkerDeaths, 1u);
}

TEST_F(ChaosTest, DomainDeathClauseParsesAndHasAFiniteBudget) {
  arm("seed=1;die@domain=1,count=2");
  EXPECT_FALSE(injectDomainDeath(0)); // Only the named domain dies.
  EXPECT_FALSE(injectWorkerDeath(0)); // Distinct clause, distinct hook.
  EXPECT_TRUE(injectDomainDeath(1));
  EXPECT_TRUE(injectDomainDeath(1));
  EXPECT_FALSE(injectDomainDeath(1)); // Budget exhausted.
  EXPECT_EQ(FaultInjector::instance().counters().DomainDeaths, 2u);
}

TEST_F(ChaosTest, DeadDomainIsDrainedByRemoteStealsAndRecovers) {
  // Kill locality domain 0 (workers 0 and 1 at DomainSize = 2): each dies
  // on its first claim, losing that task. The graph is edge-free, so every
  // task is seeded to its home deque up front, and domain 0's remaining
  // tasks can only be executed by domain 1 workers raiding the dead
  // workers' deques and mailboxes across the domain boundary. The lost
  // claims wedge the pool until the stall watchdog quiesces it; the
  // completion map then names exactly the lost tasks, which a serial
  // replay (the executor's degraded mode) finishes. A single-node machine
  // never splits the executor's pool, so the scheduler is driven directly.
  arm("seed=3;die@domain=0,count=2");
  const std::size_t N = 16;
  std::vector<std::vector<uint32_t>> Succs(N);
  std::vector<uint32_t> InDeg(N, 0);
  AffinityMap Map = buildAffinityMap(N, {}, 4);
  DagRunOptions Opts;
  Opts.NumThreads = 4;
  Opts.DomainSize = 2;
  Opts.Affinity = &Map.Home;
  Opts.StallTimeoutMs = 150;
  std::vector<std::atomic<uint32_t>> Ran(N);
  for (auto &R : Ran)
    R.store(0);
  DagRunResult Result =
      runTaskDagPartial(N, Succs, InDeg, Opts, [&](uint32_t T, unsigned) {
        Ran[T].fetch_add(1);
        return true;
      });
  ASSERT_FALSE(Result.Refused);
  EXPECT_FALSE(Result.Completed);
  EXPECT_EQ(Result.Stats.Abort, DagAbort::Stalled);
  EXPECT_EQ(Result.Stats.NumDomains, 2u);
  // Domain 0 homes 8 tasks; at most two are lost to the deaths and no
  // domain-0 worker can run the rest (a claim kills), so the survivors
  // must have pulled at least two across the boundary.
  EXPECT_GE(Result.Stats.RemoteSteals, 2u);
  uint64_t Deaths = FaultInjector::instance().counters().DomainDeaths;
  EXPECT_GE(Deaths, 1u);

  // Recovery: exactly the claims that died are unfinished, and replaying
  // them runs every task exactly once.
  uint64_t Unfinished = 0;
  for (std::size_t T = 0; T < N; ++T)
    if (!Result.TaskDone[T]) {
      ++Unfinished;
      EXPECT_EQ(Ran[T].load(), 0u) << "task " << T;
      Ran[T].fetch_add(1);
    }
  EXPECT_EQ(Unfinished, Deaths);
  for (std::size_t T = 0; T < N; ++T)
    EXPECT_EQ(Ran[T].load(), 1u) << "task " << T;
}

TEST_F(ChaosTest, DeadlineExpiryDegradesAndStillFinishesExactly) {
  arm("seed=3;stall@worker=0,ms=30000");
  BenchSpec Spec = makeCholeskyRight();
  ParallelRunOptions Opts;
  Opts.NumThreads = 1; // Worker 0 must claim; see the stall test above.
  Opts.DeadlineMs = 80;
  // No explicit stall timeout: the injector-armed default must not preempt
  // a deadline this short (it is clamped above DeadlineMs by construction).
  ParallelRunStats Stats = runExpectBitwise(
      Spec, choleskyShackleStores(*Spec.Prog, 4), {20}, Opts);
  EXPECT_EQ(Stats.Mode, ParallelMode::Degraded);
  EXPECT_EQ(Stats.Abort, DagAbort::Deadline);
  EXPECT_TRUE(hasDiag(Stats.Diags, DiagCode::ParallelDegrade));
}

//===----------------------------------------------------------------------===//
// Hierarchical outer tasks under injection
//===----------------------------------------------------------------------===//

/// True when some diag's message contains \p MsgSub and one of that diag's
/// notes contains \p NoteSub.
bool diagNoteContains(const std::vector<Diagnostic> &Diags,
                      const std::string &MsgSub, const std::string &NoteSub) {
  for (const Diagnostic &D : Diags)
    if (D.Message.find(MsgSub) != std::string::npos)
      for (const Diagnostic &Note : D.Notes)
        if (Note.Message.find(NoteSub) != std::string::npos)
          return true;
  return false;
}

TEST(HierarchicalUndo, FootprintIsTheWholeOuterBlock) {
  // The rollback granularity of a hierarchical plan is the outer block:
  // the undo log snapshots every element the task's segments (all inner
  // levels included) can write, not one inner block.
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ShackleChain Chain = mmmShackleTwoLevel(P, 8, 4);
  ProgramInstance Inst(P, {16});
  Inst.fillRandom(3, 0.0, 1.0);

  ParallelPlanOptions Hier;
  Hier.TaskLevel = 2;
  ParallelPlan HPlan = ParallelPlan::build(P, Chain, {16}, Hier);
  ASSERT_TRUE(HPlan.parallelReady());
  BlockUndoLog HUndo =
      captureBlockUndo(HPlan.nest(), HPlan.partition().Tasks[0], Inst);
  EXPECT_EQ(HUndo.Entries.size(), 64u); // One 8x8 outer block of C.

  ParallelPlan FPlan = ParallelPlan::build(P, Chain, {16});
  ASSERT_TRUE(FPlan.parallelReady());
  BlockUndoLog FUndo =
      captureBlockUndo(FPlan.nest(), FPlan.partition().Tasks[0], Inst);
  EXPECT_EQ(FUndo.Entries.size(), 16u); // One 4x4 inner block of C.
}

TEST_F(ChaosTest, HierarchicalThrowRollsBackTheWholeOuterTask) {
  arm("seed=5;throw@block=1,count=1");
  BenchSpec Spec = makeMatMul();
  ParallelPlanOptions PlanOpts;
  PlanOpts.TaskLevel = 2;
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  ParallelRunStats Stats = runExpectBitwise(
      Spec, mmmShackleTwoLevel(*Spec.Prog, 8, 4), {16}, Opts, PlanOpts);
  EXPECT_EQ(Stats.Mode, ParallelMode::Parallel);
  EXPECT_GE(Stats.Faults, 1u);
  EXPECT_GE(Stats.Retries, 1u);
  EXPECT_TRUE(hasDiag(Stats.Diags, DiagCode::ParallelFault));
  // Stats count outer tasks: 8 at N=16 (4 C outer blocks x 2 A column
  // groups), each replaying several inner segments serially.
  EXPECT_EQ(Stats.TaskFactors, 2u);
  EXPECT_EQ(Stats.TotalFactors, 4u);
  EXPECT_EQ(Stats.BlocksRun, 8u);
  EXPECT_GE(Stats.SegmentsRun, Stats.BlocksRun);
  ASSERT_EQ(Stats.RetriesPerBlock.size(), 8u);
  EXPECT_GE(Stats.RetriesPerBlock[1], 1u);
  // The rollback restored the outer task's whole footprint - the full 8x8
  // outer block of C (64 elements), not one 4x4 inner block.
  EXPECT_TRUE(diagNoteContains(Stats.Diags, "outer task #1",
                               "rolled back (64 element(s))"))
      << "no outer-granularity rollback note found";
}

TEST_F(ChaosTest, HierarchicalStallDegradesToBitwiseSerialReplay) {
  // One worker so worker 0 is guaranteed to claim an outer task and hit
  // the stall; the watchdog quiesces and the unfinished outer tasks are
  // replayed serially - still bitwise-identical.
  arm("seed=3;stall@worker=0,ms=30000");
  BenchSpec Spec = makeCholeskyRight();
  ParallelPlanOptions PlanOpts;
  PlanOpts.TaskLevel = 1;
  ParallelRunOptions Opts;
  Opts.NumThreads = 1;
  Opts.StallTimeoutMs = 100;
  ParallelRunStats Stats =
      runExpectBitwise(Spec, choleskyShackleProduct(*Spec.Prog, 4, true),
                       {20}, Opts, PlanOpts);
  EXPECT_EQ(Stats.Mode, ParallelMode::Degraded);
  EXPECT_EQ(Stats.Abort, DagAbort::Stalled);
  EXPECT_GT(Stats.ReplayedSerially, 0u);
  EXPECT_EQ(Stats.TaskFactors, 1u);
  EXPECT_EQ(Stats.TotalFactors, 2u);
  EXPECT_TRUE(hasDiag(Stats.Diags, DiagCode::ParallelDegrade));
}

TEST_F(ChaosTest, HierarchicalDeadlineDegradesBitwise) {
  arm("seed=3;stall@worker=0,ms=30000");
  BenchSpec Spec = makeMatMul();
  ParallelPlanOptions PlanOpts;
  PlanOpts.TaskLevel = 2;
  ParallelRunOptions Opts;
  Opts.NumThreads = 1; // Worker 0 must claim; see the stall test above.
  Opts.DeadlineMs = 80;
  ParallelRunStats Stats = runExpectBitwise(
      Spec, mmmShackleTwoLevel(*Spec.Prog, 8, 4), {16}, Opts, PlanOpts);
  EXPECT_EQ(Stats.Mode, ParallelMode::Degraded);
  EXPECT_EQ(Stats.Abort, DagAbort::Deadline);
  EXPECT_TRUE(hasDiag(Stats.Diags, DiagCode::ParallelDegrade));
}

//===----------------------------------------------------------------------===//
// Allocation failure in deque growth
//===----------------------------------------------------------------------===//

TEST_F(ChaosTest, DequeSurvivesBadAllocDuringGrowth) {
  arm("alloc-fail@grow=1,count=1");
  ChaseLevDeque<int> D(2); // Capacity 2: the third push must grow.
  EXPECT_TRUE(D.push(10));
  EXPECT_TRUE(D.push(11));
  EXPECT_FALSE(D.push(12)); // Growth threw; item rejected, deque intact.
  EXPECT_EQ(FaultInjector::instance().counters().AllocFails, 1u);

  int V = -1;
  ASSERT_TRUE(D.steal(V));
  EXPECT_EQ(V, 10); // The failed push corrupted nothing.
  ASSERT_TRUE(D.pop(V));
  EXPECT_EQ(V, 11);
  EXPECT_FALSE(D.pop(V));

  // The budget is spent: the next growth succeeds and service resumes.
  for (int I = 0; I < 100; ++I)
    EXPECT_TRUE(D.push(I));
  int Count = 0;
  while (D.pop(V))
    ++Count;
  EXPECT_EQ(Count, 100);
}

TEST_F(ChaosTest, DequeBadAllocMidStealKeepsThievesConsistent) {
  // A thief races the owner while every growth attempt fails: items already
  // published must each be taken exactly once, rejected pushes never appear.
  arm("alloc-fail@grow=1,count=1000000");
  ChaseLevDeque<int> D(4);
  const int Tries = 20000;
  std::vector<std::atomic<uint8_t>> Taken(Tries);
  for (auto &T : Taken)
    T.store(0);
  std::atomic<bool> Stop{false};
  std::thread Thief([&] {
    int V = -1;
    while (!Stop.load(std::memory_order_acquire))
      if (D.steal(V))
        Taken[V].fetch_add(1);
  });
  int Accepted = 0, Rejected = 0;
  std::vector<uint8_t> Pushed(Tries, 0);
  for (int I = 0; I < Tries; ++I) {
    if (D.push(I)) {
      Pushed[I] = 1;
      ++Accepted;
    } else {
      ++Rejected;
    }
  }
  int V = -1;
  while (D.pop(V))
    Taken[V].fetch_add(1);
  for (int Spin = 0; Spin < 1000000 && D.sizeEstimate() > 0; ++Spin)
    std::this_thread::yield();
  Stop.store(true, std::memory_order_release);
  Thief.join();

  EXPECT_GT(Rejected, 0); // The schedule really exercised failed growth.
  EXPECT_GT(Accepted, 0);
  for (int I = 0; I < Tries; ++I)
    EXPECT_EQ(Taken[I].load(), Pushed[I]) << "item " << I;
}

TEST_F(ChaosTest, SchedulerOverflowQueueLosesNoTaskWhenGrowthFails) {
  // A root task releases thousands of successors at once; with every deque
  // growth failing, the hand-offs divert to the overflow queue and the run
  // still executes every task exactly once.
  arm("alloc-fail@grow=1,count=1000000");
  const std::size_t N = 5001;
  std::vector<std::vector<uint32_t>> Succs(N);
  for (uint32_t V = 1; V < N; ++V)
    Succs[0].push_back(V);
  std::vector<uint32_t> InDeg(N, 1);
  InDeg[0] = 0;
  std::vector<std::atomic<uint32_t>> Ran(N);
  for (auto &R : Ran)
    R.store(0);
  DagRunOptions Opts;
  Opts.NumThreads = 4;
  DagRunResult Result = runTaskDagPartial(
      N, Succs, InDeg, Opts, [&](uint32_t T, unsigned) {
        Ran[T].fetch_add(1);
        return true;
      });
  ASSERT_FALSE(Result.Refused);
  EXPECT_TRUE(Result.Completed);
  EXPECT_GT(Result.Stats.OverflowPushes, 0u);
  EXPECT_GT(FaultInjector::instance().counters().AllocFails, 0u);
  for (std::size_t T = 0; T < N; ++T)
    ASSERT_EQ(Ran[T].load(), 1u) << "task " << T;
}

//===----------------------------------------------------------------------===//
// Solver-budget exhaustion during DAG construction
//===----------------------------------------------------------------------===//

TEST_F(ChaosTest, SolverUnknownPoisonsGraphIntoSerialFallback) {
  // Unknown feasibility verdicts make the sign-pattern set unsound for
  // scheduling; the plan must refuse parallelism, diagnose the fallback,
  // and still compute exact results. The injector is armed before build()
  // because the queries run during DAG construction.
  arm("solver-unknown@query=1,count=1000000");
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan =
      ParallelPlan::build(P, choleskyShackleStores(P, 4), {20});
  EXPECT_GT(FaultInjector::instance().counters().SolverUnknowns, 0u);
  EXPECT_FALSE(Plan.parallelReady()) << Plan.summary();
  EXPECT_TRUE(hasDiag(Plan.diags(), DiagCode::ParallelFallback));

  FaultInjector::instance().disarm(); // Execution itself runs clean.
  ProgramInstance Ref(P, {20}), Par(P, {20});
  Ref.fillRandom(77, 0.5, 1.5);
  for (double &V : Ref.buffer(0))
    V += 1.0;
  Par.buffer(0) = Ref.buffer(0);
  Plan.runSerial(Ref);
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  ParallelRunStats Stats = Plan.run(Par, Opts);
  EXPECT_EQ(Stats.Mode, ParallelMode::SerialFallback);
  EXPECT_TRUE(Ref.bitwiseEqual(Par));
}

//===----------------------------------------------------------------------===//
// End-to-end through the CLI
//===----------------------------------------------------------------------===//

TEST_F(ChaosTest, CliChaosRunRecoversAndVerifiesBitwise) {
  auto [Rc, Out] =
      runCli("run matmul c --params=32 --block=8 --threads=4 "
             "--inject='seed=7;throw@block=2,count=1' --verify");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("[parallel-fault]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("recovered"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

TEST_F(ChaosTest, CliChaosDegradeStillExitsZeroAndVerifies) {
  auto [Rc, Out] =
      runCli("run matmul c --params=32 --block=8 --threads=4 --max-retries=1 "
             "--inject='seed=7;throw@block=2,count=3' --verify");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("[parallel-degrade]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("mode=degraded"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

TEST_F(ChaosTest, CliBlockFailingEveryAttemptExitsOneAsUnreliable) {
  auto [Rc, Out] =
      runCli("run matmul c --params=32 --block=8 --threads=4 --max-retries=1 "
             "--inject='seed=5;throw@block=2,count=4'");
  EXPECT_EQ(Rc, 1) << Out;
  EXPECT_NE(Out.find("results are unreliable"), std::string::npos) << Out;
}

TEST_F(ChaosTest, CliHierarchicalChaosRunRecoversAtOuterGranularity) {
  auto [Rc, Out] =
      runCli("run matmul two-level --params=16 --block=8 --threads=4 "
             "--task-level=2 --inject='seed=7;throw@block=1,count=1' "
             "--verify");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("[parallel-fault]"), std::string::npos) << Out;
  // Diagnostics and retry stats speak in outer tasks, not inner blocks.
  EXPECT_NE(Out.find("outer task"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("block #"), std::string::npos) << Out;
  EXPECT_NE(Out.find("recovered"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

TEST_F(ChaosTest, CliRejectsMalformedInjectSpec) {
  // Exit 2 (illegal spec, not a usage slip) with a line/col diagnostic: a
  // typo here must never silently run without faults.
  auto [Rc, Out] = runCli("run matmul c --params=16 --inject='bogus@x=1'");
  EXPECT_EQ(Rc, 2) << Out;
  EXPECT_NE(Out.find("usage-error"), std::string::npos) << Out;
  EXPECT_NE(Out.find("col 1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("grammar"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Native-tier chaos (label "native" battery's recovery half lives here):
// the same injected faults, but with blocks dispatched to JIT-compiled
// kernels. Rollback, retry, degradation, and the compile-failure fallback
// must all behave exactly as the interpreted tier does.
//===----------------------------------------------------------------------===//

/// Compiles a native module with one kernel per task of \p Plan.
/// Null means the tier is unavailable on this machine (callers skip).
std::shared_ptr<NativeModule> compileModuleFor(const ParallelPlan &Plan) {
  // SIMD routing pinned off: these tests assert bitwise agreement with the
  // serial interpreter, and the vector kernels use FMA (opt-in ULP policy,
  // covered by the simd suite). Scalar routing keeps the reduction order.
  NativeJitOptions Opts;
  Opts.Simd = SimdMode::Off;
  std::vector<Diagnostic> Diags;
  return NativeModule::compile(Plan.nest(), Plan.partition(), Opts, Diags);
}

TEST_F(ChaosTest, InjectedThrowUnderNativeRollsBackBitwise) {
  if (!nativeTierAvailable())
    GTEST_SKIP() << "no usable native compiler on this machine";
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmCxA8(P), {24});
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  std::shared_ptr<NativeModule> M = compileModuleFor(Plan);
  ASSERT_NE(M, nullptr);

  arm("seed=5;throw@block=1,count=1");
  ProgramInstance Ref(P, {24});
  Ref.fillRandom(77, 0.5, 1.5);
  ProgramInstance Par = Ref;
  Plan.runSerial(Ref);
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  Opts.Native = M.get();
  ParallelRunStats Stats = Plan.run(Par, Opts);
  EXPECT_FALSE(Stats.Failed);
  EXPECT_EQ(Stats.Mode, ParallelMode::Parallel);
  EXPECT_GT(Stats.NativeSegments, 0u);
  EXPECT_GE(Stats.Faults, 1u);
  EXPECT_GE(Stats.Retries, 1u);
  // The retried attempt re-runs natively and commits the same bits the
  // interpreter would: the undo log is engine-agnostic.
  EXPECT_TRUE(Ref.bitwiseEqual(Par));
  EXPECT_TRUE(hasDiag(Stats.Diags, DiagCode::ParallelFault));
}

TEST_F(ChaosTest, RetryExhaustionUnderNativeDegradesToInterpretedReplay) {
  if (!nativeTierAvailable())
    GTEST_SKIP() << "no usable native compiler on this machine";
  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlan Plan = ParallelPlan::build(P, mmmC8(P), {32});
  ASSERT_TRUE(Plan.parallelReady()) << Plan.summary();
  std::shared_ptr<NativeModule> M = compileModuleFor(Plan);
  ASSERT_NE(M, nullptr);

  arm("seed=5;throw@block=2,count=3");
  ProgramInstance Ref(P, {32});
  Ref.fillRandom(77, 0.5, 1.5);
  ProgramInstance Par = Ref;
  Plan.runSerial(Ref);
  ParallelRunOptions Opts;
  Opts.NumThreads = 4;
  Opts.MaxRetries = 1;
  Opts.Native = M.get();
  ParallelRunStats Stats = Plan.run(Par, Opts);
  EXPECT_FALSE(Stats.Failed);
  EXPECT_EQ(Stats.Mode, ParallelMode::Degraded);
  EXPECT_GT(Stats.ReplayedSerially, 0u);
  // The degraded replay is the fallback ladder's bottom rung: it always
  // interprets, so the replayed blocks run outside the native counters.
  EXPECT_LT(Stats.NativeSegments + Stats.InterpSegments, Stats.SegmentsRun);
  EXPECT_TRUE(Ref.bitwiseEqual(Par));
  EXPECT_TRUE(hasDiag(Stats.Diags, DiagCode::ParallelDegrade));
}

TEST_F(ChaosTest, CliInjectedCompilerFailureFallsBackAndVerifies) {
  auto [Rc, Out] =
      runCli("run matmul cxa --params=24 --block=8 --threads=4 "
             "--native=task --task-level=0 "
             "--inject='seed=7;cc-fail@native,count=1' "
             "--verify");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("native-fallback"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

TEST_F(ChaosTest, CliInjectedDlsymFailureFallsBackAndVerifies) {
  auto [Rc, Out] =
      runCli("run matmul cxa --params=24 --block=8 --threads=4 "
             "--native=task --task-level=0 "
             "--inject='seed=7;dlsym-fail@native,count=1' "
             "--verify");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("native-fallback"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

} // namespace
