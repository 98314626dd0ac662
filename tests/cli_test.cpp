//===- cli_test.cpp - The shackle command-line driver --------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of the `shackle` binary (path injected by CMake),
// including the DSL front-end path through a temp file.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

#ifndef SHACKLE_CLI_PATH
#error "SHACKLE_CLI_PATH must be defined by the build"
#endif

/// Runs \p Cmd through the shell; returns (exit code, stdout and stderr).
std::pair<int, std::string> runShell(const std::string &Cmd) {
  std::FILE *Pipe = popen((Cmd + " 2>&1").c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  std::string Out;
  char Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Out.append(Buf, Got);
  int Status = pclose(Pipe);
  return {WEXITSTATUS(Status), Out};
}

/// Runs the CLI with \p Args; returns (exit code, stdout and stderr).
std::pair<int, std::string> runCli(const std::string &Args) {
  return runShell(std::string(SHACKLE_CLI_PATH) + " " + Args);
}

TEST(Cli, ListShowsBenchmarks) {
  auto [Rc, Out] = runCli("list");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("cholesky-right"), std::string::npos);
  EXPECT_NE(Out.find("matmul"), std::string::npos);
}

TEST(Cli, CodegenPrintsBlockedLoops) {
  auto [Rc, Out] = runCli("codegen matmul cxa --block=25");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("do b1 = 0 .. floor((N - 1)/25)"), std::string::npos)
      << Out;
}

TEST(Cli, LegalityExitCodesDistinguishVerdicts) {
  EXPECT_EQ(runCli("legality cholesky-right stores").first, 0);
  EXPECT_EQ(runCli("legality matmul c").first, 0);
}

TEST(Cli, CensusReportsSixVerdictsWithWitnesses) {
  auto [Rc, Out] = runCli("census");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("LEGAL"), std::string::npos);
  EXPECT_NE(Out.find("illegal"), std::string::npos);
  EXPECT_NE(Out.find("must precede"), std::string::npos);
}

TEST(Cli, DepsPrintsDirectionVectors) {
  auto [Rc, Out] = runCli("deps matmul");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("(=,=,<)"), std::string::npos) << Out;
}

TEST(Cli, UnknownBenchmarkFailsWithMessage) {
  auto [Rc, Out] = runCli("print nosuchthing");
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("unknown benchmark"), std::string::npos);
}

TEST(Cli, RunVerifiesParallelExecutionBitwise) {
  auto [Rc, Out] = runCli("run matmul c --params=24 --block=8 --threads=4 "
                          "--verify");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("mode=parallel"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

TEST(Cli, RunStrictRefusesSerialFallbackWithExit1) {
  // Seidel's shackle is illegal, so the plan is never parallel-ready;
  // --strict turns the silent fallback into a refusal.
  auto [Rc, Out] =
      runCli("run seidel blocks --params=24,3 --threads=4 --strict");
  EXPECT_EQ(Rc, 1) << Out;
  EXPECT_NE(Out.find("[parallel-fallback]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("refusing serial fallback"), std::string::npos) << Out;
}

TEST(Cli, RunSolverBudgetFallbackStillExecutesWithExit0) {
  auto [Rc, Out] = runCli("run cholesky-right stores --params=16 --block=4 "
                          "--threads=4 --solver-budget=5 --verify");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("[parallel-fallback]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("mode=serial-fallback"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

TEST(Cli, RunTaskLevelReportsOuterTasksNotInnerBlocks) {
  auto [Rc, Out] = runCli("run matmul two-level --params=16 --block=8 "
                          "--threads=4 --task-level=2 --verify");
  EXPECT_EQ(Rc, 0) << Out;
  // The plan summary and run report speak in outer tasks (the rollback /
  // retry / progress unit), never inner block visits.
  EXPECT_NE(Out.find("task-level=2/4"), std::string::npos) << Out;
  EXPECT_NE(Out.find("outer task(s) over 2 of 4 chain factor(s)"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("ran 8 outer task(s) [task-level 2/4"),
            std::string::npos)
      << Out;
  EXPECT_EQ(Out.find("block task(s)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

TEST(Cli, RunTaskLevelAutoPicksACoarseLevel) {
  auto [Rc, Out] = runCli("run matmul two-level --params=32 --block=8 "
                          "--threads=4 --task-level=auto --verify");
  EXPECT_EQ(Rc, 0) << Out;
  // Auto stops at level 1: C's outer blocks alone already give 16 tasks,
  // enough for 4 threads.
  EXPECT_NE(Out.find("task-level=1/4"), std::string::npos) << Out;
  EXPECT_NE(Out.find("outer task(s)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
}

TEST(Cli, RunFlatKeepsBlockTaskWording) {
  auto [Rc, Out] =
      runCli("run matmul c --params=24 --block=8 --threads=4 --verify");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("block task(s)"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("outer task"), std::string::npos) << Out;
}

TEST(Cli, RunRejectsMalformedTaskLevel) {
  auto [Rc, Out] =
      runCli("run matmul two-level --params=16 --task-level=banana");
  EXPECT_EQ(Rc, 1) << Out;
  EXPECT_NE(Out.find("usage-error"), std::string::npos) << Out;
  EXPECT_NE(Out.find("--task-level"), std::string::npos) << Out;
}

TEST(Cli, RunRejectsMalformedInjectSpecWithExit2AndColumn) {
  // A typo in --inject must never silently run without faults: exit 2
  // (illegal spec, same class as an illegal shackle) and a diagnostic
  // pointing at the offending clause's column within the spec string.
  auto [Rc, Out] = runCli(
      "run matmul c --params=16 --inject='seed=3;flip@blk=2'");
  EXPECT_EQ(Rc, 2) << Out;
  EXPECT_NE(Out.find("col 8"), std::string::npos) << Out;
  EXPECT_NE(Out.find("flip@blk=2"), std::string::npos) << Out;
  EXPECT_NE(Out.find("grammar"), std::string::npos) << Out;
}

TEST(Cli, RunRejectsMalformedVerifyData) {
  // 'off' is no level: every parallel run takes the integrity ladder.
  for (const char *Level : {"banana", "off"}) {
    auto [Rc, Out] = runCli(
        std::string("run matmul c --params=16 --verify-data=") + Level);
    EXPECT_EQ(Rc, 1) << Level << "\n" << Out;
    EXPECT_NE(Out.find("usage-error"), std::string::npos) << Out;
    EXPECT_NE(Out.find("--verify-data"), std::string::npos) << Out;
  }
}

TEST(Cli, RejectsUnknownFlags) {
  // A misspelt flag must never run silently with its default; neither may
  // a flag of a policy the runtime no longer has, nor a removed alias.
  for (const char *Flag :
       {"--threds=2", "--placement=round-robin", "--domain-size=2",
        "--steal-remote-after=0", "--random-steal", "--steal-seed=7",
        "--first-touch", "--paranoia", "--native-simd=off"}) {
    auto [Rc, Out] =
        runCli(std::string("run matmul c --block=16 --params=48 ") + Flag);
    std::string Name(Flag, std::strcspn(Flag, "="));
    EXPECT_EQ(Rc, 1) << Flag << "\n" << Out;
    EXPECT_NE(Out.find("error: [usage-error] unknown flag '" + Name +
                       "' for 'run'"),
              std::string::npos)
        << Out;
    EXPECT_EQ(Out.find("ran "), std::string::npos) << Out;
  }
  // Each action has its own list: a run flag is unknown to codegen.
  auto [Rc, Out] = runCli("codegen matmul c --block=16 --threads=2");
  EXPECT_EQ(Rc, 1) << Out;
  EXPECT_NE(Out.find("unknown flag '--threads' for 'codegen'"),
            std::string::npos)
      << Out;
}

TEST(Cli, RejectsMalformedFlagValues) {
  // A numeric value that is not a whole base-10 integer, or a switch given
  // a value, must never run with a default or a truncated number.
  for (const char *Flags :
       {"--params=16 --threads=four", "--params=16x", "--params=16,,8",
        "--params=16,", "--params=16 --verify=yes", "--params=16 --threads",
        "--block=8x --params=16", "--params=16 --max-retries=1.5",
        "--params=99999999999999999999"}) {
    auto [Rc, Out] = runCli(std::string("run matmul c --block=8 ") + Flags);
    EXPECT_EQ(Rc, 1) << Flags << "\n" << Out;
    EXPECT_NE(Out.find("error: [usage-error] --"), std::string::npos) << Out;
    EXPECT_EQ(Out.find("ran "), std::string::npos) << Out;
  }
  auto [Rc, Out] = runCli("run matmul c --block=8 --params=16 --threads=four");
  EXPECT_NE(Out.find("--threads expects a whole base-10 integer, got 'four'"),
            std::string::npos)
      << Out;
  auto [VRc, VOut] = runCli("run matmul c --block=8 --params=16 --verify=yes");
  EXPECT_NE(VOut.find("--verify takes no value"), std::string::npos) << VOut;
  // Signed values still parse (and clamp as before).
  auto [NRc, NOut] =
      runCli("run matmul c --block=8 --params=16 --max-retries=-1");
  EXPECT_EQ(NRc, 0) << NOut;
}

class CliFile : public ::testing::Test {
protected:
  void SetUp() override {
    Path = ::testing::TempDir() + "cli_test_prog.dsl";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    const char *Src = "param N\n"
                      "array A[N][N] colmajor\n"
                      "do J = 0, N-1\n"
                      "  S1: A[J][J] = sqrt(A[J][J])\n"
                      "  do I = J+1, N-1\n"
                      "    S2: A[I][J] = A[I][J] / A[J][J]\n"
                      "  end\n"
                      "  do L = J+1, N-1\n"
                      "    do K = J+1, L\n"
                      "      S3: A[L][K] = A[L][K] - A[L][J]*A[K][J]\n"
                      "    end\n"
                      "  end\n"
                      "end\n";
    std::fputs(Src, F);
    std::fclose(F);
  }

  std::string Path;
};

TEST_F(CliFile, PrintRoundTrips) {
  auto [Rc, Out] = runCli("file " + Path + " print");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("do J = 0 .. N - 1"), std::string::npos) << Out;
}

TEST_F(CliFile, LegalityAndCodegenOnParsedProgram) {
  auto [Rc, Out] =
      runCli("file " + Path + " legality --array=A --block=8,8");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("legal"), std::string::npos);

  auto [Rc2, Out2] =
      runCli("file " + Path + " codegen --array=A --block=8,8");
  EXPECT_EQ(Rc2, 0);
  EXPECT_NE(Out2.find("do b1"), std::string::npos) << Out2;
}

TEST_F(CliFile, OrderAcceptsOnlyColblocks) {
  auto [Rc, Out] = runCli("file " + Path +
                          " codegen --array=A --block=8,8 --order=colblocks");
  EXPECT_EQ(Rc, 0) << Out;
  for (const char *Bad : {"--order=rowblockz", "--order=", "--order"}) {
    auto [BadRc, BadOut] =
        runCli("file " + Path + " codegen --array=A --block=8,8 " + Bad);
    EXPECT_EQ(BadRc, 1) << Bad << "\n" << BadOut;
    EXPECT_NE(BadOut.find("usage-error"), std::string::npos) << BadOut;
    EXPECT_EQ(BadOut.find("do b1"), std::string::npos) << BadOut;
  }
}

TEST_F(CliFile, ReversedWalkIsRejectedWithCounterexample) {
  auto [Rc, Out] =
      runCli("file " + Path + " legality --array=A --block=4,4 --reversed");
  EXPECT_EQ(Rc, 2);
  EXPECT_NE(Out.find("illegal"), std::string::npos);
  EXPECT_NE(Out.find("must precede"), std::string::npos);
}

TEST_F(CliFile, ParseErrorsAreReportedWithLine) {
  std::string Bad = ::testing::TempDir() + "cli_test_bad.dsl";
  std::FILE *F = std::fopen(Bad.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fputs("param N\narray A[N]\ndo i = 0, N-1\nA[i] = 1\n", F);
  std::fclose(F);
  auto [Rc, Out] = runCli("file " + Bad + " print");
  EXPECT_EQ(Rc, 3);
  EXPECT_NE(Out.find("line"), std::string::npos) << Out;
  EXPECT_NE(Out.find("parse-error"), std::string::npos) << Out;
}

TEST_F(CliFile, StrayCharacterReportsLineAndColumnWithExit3) {
  std::string Bad = ::testing::TempDir() + "cli_test_stray.dsl";
  std::FILE *F = std::fopen(Bad.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fputs("param N\narray A[N]\ndo i = 0, N-1\n  A[i] = 1 @ 2\nend\n", F);
  std::fclose(F);
  auto [Rc, Out] = runCli("file " + Bad + " print");
  EXPECT_EQ(Rc, 3);
  EXPECT_NE(Out.find("line 4"), std::string::npos) << Out;
  EXPECT_NE(Out.find("col"), std::string::npos) << Out;
  EXPECT_NE(Out.find("unexpected character '@'"), std::string::npos) << Out;
}

TEST_F(CliFile, MissingArrayFlagIsUsageErrorExit1) {
  auto [Rc, Out] = runCli("file " + Path + " codegen --block=8,8");
  EXPECT_EQ(Rc, 1);
  EXPECT_NE(Out.find("usage-error"), std::string::npos) << Out;
}

TEST_F(CliFile, MismatchedShackleArrayIsReportedNotAborted) {
  // --array=B is not declared by the program: a structured error, never a
  // crash/abort.
  auto [Rc, Out] = runCli("file " + Path + " codegen --array=B --block=8,8");
  EXPECT_EQ(Rc, 1);
  EXPECT_NE(Out.find("error"), std::string::npos) << Out;
}

TEST_F(CliFile, TinySolverBudgetMakesLegalityUndecidedExit4) {
  auto [Rc, Out] = runCli("file " + Path +
                          " legality --array=A --block=8,8 --solver-budget=5");
  EXPECT_EQ(Rc, 4);
  EXPECT_NE(Out.find("legality-unknown"), std::string::npos) << Out;
  EXPECT_NE(Out.find("budget"), std::string::npos) << Out;
}

TEST_F(CliFile, TinySolverBudgetCodegenFallsBackToOriginal) {
  auto [Rc, Out] = runCli("file " + Path +
                          " codegen --array=A --block=8,8 --solver-budget=5");
  // Fallback still emits runnable (original) code and exits 0.
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("codegen tier: original"), std::string::npos) << Out;
  EXPECT_NE(Out.find("falling back"), std::string::npos) << Out;
  EXPECT_NE(Out.find("do J = 0 .. N - 1"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("do b1"), std::string::npos) << Out;
}

/// `emit` prints a complete C11 unit (the one preamble, the kernel and the
/// name lookup), so the C compiler takes it as it is. -fopenmp-simd is the
/// flag every emitted unit is built with; it honours the `omp simd` marks.
TEST_F(CliFile, EmitPrintsACompilableC11Unit) {
  if (runShell("echo 'int x;' | cc -x c -std=c11 -c -o /dev/null -").first)
    GTEST_SKIP() << "no C compiler runs";
  const std::string Unit = ::testing::TempDir() + "cli_test_emit.c";
  for (const std::string &Args :
       {std::string("emit cholesky-right product-wr --block=16"),
        "file " + Path + " emit --array=A --block=8,8 --name=chol"}) {
    const std::string Emit = std::string(SHACKLE_CLI_PATH) + " " + Args;
    ASSERT_EQ(runShell("(" + Emit + " >" + Unit + " 2>/dev/null)").first, 0)
        << Args;
    auto [Rc, Out] = runShell("cc -x c -std=c11 -fopenmp-simd -Wall -Werror "
                              "-c -o /dev/null " +
                              Unit);
    EXPECT_EQ(Rc, 0) << Args << ":\n" << Out;
  }
  std::remove(Unit.c_str());
}

TEST_F(CliFile, StrictRefusesFallbackTiers) {
  auto [Rc, Out] =
      runCli("file " + Path +
             " codegen --array=A --block=8,8 --solver-budget=5 --strict");
  EXPECT_EQ(Rc, 4);
  EXPECT_NE(Out.find("refusing to emit"), std::string::npos) << Out;
  // And a healthy run is unaffected by --strict.
  auto [Rc2, Out2] =
      runCli("file " + Path + " codegen --array=A --block=8,8 --strict");
  EXPECT_EQ(Rc2, 0);
  EXPECT_NE(Out2.find("codegen tier: shackled"), std::string::npos) << Out2;
  EXPECT_NE(Out2.find("do b1"), std::string::npos) << Out2;
}

} // namespace
