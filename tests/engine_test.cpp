//===- engine_test.cpp - The shared resolve/plan/run pipeline ----------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// resolveProgram and Engine::run are the one pipeline behind `shackle run`
// and ServiceCore. These tests hold the two front ends to it: the same
// request gives the same result checksum through either, registry and DSL
// sources of one program share a plan key, concurrent callers share one
// plan build, and the factorizations run on well-posed (SPD) inputs.
//
//===----------------------------------------------------------------------===//

#include "service/Engine.h"
#include "service/Service.h"

#include <gtest/gtest.h>

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
#ifndef SHACKLE_SOURCE_DIR
#error "SHACKLE_SOURCE_DIR must be defined by the build"
#endif

/// Runs the CLI with \p Args; returns (exit code, stdout + stderr).
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

std::string example(const std::string &Name) {
  return std::string(SHACKLE_SOURCE_DIR) + "/examples/dsl/" + Name;
}

std::string readText(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In) << Path;
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

/// The checksum=<hex> field of the CLI's `ran` line ("" when absent).
std::string cliChecksum(const std::string &Out) {
  std::size_t At = Out.find("checksum=");
  if (At == std::string::npos || Out.rfind("ran ", At) == std::string::npos)
    return "";
  return Out.substr(At + 9, 16);
}

std::string serviceChecksum(ServiceCore &Core, const JsonValue &Req) {
  JsonValue Reply = Core.handle(Req);
  EXPECT_TRUE(Reply.getBool("ok", false)) << Reply.str();
  return Reply.getString("checksum");
}

TEST(EngineParity, CliAndServiceChecksumsAgreeOnARegistryRun) {
  auto [Rc, Out] =
      runCli("run matmul c --block=16 --params=48 --threads=2");
  ASSERT_EQ(Rc, 0) << Out;
  std::string Cli = cliChecksum(Out);
  ASSERT_EQ(Cli.size(), 16u) << Out;

  ServiceCore Core;
  JsonValue Req;
  std::string Err;
  ASSERT_TRUE(parseJson(R"({"op":"run","benchmark":"matmul","config":"c",
                            "block":16,"params":[48],"threads":2})",
                        Req, &Err))
      << Err;
  EXPECT_EQ(serviceChecksum(Core, Req), Cli);
}

TEST(EngineParity, CliAndServiceChecksumsAgreeOnADslRun) {
  std::string Path = example("matmul.dsl");
  auto [Rc, Out] = runCli("file " + Path +
                          " run --array=C --block=16 --params=48");
  ASSERT_EQ(Rc, 0) << Out;
  std::string Cli = cliChecksum(Out);
  ASSERT_EQ(Cli.size(), 16u) << Out;

  ServiceCore Core;
  JsonValue Req = JsonValue::object();
  Req.set("op", JsonValue::string("run"));
  Req.set("dsl", JsonValue::string(readText(Path)));
  Req.set("array", JsonValue::string("C"));
  Req.set("block", JsonValue::integer(16));
  JsonValue Params = JsonValue::array();
  Params.push(JsonValue::integer(48));
  Req.set("params", std::move(Params));
  EXPECT_EQ(serviceChecksum(Core, Req), Cli);
}

TEST(EngineParity, NativeVerifiedRunAgreesWithTheCli) {
  auto [Rc, Out] = runCli("run cholesky-right product-wr --block=16 "
                          "--params=64 --threads=2 --native=task --verify");
  ASSERT_EQ(Rc, 0) << Out;
  std::string Cli = cliChecksum(Out);
  ASSERT_EQ(Cli.size(), 16u) << Out;

  ServiceCore Core;
  JsonValue Req;
  std::string Err;
  ASSERT_TRUE(parseJson(R"({"op":"run","benchmark":"cholesky-right",
                            "config":"product-wr","block":16,"params":[64],
                            "threads":2,"native":"task","verify":true})",
                        Req, &Err))
      << Err;
  JsonValue Reply = Core.handle(Req);
  ASSERT_TRUE(Reply.getBool("ok", false)) << Reply.str();
  EXPECT_EQ(Reply.getString("checksum"), Cli);
  EXPECT_EQ(Reply.getString("verify"), "bitwise") << Reply.str();

  Req.set("native", JsonValue::string("block"));
  EXPECT_EQ(Core.handle(Req).getString("code"), "usage-error");
}

TEST(EngineResolve, RegistryAndDslCholeskyShareAPlanKey) {
  ProgramSource Registry;
  Registry.Benchmark = "cholesky-right";
  Registry.Config = "stores";
  Registry.Blocks = {16};
  ProgramSource Dsl;
  Dsl.Dsl = readText(example("cholesky.dsl"));
  Dsl.Array = "A";
  Dsl.Blocks = {16};
  Dsl.Order = "colblocks"; // The registry config walks column blocks.

  Engine E(MachineShape{});
  std::vector<PlanKey> Keys;
  for (const ProgramSource &Src : {Registry, Dsl}) {
    Expected<Resolved> R = resolveProgram(Src);
    ASSERT_TRUE(R) << R.diagnostic().str();
    RunRequest Req;
    Req.Target = std::move(R.get());
    Req.Params = {48};
    Req.Execute = false;
    RunResult Res = E.run(Req);
    ASSERT_FALSE(Res.Error) << Res.Error->str();
    EXPECT_TRUE(Res.Plan->parallelReady()) << Res.Plan->summary();
    Keys.push_back(Res.Key);
  }
  EXPECT_EQ(Keys[0], Keys[1]);
}

TEST(EngineResolve, ErrorsCarryTheirDiagnosticCodes) {
  ProgramSource Src;
  Src.Benchmark = "no-such";
  EXPECT_EQ(resolveProgram(Src).diagnostic().Code, DiagCode::UsageError);
  Src.Benchmark = "matmul";
  Src.Config = "zz";
  EXPECT_EQ(resolveProgram(Src).diagnostic().Code, DiagCode::UsageError);
  Src.WantChain = false; // print/deps/auto need no config.
  EXPECT_TRUE(resolveProgram(Src));

  ProgramSource Dsl;
  Dsl.Dsl = "do wat";
  EXPECT_EQ(resolveProgram(Dsl).diagnostic().Code, DiagCode::ParseError);
  Dsl.Dsl = readText(example("matmul.dsl"));
  EXPECT_EQ(resolveProgram(Dsl).diagnostic().Code, DiagCode::UsageError);
  Dsl.Array = "A"; // Declared, but no statement stores to it.
  EXPECT_EQ(resolveProgram(Dsl).diagnostic().Code,
            DiagCode::ShackleMismatch);
}

TEST(EngineConcurrency, ThreadsShareOneBuildAndOneChecksum) {
  ProgramSource Src;
  Src.Benchmark = "cholesky-right";
  Src.Config = "stores";
  Src.Blocks = {8};
  Expected<Resolved> R = resolveProgram(Src);
  ASSERT_TRUE(R) << R.diagnostic().str();
  RunRequest Req;
  Req.Target = std::move(R.get());
  Req.Params = {32};
  Req.Run.NumThreads = 2;

  PlanCache Plans;
  VerdictCache Verdicts;
  const Engine E(MachineShape{}, &Plans, &Verdicts);
  constexpr unsigned N = 4;
  std::vector<RunResult> Results(N);
  std::vector<std::thread> Callers;
  for (unsigned I = 0; I < N; ++I)
    Callers.emplace_back([&, I] { Results[I] = E.run(Req); });
  for (std::thread &T : Callers)
    T.join();

  EXPECT_EQ(Plans.stats().Misses, 1u);
  unsigned Builds = 0;
  for (const RunResult &Res : Results) {
    ASSERT_FALSE(Res.Error) << Res.Error->str();
    EXPECT_FALSE(Res.Stats.Failed);
    EXPECT_EQ(Res.Checksum, Results[0].Checksum);
    Builds += Res.Built;
  }
  EXPECT_EQ(Builds, 1u);
}

/// The oracle-reruns count on the native: line, or -1 when absent.
long oracleReruns(const std::string &Out) {
  std::size_t At = Out.find("oracle-reruns=");
  if (At == std::string::npos)
    return -1;
  return std::strtol(Out.c_str() + At + 14, nullptr, 10);
}

struct SpdCase {
  const char *Name;
  const char *Args;
};

/// Keeps the raw bytes of the struct out of the test name.
void PrintTo(const SpdCase &C, std::ostream *OS) { *OS << C.Name; }

class EngineSpdInput : public ::testing::TestWithParam<SpdCase> {};

TEST_P(EngineSpdInput, FactorizationRunsStayFinite) {
  // The factorizations' inputs are conditioned SPD, so no task commits a
  // non-finite value and no compiled task is rerun on the oracle.
  auto [Rc, Out] = runCli(std::string("run ") + GetParam().Args +
                          " --native=task --verify");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_EQ(Out.find("[parallel-poison]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bitwise-identical"), std::string::npos) << Out;
  if (Out.find("native: mode=task kernels=0") == std::string::npos) {
    EXPECT_EQ(oracleReruns(Out), 0) << Out;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Factorizations, EngineSpdInput,
    ::testing::Values(
        SpdCase{"CholeskyRight",
                "cholesky-right product-wr --params=64 --block=16"},
        SpdCase{"CholeskyLeft", "cholesky-left stores --params=64 --block=16"},
        SpdCase{"Banded", "banded stores --params=64,8 --block=16"}),
    [](const ::testing::TestParamInfo<SpdCase> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
