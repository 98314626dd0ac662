//===- main.cpp - shackle: the command-line driver -----------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// A user-facing driver over the whole library:
//
//   shackle list
//   shackle print   <benchmark>
//   shackle legality <benchmark> <config> [--block=N]
//   shackle codegen <benchmark> <config> [--block=N] [--naive]
//   shackle emit    <benchmark> <config> [--block=N] [--name=f]
//   shackle census
//   shackle auto    <benchmark> [--eval=N]
//   shackle simulate <benchmark> <config> [--block=N] --params=N[,bw]
//
//===----------------------------------------------------------------------===//

#include "autotune/AutoShackle.h"
#include "cachesim/CacheSim.h"
#include "core/Dependence.h"
#include "core/Legality.h"
#include "core/ShackleDriver.h"
#include "emitc/EmitC.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "native/NativeJit.h"
#include "parallel/ParallelExecutor.h"
#include "programs/Benchmarks.h"
#include "programs/Registry.h"
#include "runtime/MultiPass.h"
#include "service/Server.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace shackle;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  shackle list\n"
      "  shackle print    <benchmark>\n"
      "  shackle legality <benchmark> <config> [--block=N]\n"
      "  shackle codegen  <benchmark> <config> [--block=N] [--naive]\n"
      "  shackle emit     <benchmark> <config> [--block=N] [--name=f]\n"
      "  shackle census\n"
      "  shackle deps     <benchmark>   (direction vectors)\n"
      "  shackle auto     <benchmark> [--eval=N]\n"
      "  shackle simulate <benchmark> <config> [--block=N] "
      "--params=N[,bw]\n"
      "  shackle run      <benchmark> <config> [--block=N] --params=N[,..]\n"
      "      [--threads=N] [--task-level=K|auto] [--verify]\n"
      "      [--plan-cache=PATH]        (persisted-plan reuse: load PATH,\n"
      "       report hit/miss, save back; a warm hit skips legality,\n"
      "       simplification, and DAG construction entirely)\n"
      "      (parallel block execution; task-level schedules the first K\n"
      "       chain factors as outer tasks, inner levels serial per task)\n"
      "      [--max-retries=N] [--deadline-ms=N] [--stall-ms=N]\n"
      "      [--placement=affinity|round-robin] [--domain-size=N]\n"
      "      [--steal-remote-after=K] [--random-steal] [--steal-seed=S]\n"
      "      [--first-touch]            (locality: see docs/CLI.md)\n"
      "      [--inject=SPEC]            (chaos: deterministic faults;\n"
      "       e.g. --inject='throw@block=2;seed=7', see docs/CLI.md;\n"
      "       a malformed SPEC is rejected with exit code 2)\n"
      "      [--verify-data=off|undo|block] [--paranoia]\n"
      "      (integrity: 'undo' checksums undo logs before restores\n"
      "       [default]; 'block' also commits a block only after two\n"
      "       agreeing executions; --paranoia forces 'block')\n"
      "      [--native=off|task] [--native-cxx=PATH]\n"
      "      [--native-microblas=on|off] [--native-simd=off|avx2|avx512|auto]\n"
      "      [--perf] (hardware counters around the run: cycles,\n"
      "       instructions, L1/L2/LLC misses via perf_event_open; prints a\n"
      "       perf: stats line, or the unavailability reason)\n"
      "      (native tier: JIT-compile one function per block task into a\n"
      "       shared object and call it instead of the interpreter;\n"
      "       'task' also defaults --task-level=auto; any compile/load\n"
      "       failure falls back to the interpreter with a\n"
      "       [native-fallback] warning; see docs/CLI.md)\n"
      "  shackle file <path> print\n"
      "  shackle file <path> {legality|codegen|emit} --array=NAME\n"
      "      [--block=B1[,B2...]] [--order=colblocks] [--reversed] "
      "[--naive]\n"
      "      (shackles every statement through its store into NAME)\n"
      "  shackle file <path> auto --array=NAME [--eval=N]\n"
      "  shackle serve    --socket=PATH [--snapshot=PATH]\n"
      "      [--cache-bytes=N] [--threads=N]\n"
      "      [--max-inflight=N] [--queue-depth=N] [--request-deadline-ms=N]\n"
      "      [--max-line-bytes=N] [--idle-timeout-ms=N] "
      "[--max-connections=N]\n"
      "      [--snapshot-interval-s=N] [--inject=SPEC]\n"
      "      (daemon: newline-delimited JSON requests over a Unix socket;\n"
      "       bounded worker pool sheds overload with structured replies,\n"
      "       SIGTERM/SIGINT drains gracefully, plan cache persisted to\n"
      "       --snapshot with periodic autosave; see docs/SERVE.md)\n"
      "  shackle request  --socket=PATH --json=REQ  [--timeout-ms=N]\n"
      "      [--max-retries=N] [--backoff-base-ms=N] [--backoff-max-ms=N]\n"
      "      [--retry-seed=S] [--inject=SPEC]\n"
      "      (send one request to a running daemon, print the reply;\n"
      "       retries `overloaded` replies with jittered backoff honoring\n"
      "       the server's retry_after_ms hint)\n"
      "common flags:\n"
      "  --solver-budget=N   Omega-test work-unit budget per query\n"
      "  --strict            fail instead of falling back to simpler code\n"
      "exit codes: 0 ok/legal, 1 usage or I/O error, 2 shackle illegal\n"
      "            (or malformed --inject spec), 3 parse error,\n"
      "            4 legality undecided within budget\n"
      "(see docs/CLI.md)\n");
  return 1;
}

/// Maps a diagnostic to the CLI's documented exit code (docs/CLI.md).
int exitCodeFor(const Diagnostic &D) {
  switch (D.Code) {
  case DiagCode::ParseError:
    return 3;
  case DiagCode::ShackleIllegal:
    return 2;
  case DiagCode::LegalityUnknown:
  case DiagCode::SolverBudgetExceeded:
    return 4;
  case DiagCode::IOError:
  case DiagCode::ShackleMismatch:
  case DiagCode::ScanFailed:
  case DiagCode::UsageError:
  case DiagCode::ParallelFallback:
  case DiagCode::ParallelFault:
  case DiagCode::ParallelDegrade:
  case DiagCode::ParallelPoison:
  case DiagCode::NativeFallback:
    return 1;
  }
  return 1;
}

/// Prints \p D to stderr (prefixed with \p File when non-null) and returns
/// its exit code.
int reportError(const char *File, const Diagnostic &D) {
  if (File)
    std::fprintf(stderr, "%s: %s\n", File, D.str().c_str());
  else
    std::fprintf(stderr, "%s\n", D.str().c_str());
  return exitCodeFor(D);
}

int legalityExitCode(const LegalityResult &LR) {
  switch (LR.Verdict) {
  case LegalityVerdict::Legal:
    return 0;
  case LegalityVerdict::Illegal:
    return 2;
  case LegalityVerdict::Unknown:
    return 4;
  }
  return 4;
}

int64_t flagValue(int Argc, char **Argv, const char *Name, int64_t Default) {
  std::string Prefix = std::string("--") + Name + "=";
  for (int I = 0; I < Argc; ++I)
    if (std::strncmp(Argv[I], Prefix.c_str(), Prefix.size()) == 0)
      return std::atoll(Argv[I] + Prefix.size());
  return Default;
}

std::string flagString(int Argc, char **Argv, const char *Name,
                       const char *Default = "") {
  std::string Prefix = std::string("--") + Name + "=";
  for (int I = 0; I < Argc; ++I)
    if (std::strncmp(Argv[I], Prefix.c_str(), Prefix.size()) == 0)
      return Argv[I] + Prefix.size();
  return Default;
}

bool hasFlag(int Argc, char **Argv, const char *Name) {
  std::string Flag = std::string("--") + Name;
  for (int I = 0; I < Argc; ++I)
    if (Flag == Argv[I])
      return true;
  return false;
}

SolverBudget budgetFromFlags(int Argc, char **Argv) {
  SolverBudget B;
  B.MaxWorkUnits = static_cast<uint64_t>(flagValue(
      Argc, Argv, "solver-budget", static_cast<int64_t>(B.MaxWorkUnits)));
  return B;
}

std::vector<int64_t> paramList(int Argc, char **Argv, const char *Name) {
  std::string Prefix = std::string("--") + Name + "=";
  for (int I = 0; I < Argc; ++I) {
    if (std::strncmp(Argv[I], Prefix.c_str(), Prefix.size()) != 0)
      continue;
    std::vector<int64_t> Out;
    const char *S = Argv[I] + Prefix.size();
    while (*S) {
      Out.push_back(std::atoll(S));
      const char *Comma = std::strchr(S, ',');
      if (!Comma)
        break;
      S = Comma + 1;
    }
    return Out;
  }
  return {};
}

int cmdList() {
  for (const auto &[Name, Entry] : benchRegistry()) {
    std::printf("%-16s configs:", Name.c_str());
    for (const auto &[CName, Fn] : Entry.Configs) {
      (void)Fn;
      std::printf(" %s", CName.c_str());
    }
    std::printf("  (default block %lld)\n",
                static_cast<long long>(Entry.DefaultBlock));
  }
  return 0;
}

int cmdCensus() {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  const char *S2Names[] = {"A[I,J]", "A[J,J]"};
  const char *S3Names[] = {"A[L,K]", "A[L,J]", "A[K,J]"};
  std::printf("Right-looking Cholesky single-shackle census "
              "(64x64 blocks, column-block-major walk):\n");
  for (unsigned R2 = 1; R2 <= 2; ++R2)
    for (unsigned R3 = 1; R3 <= 3; ++R3) {
      std::vector<unsigned> RefIdx = {0, R2, R3};
      ShackleChain Chain;
      Chain.Factors.push_back(DataShackle::onRefs(
          P, DataBlocking::rectangular(0, {64, 64}, {1, 0}), RefIdx));
      LegalityResult R = checkLegality(P, Chain);
      std::printf("  S1=A[J,J] S2=%s S3=%s -> %s\n", S2Names[R2 - 1],
                  S3Names[R3 - 1], R.Legal ? "LEGAL" : "illegal");
      if (!R.Legal && !R.Violations.empty())
        std::printf("      %s\n", R.Violations[0].witnessStr(P).c_str());
    }
  return 0;
}

} // namespace

namespace {

int cmdFile(int Argc, char **Argv) {
  // shackle file <path> <action> [flags].
  if (Argc < 4)
    return usage();
  std::FILE *F = std::fopen(Argv[2], "rb");
  if (!F)
    return reportError(Argv[2],
                       Diagnostic(DiagCode::IOError, "cannot open file"));
  std::string Source;
  char Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Source.append(Buf, Got);
  std::fclose(F);

  ParseResult R = parseProgram(Source);
  if (!R)
    return reportError(Argv[2], R.Diag);
  const Program &P = *R.Prog;
  std::string Action = Argv[3];
  if (Action == "print") {
    std::printf("%s", P.str().c_str());
    return 0;
  }
  if (Action == "deps") {
    for (const DependenceSummary &S : summarizeDependences(P))
      std::printf("%s\n", S.str(P).c_str());
    return 0;
  }

  // Resolve the blocked array.
  int ArrayId = -1;
  for (int I = 0; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--array=", 8) == 0)
      for (unsigned A = 0; A < P.getNumArrays(); ++A)
        if (P.getArray(A).Name == Argv[I] + 8)
          ArrayId = static_cast<int>(A);
  if (ArrayId < 0)
    return reportError(Argv[2],
                       Diagnostic(DiagCode::UsageError,
                                  "--array=NAME (declared in the program) "
                                  "required"));

  if (Action == "auto") {
    AutoShackleOptions Opts;
    Opts.EvalParams.assign(P.getNumParams(),
                           flagValue(Argc, Argv, "eval", 96));
    AutoShackleResult AR = searchShackles(P, ArrayId, Opts);
    for (const ShackleCandidate &C : AR.Candidates)
      if (C.Evaluated)
        std::printf("%-70s cost=%.0f\n", C.Description.c_str(), C.Cost);
      else
        std::printf("%-70s %s\n", C.Description.c_str(),
                    C.Legal ? "legal (not evaluated)" : "illegal");
    return 0;
  }

  // Build the stores shackle with the requested blocking.
  unsigned Rank = P.getArray(ArrayId).Extents.size();
  std::vector<int64_t> Blocks = paramList(Argc, Argv, "block");
  if (Blocks.empty())
    Blocks.assign(Rank, 64);
  while (Blocks.size() < Rank)
    Blocks.push_back(Blocks.back());
  std::vector<unsigned> Order(Rank);
  for (unsigned D = 0; D < Rank; ++D)
    Order[D] = D;
  if (hasFlag(Argc, Argv, "order=colblocks") && Rank == 2)
    Order = {1, 0};
  DataBlocking Blocking =
      DataBlocking::rectangular(ArrayId, Blocks, Order);
  if (hasFlag(Argc, Argv, "reversed"))
    Blocking.Planes[0].Reversed = true;
  Expected<DataShackle> Shackle =
      DataShackle::tryOnStores(P, std::move(Blocking));
  if (!Shackle.ok())
    return reportError(Argv[2], Shackle.diagnostic());
  ShackleChain Chain;
  Chain.Factors.push_back(std::move(Shackle.get()));
  SolverBudget Budget = budgetFromFlags(Argc, Argv);
  bool Strict = hasFlag(Argc, Argv, "strict");

  if (Action == "legality") {
    LegalityResult LR =
        checkLegality(P, Chain, /*FirstViolationOnly=*/false, Budget);
    std::printf("%s\n", LR.summary(P).c_str());
    for (const LegalityViolation &V : LR.Violations)
      std::printf("  %s\n", V.witnessStr(P).c_str());
    for (const Diagnostic &D : LR.Diags)
      std::fprintf(stderr, "%s\n", D.str().c_str());
    return legalityExitCode(LR);
  }
  if (Action == "codegen" || Action == "emit") {
    if (hasFlag(Argc, Argv, "naive") && Action == "codegen") {
      LegalityResult LR = checkLegality(P, Chain, true, Budget);
      if (LR.Verdict != LegalityVerdict::Legal) {
        std::fprintf(stderr, "shackle rejected: %s\n",
                     LR.summary(P).c_str());
        return legalityExitCode(LR);
      }
      std::printf("%s", generateNaiveShackledCode(P, Chain).str().c_str());
      return 0;
    }
    CodegenResult CR = generateCodeWithFallback(P, Chain, Budget);
    for (const Diagnostic &D : CR.Diags)
      std::fprintf(stderr, "%s\n", D.str().c_str());
    std::fprintf(stderr, "codegen tier: %s\n", codegenTierName(CR.Tier));
    if (Strict && CR.Tier != CodegenTier::Shackled) {
      std::fprintf(stderr,
                   "--strict: refusing to emit %s-tier fallback code\n",
                   codegenTierName(CR.Tier));
      return CR.Legality.Verdict == LegalityVerdict::Legal
                 ? 1
                 : legalityExitCode(CR.Legality);
    }
    if (Action == "codegen")
      std::printf("%s", CR.Nest.str().c_str());
    else
      std::printf("%s", emitKernel(CR.Nest, "kernel").c_str());
    return 0;
  }
  if (Action == "simulate") {
    std::vector<int64_t> Params = paramList(Argc, Argv, "params");
    if (Params.size() != P.getNumParams()) {
      std::fprintf(stderr, "--params must supply %u value(s)\n",
                   P.getNumParams());
      return 1;
    }
    auto Simulate = [&](const char *Label, const LoopNest &Nest) {
      ProgramInstance Inst(P, Params);
      Inst.fillRandom(1, 0.5, 1.5);
      CacheHierarchy H({CacheConfig{"L1", 32 * 1024, 64, 4},
                        CacheConfig{"L2", 256 * 1024, 64, 8}});
      TraceFn Trace = [&H](unsigned ArrayId, int64_t Off, bool) {
        H.access((static_cast<uint64_t>(ArrayId + 1) << 33) +
                 static_cast<uint64_t>(Off) * sizeof(double));
      };
      runLoopNest(Nest, Inst, &Trace);
      std::printf("-- %s --\n%s", Label, H.report().c_str());
    };
    Simulate("original", generateOriginalCode(P));
    Simulate("shackled", generateShackledCode(P, Chain));
    return 0;
  }
  if (Action == "multipass") {
    std::vector<int64_t> Params = paramList(Argc, Argv, "params");
    if (Params.size() != P.getNumParams()) {
      std::fprintf(stderr, "--params must supply %u value(s)\n",
                   P.getNumParams());
      return 1;
    }
    ProgramInstance Ref(P, Params), Test(P, Params);
    Ref.fillRandom(1, 0.5, 1.5);
    for (unsigned A = 0; A < P.getNumArrays(); ++A)
      Test.buffer(A) = Ref.buffer(A);
    runLoopNest(generateOriginalCode(P), Ref);
    MultiPassResult M =
        runMultiPassShackled(P, Chain.Factors[0], Test);
    std::printf("%u passes, %llu instances, completed=%s, max diff vs "
                "original = %g\n",
                M.Passes, static_cast<unsigned long long>(M.Instances),
                M.Completed ? "yes" : "no", Ref.maxAbsDifference(Test));
    return M.Completed ? 0 : 2;
  }
  return usage();
}

// The SIGTERM/SIGINT hook for graceful drain: the handler only performs an
// atomic load and an atomic store (ServiceServer::stop()), both
// async-signal-safe.
std::atomic<ServiceServer *> GServeServer{nullptr};

extern "C" void serveSignalHandler(int) {
  if (ServiceServer *S = GServeServer.load())
    S->stop();
}

int cmdServe(int Argc, char **Argv) {
  std::string Socket = flagString(Argc, Argv, "socket");
  if (Socket.empty()) {
    std::fprintf(stderr, "error: [usage-error] serve requires "
                         "--socket=PATH\n");
    return 1;
  }
  ServiceOptions Opts;
  Opts.SnapshotPath = flagString(Argc, Argv, "snapshot");
  Opts.CacheBytes = static_cast<uint64_t>(flagValue(
      Argc, Argv, "cache-bytes", static_cast<int64_t>(Opts.CacheBytes)));
  Opts.DefaultThreads = static_cast<unsigned>(
      std::max<int64_t>(1, flagValue(Argc, Argv, "threads", 1)));
  Opts.Budget = budgetFromFlags(Argc, Argv);

  ServerOptions SOpts;
  SOpts.Admission.MaxInflight = static_cast<unsigned>(std::max<int64_t>(
      1, flagValue(Argc, Argv, "max-inflight",
                   static_cast<int64_t>(SOpts.Admission.MaxInflight))));
  SOpts.Admission.QueueDepth = static_cast<unsigned>(std::max<int64_t>(
      0, flagValue(Argc, Argv, "queue-depth",
                   static_cast<int64_t>(SOpts.Admission.QueueDepth))));
  SOpts.Admission.RequestDeadlineMs = static_cast<uint64_t>(
      std::max<int64_t>(0, flagValue(Argc, Argv, "request-deadline-ms", 0)));
  SOpts.MaxLineBytes = static_cast<uint64_t>(std::max<int64_t>(
      1, flagValue(Argc, Argv, "max-line-bytes",
                   static_cast<int64_t>(SOpts.MaxLineBytes))));
  SOpts.IdleTimeoutMs = static_cast<uint64_t>(
      std::max<int64_t>(0, flagValue(Argc, Argv, "idle-timeout-ms", 0)));
  SOpts.MaxConnections = static_cast<unsigned>(std::max<int64_t>(
      1, flagValue(Argc, Argv, "max-connections",
                   static_cast<int64_t>(SOpts.MaxConnections))));
  SOpts.SnapshotIntervalS = static_cast<uint64_t>(
      std::max<int64_t>(0, flagValue(Argc, Argv, "snapshot-interval-s", 0)));

  std::string InjectSpec = flagString(Argc, Argv, "inject");
  if (!InjectSpec.empty()) {
    Status IS = FaultInjector::instance().configure(InjectSpec);
    if (!IS.ok()) {
      std::fprintf(stderr, "%s\n", IS.diagnostic().str().c_str());
      return 2;
    }
  }

  ServiceCore Core(Opts);
  Status Loaded = Core.loadSnapshot();
  if (!Loaded.ok())
    // A malformed snapshot must never block startup: warn and serve cold.
    std::fprintf(stderr, "%s\n", Loaded.diagnostic().Message.c_str());

  ServiceServer Server(Core, Socket, SOpts);
  Status S = Server.start();
  if (!S.ok())
    return reportError(nullptr, S.diagnostic());
  GServeServer.store(&Server);
  std::signal(SIGTERM, serveSignalHandler);
  std::signal(SIGINT, serveSignalHandler);
  std::printf("serving on %s (cache %llu MiB%s%s, %u workers, queue %u)\n",
              Socket.c_str(),
              static_cast<unsigned long long>(Opts.CacheBytes >> 20),
              Opts.SnapshotPath.empty() ? "" : ", snapshot ",
              Opts.SnapshotPath.c_str(), SOpts.Admission.MaxInflight,
              SOpts.Admission.QueueDepth);
  std::fflush(stdout);
  uint64_t Conns = Server.serve();
  GServeServer.store(nullptr);
  // The shutdown save is a final flush: with --snapshot-interval-s the
  // cache has been autosaved all along (atomic tmp+rename each time).
  Status Saved = Core.saveSnapshot();
  if (!Saved.ok())
    std::fprintf(stderr, "%s\n", Saved.diagnostic().str().c_str());
  std::printf("served %llu connection(s), %llu autosave(s)\n",
              static_cast<unsigned long long>(Conns),
              static_cast<unsigned long long>(Server.autosaves()));
  std::printf("%s\n", Core.statsLine().c_str());
  std::printf("%s\n", Server.admission().statsLine().c_str());
  return 0;
}

int cmdRequest(int Argc, char **Argv) {
  std::string Socket = flagString(Argc, Argv, "socket");
  std::string Json = flagString(Argc, Argv, "json");
  if (Socket.empty() || Json.empty()) {
    std::fprintf(stderr, "error: [usage-error] request requires "
                         "--socket=PATH and --json=REQ\n");
    return 1;
  }
  std::string InjectSpec = flagString(Argc, Argv, "inject");
  if (!InjectSpec.empty()) {
    Status IS = FaultInjector::instance().configure(InjectSpec);
    if (!IS.ok()) {
      std::fprintf(stderr, "%s\n", IS.diagnostic().str().c_str());
      return 2;
    }
  }
  ServiceRequestOptions ROpts;
  ROpts.TimeoutMs = static_cast<unsigned>(
      std::max<int64_t>(1, flagValue(Argc, Argv, "timeout-ms", 10000)));
  ROpts.MaxRetries = static_cast<unsigned>(
      std::max<int64_t>(0, flagValue(Argc, Argv, "max-retries", 0)));
  ROpts.BackoffBaseMs = static_cast<uint64_t>(std::max<int64_t>(
      1, flagValue(Argc, Argv, "backoff-base-ms",
                   static_cast<int64_t>(ROpts.BackoffBaseMs))));
  ROpts.BackoffMaxMs = static_cast<uint64_t>(std::max<int64_t>(
      1, flagValue(Argc, Argv, "backoff-max-ms",
                   static_cast<int64_t>(ROpts.BackoffMaxMs))));
  ROpts.Seed = static_cast<uint64_t>(
      std::max<int64_t>(0, flagValue(Argc, Argv, "retry-seed", 0)));
  unsigned Retries = 0;
  ROpts.RetriesOut = &Retries;
  std::string Reply, Err;
  if (!serviceRequest(Socket, Json, Reply, &Err, ROpts)) {
    std::fprintf(stderr, "error: [io-error] %s\n", Err.c_str());
    return 1;
  }
  if (Retries > 0)
    std::fprintf(stderr, "note: retried %u time(s) after overload\n",
                 Retries);
  std::printf("%s\n", Reply.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "census")
    return cmdCensus();
  if (Cmd == "file")
    return cmdFile(Argc, Argv);
  if (Cmd == "serve")
    return cmdServe(Argc, Argv);
  if (Cmd == "request")
    return cmdRequest(Argc, Argv);
  if (Argc < 3)
    return usage();

  auto It = benchRegistry().find(Argv[2]);
  if (It == benchRegistry().end()) {
    std::fprintf(stderr, "unknown benchmark '%s'; try 'shackle list'\n",
                 Argv[2]);
    return 1;
  }
  const BenchEntry &Entry = It->second;
  BenchSpec Spec = Entry.Make();
  const Program &P = *Spec.Prog;

  if (Cmd == "print") {
    std::printf("%s", P.str().c_str());
    return 0;
  }

  if (Cmd == "deps") {
    for (const DependenceSummary &S : summarizeDependences(P))
      std::printf("%s\n", S.str(P).c_str());
    return 0;
  }

  if (Cmd == "auto") {
    AutoShackleOptions Opts;
    Opts.EvalParams = {flagValue(Argc, Argv, "eval", 96)};
    if (P.getNumParams() > 1)
      Opts.EvalParams.push_back(
          std::min<int64_t>(Opts.EvalParams[0] - 1, 16));
    AutoShackleResult R = searchShackles(P, Spec.MainArray, Opts);
    if (R.Candidates.empty()) {
      std::printf("no candidates (a statement lacks a reference to the "
                  "main array; dummy references are not auto-generated)\n");
      return 0;
    }
    for (const ShackleCandidate &C : R.Candidates) {
      if (C.Evaluated)
        std::printf("%-70s L1=%llu L2=%llu cost=%.0f\n",
                    C.Description.c_str(),
                    static_cast<unsigned long long>(C.Misses[0]),
                    static_cast<unsigned long long>(C.Misses[1]), C.Cost);
      else
        std::printf("%-70s %s\n", C.Description.c_str(),
                    C.Legal ? "legal (not evaluated)" : "illegal");
    }
    return 0;
  }

  if (Argc < 4)
    return usage();
  auto CIt = Entry.Configs.find(Argv[3]);
  if (CIt == Entry.Configs.end()) {
    std::fprintf(stderr, "unknown config '%s' for benchmark '%s'\n", Argv[3],
                 Argv[2]);
    return 1;
  }
  int64_t Block = flagValue(Argc, Argv, "block", Entry.DefaultBlock);
  ShackleChain Chain = CIt->second(P, Block);

  if (Cmd == "legality") {
    LegalityResult R = checkLegality(P, Chain, /*FirstViolationOnly=*/false,
                                     budgetFromFlags(Argc, Argv));
    std::printf("%s\n", R.summary(P).c_str());
    for (const LegalityViolation &V : R.Violations)
      std::printf("  %s\n", V.witnessStr(P).c_str());
    for (const Diagnostic &D : R.Diags)
      std::fprintf(stderr, "%s\n", D.str().c_str());
    return legalityExitCode(R);
  }

  if (Cmd == "codegen") {
    LoopNest Nest = hasFlag(Argc, Argv, "naive")
                        ? generateNaiveShackledCode(P, Chain)
                        : generateShackledCode(P, Chain);
    std::printf("%s", Nest.str().c_str());
    return 0;
  }

  if (Cmd == "emit") {
    LoopNest Nest = generateShackledCode(P, Chain);
    std::string Name = "kernel";
    for (int I = 0; I < Argc; ++I)
      if (std::strncmp(Argv[I], "--name=", 7) == 0)
        Name = Argv[I] + 7;
    std::printf("%s", emitKernel(Nest, Name).c_str());
    return 0;
  }

  if (Cmd == "simulate") {
    std::vector<int64_t> Params = paramList(Argc, Argv, "params");
    if (Params.size() != P.getNumParams()) {
      std::fprintf(stderr, "--params must supply %u value(s)\n",
                   P.getNumParams());
      return 1;
    }
    auto Simulate = [&](const char *Label, const LoopNest &Nest) {
      ProgramInstance Inst(P, Params);
      Inst.fillRandom(1, 0.5, 1.5);
      CacheHierarchy H({CacheConfig{"L1", 32 * 1024, 64, 4},
                        CacheConfig{"L2", 256 * 1024, 64, 8}});
      TraceFn Trace = [&H](unsigned ArrayId, int64_t Off, bool) {
        H.access((static_cast<uint64_t>(ArrayId + 1) << 33) +
                 static_cast<uint64_t>(Off) * sizeof(double));
      };
      runLoopNest(Nest, Inst, &Trace);
      std::printf("-- %s --\n%s", Label, H.report().c_str());
    };
    Simulate("original", generateOriginalCode(P));
    Simulate("shackled", generateShackledCode(P, Chain));
    return 0;
  }

  if (Cmd == "run") {
    std::vector<int64_t> Params = paramList(Argc, Argv, "params");
    if (Params.size() != P.getNumParams()) {
      std::fprintf(stderr, "--params must supply %u value(s)\n",
                   P.getNumParams());
      return 1;
    }
    unsigned Threads = static_cast<unsigned>(
        std::max<int64_t>(1, flagValue(Argc, Argv, "threads", 1)));

    // Chaos flags. The injector must be armed before the plan is built so
    // that solver-unknown faults can hit the dependence analysis.
    std::string InjectSpec = flagString(Argc, Argv, "inject");
    if (!InjectSpec.empty()) {
      Status S = FaultInjector::instance().configure(InjectSpec);
      if (!S.ok()) {
        // The diagnostic carries the 1-based column of the offending
        // clause within SPEC. Exit 2: the spec is illegal, not a usage
        // slip — a typo here must never silently run without faults.
        std::fprintf(stderr, "%s\n", S.diagnostic().str().c_str());
        return 2;
      }
    }
    ParallelRunOptions RunOpts;
    RunOpts.NumThreads = Threads;
    RunOpts.MaxRetries = static_cast<unsigned>(
        std::max<int64_t>(0, flagValue(Argc, Argv, "max-retries", 2)));
    RunOpts.DeadlineMs = static_cast<uint64_t>(
        std::max<int64_t>(0, flagValue(Argc, Argv, "deadline-ms", 0)));
    // Default a stall watchdog on whenever faults are armed, so that an
    // injected worker stall or death degrades instead of hanging the run.
    RunOpts.StallTimeoutMs = static_cast<uint64_t>(std::max<int64_t>(
        0, flagValue(Argc, Argv, "stall-ms", InjectSpec.empty() ? 0 : 250)));
    std::string Placement = flagString(Argc, Argv, "placement", "affinity");
    if (Placement == "round-robin") {
      RunOpts.Placement = TaskPlacement::RoundRobin;
    } else if (Placement != "affinity") {
      std::fprintf(stderr,
                   "error: [usage-error] --placement expects 'affinity' or "
                   "'round-robin', got '%s'\n",
                   Placement.c_str());
      return 1;
    }
    RunOpts.DomainSize = static_cast<unsigned>(
        std::max<int64_t>(0, flagValue(Argc, Argv, "domain-size", 0)));
    RunOpts.StealRemoteAfter = static_cast<unsigned>(std::max<int64_t>(
        0, flagValue(Argc, Argv, "steal-remote-after", 2)));
    RunOpts.RandomSteal = hasFlag(Argc, Argv, "random-steal");
    RunOpts.StealSeed = static_cast<uint64_t>(
        std::max<int64_t>(0, flagValue(Argc, Argv, "steal-seed", 0)));
    RunOpts.FirstTouch = hasFlag(Argc, Argv, "first-touch");
    std::string VerifyData =
        flagString(Argc, Argv, "verify-data", "undo");
    if (VerifyData == "off") {
      RunOpts.VerifyData = DataVerify::Off;
    } else if (VerifyData == "undo") {
      RunOpts.VerifyData = DataVerify::Undo;
    } else if (VerifyData == "block") {
      RunOpts.VerifyData = DataVerify::Block;
    } else {
      std::fprintf(stderr,
                   "error: [usage-error] --verify-data expects 'off', "
                   "'undo', or 'block', got '%s'\n",
                   VerifyData.c_str());
      return 1;
    }
    if (hasFlag(Argc, Argv, "paranoia"))
      RunOpts.VerifyData = DataVerify::Block;

    // Native tier selection (DESIGN.md §15). 'task' compiles one kernel
    // per block task and defaults --task-level=auto, so each kernel covers
    // a whole outer task (inner levels included).
    std::string NativeMode = flagString(Argc, Argv, "native", "off");
    if (NativeMode != "off" && NativeMode != "task") {
      std::fprintf(stderr,
                   "error: [usage-error] --native expects 'off' or 'task', "
                   "got '%s'\n",
                   NativeMode.c_str());
      return 1;
    }
    NativeJitOptions NativeOpts;
    NativeOpts.Compiler = flagString(Argc, Argv, "native-cxx");
    std::string NativeBlas =
        flagString(Argc, Argv, "native-microblas", "on");
    if (NativeBlas != "on" && NativeBlas != "off") {
      std::fprintf(stderr,
                   "error: [usage-error] --native-microblas expects 'on' "
                   "or 'off', got '%s'\n",
                   NativeBlas.c_str());
      return 1;
    }
    NativeOpts.UseMicroBlas = NativeBlas == "on";
    std::string NativeSimd = flagString(Argc, Argv, "native-simd", "auto");
    if (!parseSimdMode(NativeSimd, NativeOpts.Simd)) {
      std::fprintf(stderr,
                   "error: [usage-error] --native-simd expects 'off', "
                   "'avx2', 'avx512', or 'auto', got '%s'\n",
                   NativeSimd.c_str());
      return 1;
    }
    RunOpts.HwCounters = hasFlag(Argc, Argv, "perf");

    ParallelPlanOptions Opts;
    Opts.Budget = budgetFromFlags(Argc, Argv);
    Opts.ThreadsHint = Threads;
    std::string LevelStr = flagString(Argc, Argv, "task-level");
    if (!LevelStr.empty()) {
      if (LevelStr == "auto") {
        Opts.AutoTaskLevel = true;
      } else {
        char *End = nullptr;
        long L = std::strtol(LevelStr.c_str(), &End, 10);
        if (End == LevelStr.c_str() || *End || L < 0) {
          std::fprintf(stderr,
                       "error: [usage-error] --task-level expects a factor "
                       "count (0 = flat) or 'auto', got '%s'\n",
                       LevelStr.c_str());
          return 1;
        }
        Opts.TaskLevel = static_cast<unsigned>(L);
      }
    } else if (NativeMode == "task") {
      Opts.AutoTaskLevel = true;
    }
    // Offline persisted-plan reuse: route the build through a PlanCache
    // primed from --plan-cache=PATH. A warm hit revives the persisted plan
    // and skips legality, simplification, and DAG construction entirely.
    std::string CachePath = flagString(Argc, Argv, "plan-cache");
    std::unique_ptr<ParallelPlan> OwnedPlan;
    std::shared_ptr<const CachedPlan> Cached;
    if (!CachePath.empty()) {
      PlanCache PC;
      Status Loaded = PC.loadSnapshot(CachePath);
      if (!Loaded.ok())
        std::fprintf(stderr, "%s\n", Loaded.diagnostic().Message.c_str());
      unsigned KeyLevel =
          Opts.AutoTaskLevel ? PlanKeyAutoTaskLevel : Opts.TaskLevel;
      PlanKey Key =
          makePlanKey(P, Chain, Params, KeyLevel, detectMachineShape());
      // Non-owning alias: the benchmark Program outlives this command, and
      // the cache dies with it.
      std::shared_ptr<const Program> ProgRef(&P, [](const Program *) {});
      PlanCache::Outcome Out = PC.getOrBuild(Key, ProgRef, [&] {
        return ParallelPlan::build(P, Chain, Params, Opts);
      });
      if (!Out.Plan) {
        std::fprintf(stderr, "plan-cache: build failed: %s\n",
                     Out.Error.c_str());
        return 1;
      }
      std::printf("plan-cache: %s %s\n", Out.Hit ? "hit" : "miss",
                  Key.str().c_str());
      Status Saved = PC.saveSnapshot(CachePath);
      if (!Saved.ok())
        std::fprintf(stderr, "%s\n", Saved.diagnostic().str().c_str());
      Cached = Out.Plan;
    } else {
      OwnedPlan = std::make_unique<ParallelPlan>(
          ParallelPlan::build(P, Chain, Params, Opts));
    }
    const ParallelPlan &Plan = Cached ? Cached->Plan : *OwnedPlan;
    for (const Diagnostic &D : Plan.diags())
      std::fprintf(stderr, "%s\n", D.str().c_str());
    std::printf("plan: %s\n", Plan.summary().c_str());
    if (Plan.partition().OK) {
      // Task-granularity stats: how coarse the DAG is relative to the full
      // chain, and what each task amortizes.
      const BlockPartition &Part = Plan.partition();
      double AvgSegs =
          Part.Tasks.empty()
              ? 0.0
              : static_cast<double>(Part.totalSegments()) /
                    static_cast<double>(Part.Tasks.size());
      std::printf("task graph: %zu %s over %u of %u chain factor(s); "
                  "%llu segment(s), avg %.1f max %zu per task; "
                  "dag-build %.2f ms (partition %.2f ms)\n",
                  Part.Tasks.size(),
                  Plan.hierarchical() ? "outer task(s)" : "block task(s)",
                  Plan.taskFactors(), Plan.totalFactors(),
                  static_cast<unsigned long long>(Part.totalSegments()),
                  AvgSegs, Part.maxSegmentsPerTask(), Plan.dagBuildMs(),
                  Plan.partitionMs());
    }
    if (hasFlag(Argc, Argv, "strict") && !Plan.parallelReady()) {
      std::fprintf(stderr,
                   "--strict: refusing serial fallback execution\n");
      return 1;
    }

    // Native tier: compile the plan's task kernels once, through the
    // process-wide module cache keyed by the same canonical PlanKey digest
    // the service plan cache fingerprints plans with (mixed with the native
    // config hash, so a compiler/flag change can never revive a stale
    // module). A null module after diagnostics means the
    // interpreter tier runs — never an error.
    std::shared_ptr<NativeModule> NativeMod;
    bool NativeCacheHit = false;
    if (NativeMode != "off" && Plan.partition().OK) {
      unsigned KeyLevel =
          Opts.AutoTaskLevel ? PlanKeyAutoTaskLevel : Opts.TaskLevel;
      const uint64_t ModKey =
          makePlanKey(P, Chain, Params, KeyLevel, detectMachineShape())
              .digest() ^
          nativeConfigHash(NativeOpts);
      NativeMod = NativeModuleCache::instance().lookup(ModKey);
      NativeCacheHit = NativeMod != nullptr;
      if (!NativeMod) {
        std::vector<Diagnostic> NativeDiags;
        NativeMod = NativeModule::compile(Plan.nest(), Plan.partition(),
                                          NativeOpts, NativeDiags);
        for (const Diagnostic &D : NativeDiags)
          std::fprintf(stderr, "%s\n", D.str().c_str());
        if (NativeMod)
          NativeModuleCache::instance().insert(ModKey, NativeMod);
      }
      RunOpts.Native = NativeMod.get();
    }

    ProgramInstance Inst(P, Params);
    Inst.fillRandom(1, 0.5, 1.5);
    auto Start = std::chrono::steady_clock::now();
    ParallelRunStats Stats = Plan.run(Inst, RunOpts);
    auto End = std::chrono::steady_clock::now();
    double Ms =
        std::chrono::duration<double, std::milli>(End - Start).count();
    for (const Diagnostic &D : Stats.Diags)
      std::fprintf(stderr, "%s\n", D.str().c_str());
    // Level-aware accounting: with a hierarchical plan the counters report
    // outer tasks (the rollback/retry/progress unit), not inner block
    // visits; the segment count carries the inner-level volume.
    if (Stats.TaskFactors < Stats.TotalFactors)
      std::printf("ran %llu outer task(s) [task-level %u/%u, %llu inner "
                  "segment(s)] on %u thread(s) in %.2f ms (mode=%s, "
                  "steals=%llu)\n",
                  static_cast<unsigned long long>(Stats.BlocksRun),
                  Stats.TaskFactors, Stats.TotalFactors,
                  static_cast<unsigned long long>(Stats.SegmentsRun),
                  Stats.ThreadsUsed, Ms, parallelModeName(Stats.Mode),
                  static_cast<unsigned long long>(Stats.Steals));
    else
      std::printf("ran %llu block task(s) on %u thread(s) in %.2f ms "
                  "(mode=%s, steals=%llu)\n",
                  static_cast<unsigned long long>(Stats.BlocksRun),
                  Stats.ThreadsUsed, Ms, parallelModeName(Stats.Mode),
                  static_cast<unsigned long long>(Stats.Steals));
    if (Stats.Mode != ParallelMode::SerialFallback) {
      double HomePct =
          Stats.BlocksRun == 0
              ? 0.0
              : 100.0 * static_cast<double>(Stats.HomeHits) /
                    static_cast<double>(Stats.BlocksRun);
      std::printf("locality: domains=%u (x%u workers) home-hits=%llu "
                  "(%.1f%%) local-steals=%llu remote-steals=%llu "
                  "mailbox=%llu (+%llu fallback) bytes-migrated=%llu",
                  Stats.NumDomains, Stats.DomainSize,
                  static_cast<unsigned long long>(Stats.HomeHits), HomePct,
                  static_cast<unsigned long long>(Stats.LocalSteals),
                  static_cast<unsigned long long>(Stats.RemoteSteals),
                  static_cast<unsigned long long>(Stats.MailboxPushes),
                  static_cast<unsigned long long>(Stats.MailboxFallbacks),
                  static_cast<unsigned long long>(Stats.BytesMigrated));
      if (RunOpts.FirstTouch)
        std::printf(" first-touch-elems=%llu",
                    static_cast<unsigned long long>(Stats.FirstTouchElems));
      std::printf("\n");
    }
    if (NativeMode != "off") {
      if (NativeMod) {
        const NativeJitStats &NS = NativeMod->stats();
        std::printf("native: mode=%s kernels=%u gemm-routed=%u simd=%s "
                    "cache=%s "
                    "segments=%llu interp=%llu task-calls=%llu "
                    "oracle-reruns=%llu "
                    "emit=%.2fms compile=%.2fms load=%.2fms\n",
                    NativeMode.c_str(), NS.TaskKernels, NS.GemmRouted,
                    simdLevelName(NS.SimdUsed),
                    NativeCacheHit ? "hit" : "miss",
                    static_cast<unsigned long long>(Stats.NativeSegments),
                    static_cast<unsigned long long>(Stats.InterpSegments),
                    static_cast<unsigned long long>(Stats.NativeTaskCalls),
                    static_cast<unsigned long long>(
                        Stats.NativeOracleReruns),
                    NS.EmitMs, NS.CompileMs, NS.LoadMs);
      } else {
        std::printf("native: mode=%s kernels=0 fallback=interpreter\n",
                    NativeMode.c_str());
      }
    }
    if (Stats.Hw.Requested) {
      if (Stats.Hw.Available)
        std::printf("perf: cycles=%llu instructions=%llu l1-misses=%llu "
                    "l2-misses=%llu llc-misses=%llu\n",
                    static_cast<unsigned long long>(Stats.Hw.Cycles),
                    static_cast<unsigned long long>(Stats.Hw.Instructions),
                    static_cast<unsigned long long>(Stats.Hw.L1Misses),
                    static_cast<unsigned long long>(Stats.Hw.L2Misses),
                    static_cast<unsigned long long>(Stats.Hw.LlcMisses));
      else
        std::printf("perf: unavailable (%s)\n",
                    Stats.Hw.Unavailable.c_str());
    }
    if (Stats.Faults || Stats.Retries || Stats.ReplayedSerially)
      std::printf("faults=%llu retries=%llu replayed-serially=%llu "
                  "progress=%s\n",
                  static_cast<unsigned long long>(Stats.Faults),
                  static_cast<unsigned long long>(Stats.Retries),
                  static_cast<unsigned long long>(Stats.ReplayedSerially),
                  Stats.Progress.str().c_str());
    for (std::size_t B = 0; B < Stats.RetriesPerBlock.size(); ++B)
      if (Stats.RetriesPerBlock[B])
        std::printf("  %s #%zu: %u retr%s\n",
                    Stats.TaskFactors < Stats.TotalFactors ? "outer task"
                                                           : "block",
                    B, Stats.RetriesPerBlock[B],
                    Stats.RetriesPerBlock[B] == 1 ? "y" : "ies");
    if (Stats.VerifyUsed != DataVerify::Off || Stats.Integrity.PoisonedBlocks) {
      std::printf("integrity: verify-data=%s checksums-verified=%llu "
                  "corruptions-detected=%llu poisoned-blocks=%llu",
                  dataVerifyName(Stats.VerifyUsed),
                  static_cast<unsigned long long>(
                      Stats.Integrity.ChecksumsVerified),
                  static_cast<unsigned long long>(
                      Stats.Integrity.CorruptionsDetected),
                  static_cast<unsigned long long>(
                      Stats.Integrity.PoisonedBlocks));
      if (Stats.Integrity.UndoRefused)
        std::printf(" undo-refused=%llu",
                    static_cast<unsigned long long>(
                        Stats.Integrity.UndoRefused));
      if (Stats.Integrity.PristineReplays)
        std::printf(" pristine-replays=%llu",
                    static_cast<unsigned long long>(
                        Stats.Integrity.PristineReplays));
      std::printf("\n");
    }
    if (Stats.Failed) {
      if (Stats.Integrity.PoisonedBlocks)
        std::fprintf(stderr,
                     "run: %llu block(s) quarantined for poisoned data; "
                     "their results are withheld, not silently wrong\n",
                     static_cast<unsigned long long>(
                         Stats.Integrity.PoisonedBlocks));
      else
        std::fprintf(stderr, "run: a block failed every recovery attempt; "
                             "results are unreliable\n");
      return 1;
    }
    if (Spec.Flops)
      std::printf("%.1f MFlops\n", Spec.Flops(Params) / (Ms * 1e3));
    if (hasFlag(Argc, Argv, "verify")) {
      ProgramInstance Ref(P, Params);
      Ref.fillRandom(1, 0.5, 1.5);
      Plan.runSerial(Ref);
      if (Ref.bitwiseEqual(Inst)) {
        std::printf("verify: bitwise-identical to serial execution\n");
      } else if (NativeMod && NativeMod->usesMicroBlas()) {
        // MicroBlas routing is the documented ULP policy (docs/CLI.md
        // "--native"): matched GEMM blocks may reassociate/fuse (the SIMD
        // kernels use FMA), so the contract is a 1e-12 absolute bound,
        // not bitwise. Bitwise is only promised with routing off.
        double MaxDiff = Ref.maxAbsDifference(Inst);
        if (MaxDiff > 1e-12) {
          std::fprintf(stderr,
                       "verify: parallel result differs from serial "
                       "shackled execution beyond the ULP bound "
                       "(max |diff| = %.3e > 1e-12)\n",
                       MaxDiff);
          return 2;
        }
        std::printf("verify: within ULP bound of serial execution "
                    "(max |diff| = %.3e, gemm routing active)\n",
                    MaxDiff);
      } else {
        std::fprintf(stderr, "verify: parallel result differs from serial "
                             "shackled execution\n");
        return 2;
      }
    }
    return 0;
  }

  return usage();
}
