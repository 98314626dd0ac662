//===- main.cpp - shackle: the command-line driver -----------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// A user-facing driver over the whole library:
//
//   shackle list | census
//   shackle <action> <benchmark> [<config>] [flags]   (a registry program)
//   shackle file <path> <action> [flags]              (a DSL program)
//   shackle serve   --socket=PATH [...]
//   shackle request --socket=PATH --json=REQ [...]
//
// where <action> is print, deps, auto, legality, codegen, emit, simulate,
// multipass, or run. Both program forms resolve through resolveProgram and
// every action behaves the same on either; `run` goes through Engine::run,
// the pipeline `shackle serve` uses too (service/Engine.h).
//
//===----------------------------------------------------------------------===//

#include "autotune/AutoShackle.h"
#include "cachesim/CacheSim.h"
#include "core/Dependence.h"
#include "core/Legality.h"
#include "core/ShackleDriver.h"
#include "emitc/EmitC.h"
#include "interp/Interpreter.h"
#include "programs/Benchmarks.h"
#include "programs/Registry.h"
#include "runtime/MultiPass.h"
#include "service/Engine.h"
#include "service/Server.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace shackle;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  shackle list\n"
      "  shackle census\n"
      "  shackle <action> <benchmark> [<config>] [--block=N] [flags]\n"
      "  shackle file <path> <action> [--array=NAME] [--block=B1[,B2...]]\n"
      "      [--order=colblocks] [--reversed] [flags]\n"
      "      (a DSL program, shackled through every statement's store into\n"
      "       NAME; every action but print and deps needs --array)\n"
      "actions (the same on both forms; <config> is the registry form's):\n"
      "  print\n"
      "  deps                              (direction vectors)\n"
      "  auto      [--eval=N]\n"
      "  legality  <config>\n"
      "  codegen   <config> [--naive]      (tier on stderr)\n"
      "  emit      <config> [--name=f]\n"
      "  simulate  <config> --params=N[,..]\n"
      "  multipass <config> --params=N[,..]\n"
      "  run       <config> --params=N[,..] [--threads=N]\n"
      "      [--task-level=K|auto] [--verify] [--plan-cache=PATH]\n"
      "      [--max-retries=N] [--deadline-ms=N] [--stall-ms=N]\n"
      "      [--inject=SPEC] [--perf]\n"
      "      [--verify-data=undo|block]\n"
      "      [--native=off|task] [--native-cxx=PATH]\n"
      "      [--native-microblas=on|off]\n"
      "      (parallel block execution on the pipeline `shackle serve`\n"
      "       runs; the ran line carries the result checksum the service\n"
      "       reports; every flag is described in docs/CLI.md)\n"
      "  shackle serve    --socket=PATH [--snapshot=PATH]\n"
      "      [--cache-bytes=N] [--threads=N]\n"
      "      [--max-inflight=N] [--queue-depth=N] [--request-deadline-ms=N]\n"
      "      [--max-line-bytes=N] [--idle-timeout-ms=N] "
      "[--max-connections=N]\n"
      "      [--snapshot-interval-s=N] [--inject=SPEC]\n"
      "      (daemon: newline-delimited JSON requests over a Unix socket;\n"
      "       see docs/SERVE.md)\n"
      "  shackle request  --socket=PATH --json=REQ  [--timeout-ms=N]\n"
      "      [--max-retries=N] [--backoff-base-ms=N] [--backoff-max-ms=N]\n"
      "      [--retry-seed=S] [--inject=SPEC]\n"
      "      (send one request to a running daemon, print the reply)\n"
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
  default:
    return 1;
  }
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
  return LR.Verdict == LegalityVerdict::Legal     ? 0
         : LR.Verdict == LegalityVerdict::Illegal ? 2
                                                  : 4;
}

/// The value of --Name=VALUE (the first occurrence), or null when absent.
const char *flagArg(int Argc, char **Argv, const char *Name) {
  std::string Prefix = std::string("--") + Name + "=";
  for (int I = 0; I < Argc; ++I)
    if (std::strncmp(Argv[I], Prefix.c_str(), Prefix.size()) == 0)
      return Argv[I] + Prefix.size();
  return nullptr;
}

/// Parses \p S as a whole base-10 integer (optional sign, digits only, in
/// int64 range).
bool parseInteger(const std::string &S, int64_t &Out) {
  if (S.empty() || std::isspace(static_cast<unsigned char>(S[0])))
    return false;
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(S.c_str(), &End, 10);
  if (*End || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

/// --Name=N, or \p Default when absent. main() has checked the value
/// (checkFlagValues).
int64_t flagValue(int Argc, char **Argv, const char *Name, int64_t Default) {
  const char *V = flagArg(Argc, Argv, Name);
  int64_t Out = Default;
  if (V)
    parseInteger(V, Out);
  return Out;
}

std::string flagString(int Argc, char **Argv, const char *Name,
                       const char *Default = "") {
  const char *V = flagArg(Argc, Argv, Name);
  return V ? V : Default;
}

bool hasFlag(int Argc, char **Argv, const char *Name) {
  std::string Flag = std::string("--") + Name;
  for (int I = 0; I < Argc; ++I)
    if (Flag == Argv[I])
      return true;
  return false;
}

/// Sets \p Field from --Name=N, clamped below at \p Min; without the flag
/// the field keeps its current value.
template <typename T>
void setFlag(int Argc, char **Argv, const char *Name, int64_t Min, T &Field) {
  Field = static_cast<T>(std::max<int64_t>(
      Min, flagValue(Argc, Argv, Name, static_cast<int64_t>(Field))));
}

SolverBudget budgetFromFlags(int Argc, char **Argv) {
  SolverBudget B;
  B.MaxWorkUnits = static_cast<uint64_t>(flagValue(
      Argc, Argv, "solver-budget", static_cast<int64_t>(B.MaxWorkUnits)));
  return B;
}

/// Splits \p S at commas into whole base-10 integers; false when an entry
/// is not one.
bool parseIntegerList(const std::string &S, std::vector<int64_t> &Out) {
  std::stringstream In(S);
  std::string Entry;
  while (std::getline(In, Entry, ','))
    if (!parseInteger(Entry, Out.emplace_back()))
      return false;
  return !S.empty() && S.back() != ',';
}

/// --Name=N1,N2,... as integers (empty when absent). main() has checked
/// the value (checkFlagValues).
std::vector<int64_t> paramList(int Argc, char **Argv, const char *Name) {
  std::vector<int64_t> Out;
  if (const char *S = flagArg(Argc, Argv, Name))
    parseIntegerList(S, Out);
  return Out;
}

int cmdList() {
  for (const auto &[Name, Entry] : benchRegistry()) {
    std::printf("%-16s configs:", Name.c_str());
    for (const auto &Config : Entry.Configs)
      std::printf(" %s", Config.first.c_str());
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

/// Arms the fault injector from \p Spec (empty: nothing to arm). A
/// malformed spec prints its diagnostic, which carries the 1-based column
/// of the offending clause, and returns false: the caller exits 2, since a
/// typo must never silently run without faults.
bool armInjector(const std::string &Spec) {
  if (Spec.empty())
    return true;
  Status S = FaultInjector::instance().configure(Spec);
  if (!S.ok())
    std::fprintf(stderr, "%s\n", S.diagnostic().str().c_str());
  return S.ok();
}

/// The flags each command reads, as usage() documents them (the common
/// flags and the program-source flags are added by unknownFlag); null for
/// an unknown command.
const std::vector<std::string> *commandFlags(const std::string &Cmd) {
  static const std::map<std::string, std::vector<std::string>> Flags = {
      {"list", {}},
      {"census", {}},
      {"print", {}},
      {"deps", {}},
      {"auto", {"eval"}},
      {"legality", {}},
      {"codegen", {"naive"}},
      {"emit", {"name"}},
      {"simulate", {"params"}},
      {"multipass", {"params"}},
      {"run",
       {"params", "threads", "task-level", "verify", "plan-cache",
        "max-retries", "deadline-ms", "stall-ms", "inject", "perf",
        "verify-data", "native", "native-cxx", "native-microblas"}},
      {"serve",
       {"socket", "snapshot", "cache-bytes", "threads", "max-inflight",
        "queue-depth", "request-deadline-ms", "max-line-bytes",
        "idle-timeout-ms", "max-connections", "snapshot-interval-s",
        "inject"}},
      {"request",
       {"socket", "json", "timeout-ms", "max-retries", "backoff-base-ms",
        "backoff-max-ms", "retry-seed", "inject"}},
  };
  auto It = Flags.find(Cmd);
  return It == Flags.end() ? nullptr : &It->second;
}

/// The actions that need a shackle chain (and so a registry config or a
/// DSL --array); print, deps, and auto work on the program alone.
bool needsChain(const std::string &Action) {
  return Action == "legality" || Action == "codegen" || Action == "emit" ||
         Action == "simulate" || Action == "multipass" || Action == "run";
}

bool isProgramAction(const std::string &Action) {
  return needsChain(Action) || Action == "print" || Action == "deps" ||
         Action == "auto";
}

int cmdAuto(const Resolved &R, const char *File, int Argc, char **Argv) {
  const Program &P = *R.Prog;
  if (R.MainArray < 0)
    return reportError(File, Diagnostic(DiagCode::UsageError,
                                        "--array=NAME (declared in the "
                                        "program) required"));
  // The first parameter is the problem size; later ones (band widths, time
  // steps) stay small.
  AutoShackleOptions Opts;
  int64_t Eval = flagValue(Argc, Argv, "eval", 96);
  Opts.EvalParams.assign(P.getNumParams(), std::min<int64_t>(Eval - 1, 16));
  if (!Opts.EvalParams.empty())
    Opts.EvalParams[0] = Eval;
  AutoShackleResult AR = searchShackles(P, R.MainArray, Opts);
  if (AR.Candidates.empty()) {
    std::printf("no candidates (a statement lacks a reference to the "
                "main array; dummy references are not auto-generated)\n");
    return 0;
  }
  for (const ShackleCandidate &C : AR.Candidates) {
    if (C.Evaluated)
      std::printf("%-70s L1=%llu L2=%llu cost=%.0f\n", C.Description.c_str(),
                  static_cast<unsigned long long>(C.Misses[0]),
                  static_cast<unsigned long long>(C.Misses[1]), C.Cost);
    else
      std::printf("%-70s %s\n", C.Description.c_str(),
                  C.Legal ? "legal (not evaluated)" : "illegal");
  }
  return 0;
}

/// codegen and emit: the fallback ladder (shackled, naive, original) with
/// its tier on stderr; --strict refuses a fallback tier. `codegen --naive`
/// prints the Figure-5 naive code, for a proven-legal shackle only.
int cmdCodegen(const Resolved &R, bool Emit, int Argc, char **Argv) {
  const Program &P = *R.Prog;
  SolverBudget Budget = budgetFromFlags(Argc, Argv);
  if (!Emit && hasFlag(Argc, Argv, "naive")) {
    LegalityResult LR = checkLegality(P, R.Chain, true, Budget);
    if (LR.Verdict != LegalityVerdict::Legal) {
      std::fprintf(stderr, "shackle rejected: %s\n", LR.summary(P).c_str());
      return legalityExitCode(LR);
    }
    std::printf("%s", generateNaiveShackledCode(P, R.Chain).str().c_str());
    return 0;
  }
  CodegenResult CR = generateCodeWithFallback(P, R.Chain, Budget);
  for (const Diagnostic &D : CR.Diags)
    std::fprintf(stderr, "%s\n", D.str().c_str());
  std::fprintf(stderr, "codegen tier: %s\n", codegenTierName(CR.Tier));
  if (hasFlag(Argc, Argv, "strict") && CR.Tier != CodegenTier::Shackled) {
    std::fprintf(stderr, "--strict: refusing to emit %s-tier fallback code\n",
                 codegenTierName(CR.Tier));
    return CR.Legality.Verdict == LegalityVerdict::Legal
               ? 1
               : legalityExitCode(CR.Legality);
  }
  if (Emit)
    std::printf(
        "%s",
        emitTranslationUnit(
            {{flagString(Argc, Argv, "name", "kernel"), &CR.Nest}})
            .c_str());
  else
    std::printf("%s", CR.Nest.str().c_str());
  return 0;
}

int cmdSimulate(const Resolved &R, const std::vector<int64_t> &Params) {
  const Program &P = *R.Prog;
  auto Simulate = [&](const char *Label, const LoopNest &Nest) {
    ProgramInstance Inst(P, Params);
    initInput(R, Inst);
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
  Simulate("shackled", generateShackledCode(P, R.Chain));
  return 0;
}

int cmdMultipass(const Resolved &R, const std::vector<int64_t> &Params) {
  const Program &P = *R.Prog;
  ProgramInstance Ref(P, Params), Test(P, Params);
  initInput(R, Ref);
  for (unsigned A = 0; A < P.getNumArrays(); ++A)
    Test.buffer(A) = Ref.buffer(A);
  runLoopNest(generateOriginalCode(P), Ref);
  MultiPassResult M = runMultiPassShackled(P, R.Chain.Factors[0], Test);
  std::printf("%u passes, %llu instances, completed=%s, max diff vs "
              "original = %g\n",
              M.Passes, static_cast<unsigned long long>(M.Instances),
              M.Completed ? "yes" : "no", Ref.maxAbsDifference(Test));
  return M.Completed ? 0 : 2;
}

/// A counter as printf's %llu argument.
unsigned long long ull(uint64_t V) { return V; }

/// Prints a usage error for flag \p Flag expecting \p Expected.
int badFlag(const char *Flag, const char *Expected, const std::string &Got) {
  std::fprintf(stderr,
               "error: [usage-error] %s expects %s, got '%s'\n", Flag,
               Expected, Got.c_str());
  return 1;
}

/// Translates the run flags into a RunRequest for Engine::run and the
/// RunResult into the stats lines (docs/CLI.md "run").
int cmdRun(const Resolved &R, const std::vector<int64_t> &Params, int Argc,
           char **Argv) {
  RunRequest Req;
  Req.Target = R;
  Req.Params = Params;
  Req.Budget = budgetFromFlags(Argc, Argv);
  Req.RequireParallel = hasFlag(Argc, Argv, "strict");
  Req.Verify = hasFlag(Argc, Argv, "verify");

  // Chaos flags. The injector must be armed before the plan is built so
  // that solver-unknown faults can hit the dependence analysis.
  std::string InjectSpec = flagString(Argc, Argv, "inject");
  if (!armInjector(InjectSpec))
    return 2;
  ParallelRunOptions &RunOpts = Req.Run;
  setFlag(Argc, Argv, "threads", 1, RunOpts.NumThreads);
  setFlag(Argc, Argv, "max-retries", 0, RunOpts.MaxRetries);
  setFlag(Argc, Argv, "deadline-ms", 0, RunOpts.DeadlineMs);
  setFlag(Argc, Argv, "stall-ms", 0, RunOpts.StallTimeoutMs);
  std::string VerifyData = flagString(Argc, Argv, "verify-data", "undo");
  if (VerifyData == "undo")
    RunOpts.VerifyData = DataVerify::Undo;
  else if (VerifyData == "block")
    RunOpts.VerifyData = DataVerify::Block;
  else
    return badFlag("--verify-data", "'undo' or 'block'", VerifyData);
  RunOpts.HwCounters = hasFlag(Argc, Argv, "perf");

  // Native tier selection (DESIGN.md §15). 'task' compiles one kernel per
  // block task and defaults --task-level=auto, so each kernel covers a
  // whole outer task (inner levels included).
  std::string NativeMode = flagString(Argc, Argv, "native", "off");
  if (NativeMode != "off" && NativeMode != "task")
    return badFlag("--native", "'off' or 'task'", NativeMode);
  NativeJitOptions NativeOpts;
  NativeOpts.Compiler = flagString(Argc, Argv, "native-cxx");
  std::string NativeBlas = flagString(Argc, Argv, "native-microblas", "on");
  if (NativeBlas != "on" && NativeBlas != "off")
    return badFlag("--native-microblas", "'on' or 'off'", NativeBlas);
  NativeOpts.UseMicroBlas = NativeBlas == "on";
  if (NativeMode == "task")
    Req.Native = NativeOpts;

  std::string LevelStr = flagString(Argc, Argv, "task-level");
  if (LevelStr == "auto" || (LevelStr.empty() && Req.Native)) {
    Req.TaskLevel = PlanKeyAutoTaskLevel;
  } else if (!LevelStr.empty()) {
    char *End = nullptr;
    long L = std::strtol(LevelStr.c_str(), &End, 10);
    if (End == LevelStr.c_str() || *End || L < 0)
      return badFlag("--task-level", "a factor count (0 = flat) or 'auto'",
                     LevelStr);
    Req.TaskLevel = static_cast<unsigned>(L);
  }

  // Offline persisted-plan reuse: route the build through a PlanCache
  // primed from --plan-cache=PATH. A warm hit revives the persisted plan
  // and skips legality, simplification, and DAG construction entirely.
  std::string CachePath = flagString(Argc, Argv, "plan-cache");
  PlanCache Plans;
  VerdictCache Verdicts;
  if (!CachePath.empty()) {
    Status Loaded = Plans.loadSnapshot(CachePath);
    if (!Loaded.ok())
      std::fprintf(stderr, "%s\n", Loaded.diagnostic().Message.c_str());
  }
  RunResult Res =
      CachePath.empty()
          ? Engine(detectMachineShape()).run(Req)
          : Engine(detectMachineShape(), &Plans, &Verdicts).run(Req);
  if (Res.Error) {
    std::fprintf(stderr, "plan-cache: build failed: %s\n",
                 Res.Error->Message.c_str());
    return 1;
  }
  if (!CachePath.empty()) {
    std::printf("plan-cache: %s %s\n", Res.Hit ? "hit" : "miss",
                Res.Key.str().c_str());
    Status Saved = Plans.saveSnapshot(CachePath);
    if (!Saved.ok())
      std::fprintf(stderr, "%s\n", Saved.diagnostic().str().c_str());
  }

  const ParallelPlan &Plan = *Res.Plan;
  for (const Diagnostic &D : Plan.diags())
    std::fprintf(stderr, "%s\n", D.str().c_str());
  std::printf("plan: %s\n", Plan.summary().c_str());
  if (Plan.partition().OK) {
    // Task-granularity stats: how coarse the DAG is relative to the full
    // chain, and what each task amortizes.
    const BlockPartition &Part = Plan.partition();
    double AvgSegs = Part.Tasks.empty()
                         ? 0.0
                         : static_cast<double>(Part.totalSegments()) /
                               static_cast<double>(Part.Tasks.size());
    std::printf("task graph: %zu %s over %u of %u chain factor(s); "
                "%llu segment(s), avg %.1f max %zu per task; "
                "dag-build %.2f ms (partition %.2f ms, footprints %.2f ms, "
                "%u walked)\n",
                Part.Tasks.size(),
                Plan.hierarchical() ? "outer task(s)" : "block task(s)",
                Plan.taskFactors(), Plan.totalFactors(),
                ull(Part.totalSegments()), AvgSegs, Part.maxSegmentsPerTask(),
                Plan.dagBuildMs(), Plan.partitionMs(), Plan.footprintMs(),
                Plan.footprintFallbacks());
  }
  if (Res.Refused) {
    std::fprintf(stderr, "--strict: refusing serial fallback execution\n");
    return 1;
  }

  for (const Diagnostic &D : Res.NativeDiags)
    std::fprintf(stderr, "%s\n", D.str().c_str());
  const ParallelRunStats &Stats = Res.Stats;
  for (const Diagnostic &D : Stats.Diags)
    std::fprintf(stderr, "%s\n", D.str().c_str());
  // Level-aware accounting: with a hierarchical plan the counters report
  // outer tasks (the rollback/retry/progress unit), not inner block
  // visits; the segment count carries the inner-level volume.
  bool Outer = Stats.TaskFactors < Stats.TotalFactors;
  std::printf("ran %llu %s task(s)", ull(Stats.BlocksRun),
              Outer ? "outer" : "block");
  if (Outer)
    std::printf(" [task-level %u/%u, %llu inner segment(s)]",
                Stats.TaskFactors, Stats.TotalFactors, ull(Stats.SegmentsRun));
  std::printf(" on %u thread(s) in %.2f ms (mode=%s, steals=%llu) "
              "checksum=%016llx\n",
              Stats.ThreadsUsed, Res.RunMs, parallelModeName(Stats.Mode),
              ull(Stats.Steals), ull(Res.Checksum));
  if (Stats.Mode != ParallelMode::SerialFallback) {
    double HomePct = Stats.BlocksRun == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(Stats.HomeHits) /
                               static_cast<double>(Stats.BlocksRun);
    std::printf("locality: domains=%u (x%u workers) home-hits=%llu "
                "(%.1f%%) local-steals=%llu remote-steals=%llu "
                "mailbox=%llu (+%llu fallback) bytes-migrated=%llu\n",
                Stats.NumDomains, Stats.DomainSize, ull(Stats.HomeHits),
                HomePct, ull(Stats.LocalSteals), ull(Stats.RemoteSteals),
                ull(Stats.MailboxPushes), ull(Stats.MailboxFallbacks),
                ull(Stats.BytesMigrated));
  }
  if (Req.Native && Res.Native) {
    const NativeJitStats &NS = Res.Native->stats();
    std::printf("native: mode=%s kernels=%u gemm-routed=%u reordered=%u "
                "simd-loops=%u simd=%s cache=%s segments=%llu interp=%llu "
                "task-calls=%llu oracle-reruns=%llu "
                "emit=%.2fms compile=%.2fms load=%.2fms\n",
                NativeMode.c_str(), NS.TaskKernels, NS.GemmRouted,
                NS.Reordered, NS.SimdLoops, simdLevelName(NS.SimdUsed),
                Res.NativeCacheHit ? "hit" : "miss",
                ull(Stats.NativeSegments), ull(Stats.InterpSegments),
                ull(Stats.NativeTaskCalls), ull(Stats.NativeOracleReruns),
                NS.EmitMs, NS.CompileMs, NS.LoadMs);
  } else if (Req.Native) {
    std::printf("native: mode=%s kernels=0 fallback=interpreter\n",
                NativeMode.c_str());
  }
  if (Stats.Hw.Requested) {
    if (Stats.Hw.Available)
      std::printf("perf: cycles=%llu instructions=%llu l1-misses=%llu "
                  "l2-misses=%llu llc-misses=%llu\n",
                  ull(Stats.Hw.Cycles), ull(Stats.Hw.Instructions),
                  ull(Stats.Hw.L1Misses), ull(Stats.Hw.L2Misses),
                  ull(Stats.Hw.LlcMisses));
    else
      std::printf("perf: unavailable (%s)\n", Stats.Hw.Unavailable.c_str());
  }
  if (Stats.Faults || Stats.Retries || Stats.ReplayedSerially)
    std::printf("faults=%llu retries=%llu replayed-serially=%llu "
                "progress=%s\n",
                ull(Stats.Faults), ull(Stats.Retries),
                ull(Stats.ReplayedSerially), Stats.Progress.str().c_str());
  for (std::size_t B = 0; B < Stats.RetriesPerBlock.size(); ++B)
    if (Stats.RetriesPerBlock[B])
      std::printf("  %s #%zu: %u retr%s\n", Outer ? "outer task" : "block",
                  B, Stats.RetriesPerBlock[B],
                  Stats.RetriesPerBlock[B] == 1 ? "y" : "ies");
  if (Stats.Mode != ParallelMode::SerialFallback) {
    std::printf("integrity: verify-data=%s checksums-verified=%llu "
                "corruptions-detected=%llu poisoned-blocks=%llu",
                dataVerifyName(Req.Run.VerifyData),
                ull(Stats.Integrity.ChecksumsVerified),
                ull(Stats.Integrity.CorruptionsDetected),
                ull(Stats.Integrity.PoisonedBlocks));
    if (Stats.Integrity.UndoRefused)
      std::printf(" undo-refused=%llu", ull(Stats.Integrity.UndoRefused));
    if (Stats.Integrity.PristineReplays)
      std::printf(" pristine-replays=%llu",
                  ull(Stats.Integrity.PristineReplays));
    if (Stats.Integrity.PristineBytes)
      std::printf(" pristine-bytes=%llu", ull(Stats.Integrity.PristineBytes));
    std::printf("\n");
  }
  if (Stats.Failed) {
    if (Stats.Integrity.PoisonedBlocks)
      std::fprintf(stderr,
                   "run: %llu block(s) quarantined for poisoned data; "
                   "their results are withheld, not silently wrong\n",
                   ull(Stats.Integrity.PoisonedBlocks));
    else
      std::fprintf(stderr, "run: a block failed every recovery attempt; "
                           "results are unreliable\n");
    return 1;
  }
  if (R.Flops)
    std::printf("%.1f MFlops\n", R.Flops(Params) / (Res.RunMs * 1e3));
  switch (Res.Verify) {
  case VerifyOutcome::NotRun:
    break;
  case VerifyOutcome::Bitwise:
    std::printf("verify: bitwise-identical to serial execution\n");
    break;
  case VerifyOutcome::WithinBound:
    std::printf("verify: within ULP bound of serial execution "
                "(max |diff| = %.3e, gemm routing active)\n",
                Res.MaxDiff);
    break;
  case VerifyOutcome::Differs:
    if (Res.Native && Res.Native->usesMicroBlas())
      std::fprintf(stderr,
                   "verify: parallel result differs from serial shackled "
                   "execution beyond the ULP bound "
                   "(max |diff| = %.3e > %.0e)\n",
                   Res.MaxDiff, GemmVerifyBound);
    else
      std::fprintf(stderr, "verify: parallel result differs from serial "
                           "shackled execution\n");
    return 2;
  }
  return 0;
}

/// Resolves \p Src and runs \p Action on it; \p File prefixes diagnostics
/// for the DSL form (null for a registry program).
int cmdProgram(const std::string &Action, ProgramSource Src,
               const char *File, int Argc, char **Argv) {
  Src.WantChain = needsChain(Action);
  Expected<Resolved> Res = resolveProgram(Src);
  if (!Res)
    return reportError(File, Res.diagnostic());
  const Resolved &R = *Res;
  const Program &P = *R.Prog;

  if (Action == "print") {
    std::printf("%s", P.str().c_str());
    return 0;
  }
  if (Action == "deps") {
    for (const DependenceSummary &S : summarizeDependences(P))
      std::printf("%s\n", S.str(P).c_str());
    return 0;
  }
  if (Action == "auto")
    return cmdAuto(R, File, Argc, Argv);
  if (Action == "legality") {
    LegalityResult LR = checkLegality(P, R.Chain, /*FirstViolationOnly=*/false,
                                      budgetFromFlags(Argc, Argv));
    std::printf("%s\n", LR.summary(P).c_str());
    for (const LegalityViolation &V : LR.Violations)
      std::printf("  %s\n", V.witnessStr(P).c_str());
    for (const Diagnostic &D : LR.Diags)
      std::fprintf(stderr, "%s\n", D.str().c_str());
    return legalityExitCode(LR);
  }
  if (Action == "codegen" || Action == "emit")
    return cmdCodegen(R, Action == "emit", Argc, Argv);

  // simulate, multipass, and run execute the program.
  std::vector<int64_t> Params = paramList(Argc, Argv, "params");
  Status ParamsOk = checkParams(P, Params);
  if (!ParamsOk.ok())
    return reportError(File, ParamsOk.diagnostic());
  if (Action == "simulate")
    return cmdSimulate(R, Params);
  if (Action == "multipass")
    return cmdMultipass(R, Params);
  return cmdRun(R, Params, Argc, Argv);
}

/// The first `--name[=value]` argument whose name \p Action does not read,
/// as `--name`, or empty. Program actions also take the source flags of
/// their form (`--block`, plus `--array`, `--order` and `--reversed` for a
/// DSL file).
std::string unknownFlag(const std::string &Action, bool Dsl, int Argc,
                        char **Argv) {
  std::vector<std::string> Known = *commandFlags(Action);
  Known.insert(Known.end(), {"solver-budget", "strict"});
  if (isProgramAction(Action))
    Known.push_back("block");
  if (Dsl)
    Known.insert(Known.end(), {"array", "order", "reversed"});
  for (int I = 2; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--", 2) != 0)
      continue;
    std::string Name(Argv[I] + 2, std::strcspn(Argv[I] + 2, "="));
    if (std::find(Known.begin(), Known.end(), Name) == Known.end())
      return "--" + Name;
  }
  return "";
}

/// The usage error for the first flag whose value has the wrong shape, or
/// empty. Switches take no value; the integer flags take one whole base-10
/// integer, and --params and --block a comma-separated list of them; every
/// other flag takes a value its command checks.
std::string checkFlagValues(int Argc, char **Argv) {
  static const std::set<std::string> Switches = {
      "verify", "perf", "strict", "naive", "reversed"};
  static const std::set<std::string> Integers = {
      "eval", "threads", "max-retries", "deadline-ms", "stall-ms",
      "solver-budget", "cache-bytes", "max-inflight", "queue-depth",
      "request-deadline-ms", "max-line-bytes", "idle-timeout-ms",
      "max-connections", "snapshot-interval-s", "timeout-ms",
      "backoff-base-ms", "backoff-max-ms", "retry-seed"};
  for (int I = 2; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--", 2) != 0)
      continue;
    const char *Eq = std::strchr(Argv[I], '=');
    std::string Name(Argv[I] + 2, std::strcspn(Argv[I] + 2, "="));
    std::string Flag = "--" + Name;
    if (Switches.count(Name)) {
      if (Eq)
        return Flag + " takes no value, got '" + Argv[I] + "'";
      continue;
    }
    if (!Eq)
      return Flag + " needs a value (" + Flag + "=...)";
    int64_t V;
    std::vector<int64_t> Vs;
    if (Integers.count(Name) && !parseInteger(Eq + 1, V))
      return Flag + " expects a whole base-10 integer, got '" + (Eq + 1) +
             "'";
    if ((Name == "params" || Name == "block") &&
        !parseIntegerList(Eq + 1, Vs))
      return Flag + " expects comma-separated whole base-10 integers, got '" +
             (Eq + 1) + "'";
  }
  return "";
}

/// Reads \p Path into \p Out; false when the file cannot be opened.
bool readFile(const char *Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Text;
  Text << In.rdbuf();
  Out = Text.str();
  return static_cast<bool>(In);
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
  setFlag(Argc, Argv, "threads", 1, Opts.DefaultThreads);
  Opts.Budget = budgetFromFlags(Argc, Argv);

  ServerOptions SOpts;
  setFlag(Argc, Argv, "max-inflight", 1, SOpts.Admission.MaxInflight);
  setFlag(Argc, Argv, "queue-depth", 0, SOpts.Admission.QueueDepth);
  setFlag(Argc, Argv, "request-deadline-ms", 0,
          SOpts.Admission.RequestDeadlineMs);
  setFlag(Argc, Argv, "max-line-bytes", 1, SOpts.MaxLineBytes);
  setFlag(Argc, Argv, "idle-timeout-ms", 0, SOpts.IdleTimeoutMs);
  setFlag(Argc, Argv, "max-connections", 1, SOpts.MaxConnections);
  setFlag(Argc, Argv, "snapshot-interval-s", 0, SOpts.SnapshotIntervalS);

  if (!armInjector(flagString(Argc, Argv, "inject")))
    return 2;

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
  if (!armInjector(flagString(Argc, Argv, "inject")))
    return 2;
  ServiceRequestOptions ROpts;
  setFlag(Argc, Argv, "timeout-ms", 1, ROpts.TimeoutMs);
  setFlag(Argc, Argv, "max-retries", 0, ROpts.MaxRetries);
  setFlag(Argc, Argv, "backoff-base-ms", 1, ROpts.BackoffBaseMs);
  setFlag(Argc, Argv, "backoff-max-ms", 1, ROpts.BackoffMaxMs);
  setFlag(Argc, Argv, "retry-seed", 0, ROpts.Seed);
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
  // shackle file <path> <action> | shackle <action> <benchmark> [<config>]
  std::string Cmd = Argv[1];
  const bool Dsl = Cmd == "file";
  std::string Action = Cmd;
  if (Dsl) {
    if (Argc < 4 || !isProgramAction(Argv[3]))
      return usage();
    Action = Argv[3];
  } else if (isProgramAction(Cmd) &&
             (Argc < 3 || (needsChain(Cmd) && Argc < 4))) {
    return usage();
  }
  if (!commandFlags(Action))
    return usage();
  std::string Unknown = unknownFlag(Action, Dsl, Argc, Argv);
  if (!Unknown.empty()) {
    std::fprintf(stderr, "error: [usage-error] unknown flag '%s' for '%s'\n",
                 Unknown.c_str(), Action.c_str());
    return 1;
  }
  std::string BadValue = checkFlagValues(Argc, Argv);
  if (!BadValue.empty()) {
    std::fprintf(stderr, "error: [usage-error] %s\n", BadValue.c_str());
    return 1;
  }

  if (Cmd == "list")
    return cmdList();
  if (Cmd == "census")
    return cmdCensus();
  if (Cmd == "serve")
    return cmdServe(Argc, Argv);
  if (Cmd == "request")
    return cmdRequest(Argc, Argv);

  ProgramSource Src;
  Src.Blocks = paramList(Argc, Argv, "block");
  if (Dsl) {
    std::string Text;
    if (!readFile(Argv[2], Text))
      return reportError(Argv[2],
                         Diagnostic(DiagCode::IOError, "cannot open file"));
    Src.Dsl = std::move(Text);
    Src.Array = flagString(Argc, Argv, "array");
    if (const char *Order = flagArg(Argc, Argv, "order"))
      Src.Order = Order;
    Src.Reversed = hasFlag(Argc, Argv, "reversed");
    return cmdProgram(Action, std::move(Src), Argv[2], Argc, Argv);
  }
  Src.Benchmark = Argv[2];
  if (needsChain(Cmd))
    Src.Config = Argv[3];
  return cmdProgram(Cmd, std::move(Src), nullptr, Argc, Argv);
}
