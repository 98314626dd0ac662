//===- Pipeline.cpp - bench_e2e's one door into the library ---------------===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"
#include "Trace.h"

#include "core/ShackleDriver.h"
#include "parallel/Integrity.h"
#include "parallel/UndoLog.h"
#include "programs/Registry.h"
#include "service/PlanKey.h"

#include <initializer_list>
#include <utility>

using namespace shackle;
using namespace e2e;

namespace {

/// The native configuration of `shackle run --native=task` with default
/// --native-microblas and --native-simd.
NativeJitOptions nativeOptions() {
  NativeJitOptions O;
  O.TaskGrain = true;
  return O;
}

/// Builds the program and chain for \p J from the benchmark registry.
std::string buildProgram(const Job &J, Compiled &C) {
  auto It = benchRegistry().find(J.Bench);
  if (It == benchRegistry().end())
    return "unknown benchmark " + J.Bench;
  auto CIt = It->second.Configs.find(J.Config);
  if (CIt == It->second.Configs.end())
    return "unknown config " + J.Config;
  C.Prog = It->second.Make().Prog;
  C.Chain = CIt->second(*C.Prog, J.Block);
  return "";
}

unsigned countNodes(const std::vector<ASTNodePtr> &Nodes) {
  unsigned N = 0;
  for (const ASTNodePtr &Node : Nodes)
    N += 1 + countNodes(Node->Body);
  return N;
}

/// Records the stage times a call reported as children of the current span,
/// laid end to end from \p T0Us.
void recordStages(double T0Us,
                  std::initializer_list<std::pair<const char *, double>> Ms) {
  for (const auto &[Name, StageMs] : Ms) {
    recordSpan(Name, T0Us, T0Us + StageMs * 1000.0);
    T0Us += StageMs * 1000.0;
  }
}

} // namespace

Compiled e2e::setUp(const Job &J, const SetupOptions &Opts) {
  Compiled C;
  Span Root("setup");
  {
    Span S("frontend");
    C.Problem = buildProgram(J, C);
  }
  if (!C.Problem.empty())
    return C;
  const Program &P = *C.Prog;

  if (Opts.Staged) {
    uint64_t Q0 = solverQueryCount();
    LegalityResult L;
    {
      Span S("core.legality");
      L = checkLegality(P, C.Chain);
    }
    C.Stats.LegalityQueries = solverQueryCount() - Q0;
    if (L.Verdict == LegalityVerdict::Legal) {
      Span S("codegen.scan");
      FallbackLegalityOptions Proven;
      Proven.SkipBlockDims = C.Chain.numBlockDims();
      generateCodeWithFallback(P, C.Chain, SolverBudget(), Proven);
    }
  }

  ParallelPlanOptions POpts;
  POpts.ThreadsHint = Opts.Threads;
  POpts.AutoTaskLevel = true; // --native=task defaults --task-level=auto.
  {
    Span S("parallel.plan");
    C.Plan = std::make_unique<ParallelPlan>(
        ParallelPlan::build(P, C.Chain, J.Params, POpts));
    double EndUs = nowUs();
    recordStages(EndUs - (C.Plan->partitionMs() + C.Plan->dagBuildMs()) * 1e3,
                 {{"parallel.partition", C.Plan->partitionMs()},
                  {"parallel.dag", C.Plan->dagBuildMs()}});
  }
  const ParallelPlan &Plan = *C.Plan;
  C.Stats.NestNodes = countNodes(Plan.nest().Roots);
  if (Plan.partition().OK)
    C.Stats.Tasks = Plan.partition().Tasks.size();
  C.Stats.Edges = Plan.graph().NumEdges;
  if (Plan.parallelReady())
    C.Stats.CriticalPath = Plan.graph().criticalPathLength();
  if (Plan.tier() != CodegenTier::Shackled)
    C.Problem = std::string("codegen tier ") + codegenTierName(Plan.tier());
  else if (!Plan.parallelReady())
    C.Problem = "plan is not parallel-ready";
  if (!C.Problem.empty())
    return C;

  // The module cache key of tools/shackle-cli/main.cpp (`run --native`).
  NativeJitOptions NOpts = nativeOptions();
  const uint64_t Key = makePlanKey(P, C.Chain, J.Params, PlanKeyAutoTaskLevel,
                                   detectMachineShape())
                           .digest() ^
                       nativeConfigHash(NOpts);
  Span S("native.compile");
  C.Module = NativeModuleCache::instance().lookup(Key);
  if (!C.Module) {
    std::vector<const ASTNode *> Roots;
    for (const BlockTask &T : Plan.partition().Tasks)
      for (const BlockTask::Segment &Seg : T.Segments)
        Roots.push_back(Seg.Node);
    std::vector<Diagnostic> Diags;
    C.Module = NativeModule::compile(Plan.nest(), Roots, &Plan.partition(),
                                     NOpts, Diags);
    if (!C.Module) {
      C.Problem = "native fallback";
      for (const Diagnostic &D : Diags)
        C.Problem += ": " + D.str();
      return C;
    }
    NativeModuleCache::instance().insert(Key, C.Module);
    const NativeJitStats &NS = C.Module->stats();
    recordStages(S.startUs(), {{"native.emit", NS.EmitMs},
                               {"native.cc", NS.CompileMs},
                               {"native.load", NS.LoadMs}});
    C.Stats.Compiled = true;
  }
  C.Stats.GemmRouted = C.Module->stats().GemmRouted;
  C.Stats.TaskKernels = C.Module->stats().TaskKernels;
  return C;
}

void e2e::clearNativeModules() { NativeModuleCache::instance().clear(); }

bool e2e::nativeAvailable() { return nativeTierAvailable(nativeOptions()); }

std::unique_ptr<ProgramInstance> e2e::newInstance(const Compiled &C) {
  return std::make_unique<ProgramInstance>(*C.Prog, C.Plan->paramValues());
}

double e2e::compulsoryBytes(const ProgramInstance &Inst) {
  const Program &P = Inst.program();
  std::vector<bool> Written(P.getNumArrays(), false);
  for (unsigned S = 0; S < P.getNumStmts(); ++S)
    Written[P.getStmt(S).LHS.ArrayId] = true;
  double Bytes = 0;
  for (unsigned A = 0; A < P.getNumArrays(); ++A)
    Bytes += (Written[A] ? 2.0 : 1.0) * sizeof(double) *
             static_cast<double>(Inst.buffer(A).size());
  return Bytes;
}

RunOutcome e2e::run(const Compiled &C, ProgramInstance &Inst,
                    unsigned Threads) {
  ParallelRunOptions Opts;
  Opts.NumThreads = Threads;
  Opts.Native = C.Module.get();
  RunOutcome R;
  {
    Span S("parallel.run");
    R.Stats = C.Plan->run(Inst, Opts);
    R.Ms = S.close();
  }
  if (R.Stats.Failed)
    R.Problem = "run failed";
  else if (R.Stats.Mode != ParallelMode::Parallel)
    R.Problem = std::string("mode ") + parallelModeName(R.Stats.Mode);
  else if (R.Stats.InterpSegments > 0)
    R.Problem = "native fallback: " + std::to_string(R.Stats.InterpSegments) +
                " segment(s) interpreted";
  return R;
}

Decomposition e2e::decompose(const Compiled &C, ProgramInstance &Inst) {
  Decomposition D;
  Span Root("decompose");
  const LoopNest &Nest = C.Plan->nest();
  const std::vector<BlockTask> &Tasks = C.Plan->partition().Tasks;
  std::vector<double *> Arrays(C.Prog->getNumArrays());
  for (unsigned A = 0; A < Arrays.size(); ++A)
    Arrays[A] = Inst.buffer(A).data();
  std::vector<int64_t> Dims;
  for (uint32_t T = 0; T < Tasks.size(); ++T) {
    BlockUndoLog Log;
    {
      Span S("parallel.undo_capture", T);
      Log = captureBlockUndo(Nest, Tasks[T], T, Inst, C.Module.get());
      D.UndoMs += S.close();
    }
    D.UndoEntries += Log.Entries.size();
    {
      Span S("parallel.checksum", T);
      volatile uint64_t Sum = checksumUndoLog(Log);
      (void)Sum;
      D.ChecksumMs += S.close();
    }
    NativeKernelFn Fn = C.Module->taskFnFor(T);
    if (!Fn) {
      D.Problem = "native fallback: no task kernel for task " +
                  std::to_string(T);
      return D;
    }
    Dims.clear();
    for (const BlockTask::Segment &Seg : Tasks[T].Segments)
      Dims.insert(Dims.end(), Seg.DimValues.begin(), Seg.DimValues.end());
    {
      Span S("native.kernel", T);
      Fn(Arrays.data(), Dims.data(), &C.Module->hooks());
      D.KernelMs += S.close();
    }
    {
      Span S("parallel.poison_scan", T);
      PoisonFinding F = scanFootprintPoison(Log, Inst);
      D.PoisonMs += S.close();
      if (F.Found) {
        D.Problem = "non-finite value committed by task " + std::to_string(T);
        return D;
      }
    }
  }
  return D;
}
