//===- Engine.cpp - The one resolve/plan/run pipeline ------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "service/Engine.h"

#include "frontend/Parser.h"
#include "programs/Registry.h"
#include "support/Checksum.h"

#include <chrono>

using namespace shackle;

namespace {

Expected<Resolved> resolveRegistry(const ProgramSource &Src) {
  auto It = benchRegistry().find(Src.Benchmark);
  if (It == benchRegistry().end())
    return Diagnostic(DiagCode::UsageError,
                      "unknown benchmark '" + Src.Benchmark +
                          "'; try 'shackle list'");
  const BenchEntry &Entry = It->second;
  auto CIt = Entry.Configs.find(Src.Config);
  if (Src.WantChain && CIt == Entry.Configs.end())
    return Diagnostic(DiagCode::UsageError,
                      "unknown config '" + Src.Config + "' for benchmark '" +
                          Src.Benchmark + "'");
  BenchSpec Spec = Entry.Make();
  Resolved R;
  if (Src.WantChain)
    R.Chain = CIt->second(*Spec.Prog, Src.Blocks.empty() ? Entry.DefaultBlock
                                                         : Src.Blocks[0]);
  R.Prog = std::move(Spec.Prog);
  R.MainArray = static_cast<int>(Spec.MainArray);
  R.Flops = std::move(Spec.Flops);
  R.Condition = std::move(Spec.Condition);
  return R;
}

/// Shackles every statement through its store into Src.Array.
Expected<Resolved> resolveDsl(const ProgramSource &Src) {
  ParseResult PR = parseProgram(*Src.Dsl);
  if (!PR)
    return PR.Diag;
  Resolved R;
  R.Prog = std::move(PR.Prog);
  const Program &P = *R.Prog;
  for (unsigned A = 0; A < P.getNumArrays(); ++A)
    if (P.getArray(A).Name == Src.Array)
      R.MainArray = static_cast<int>(A);
  if (R.MainArray < 0 && (Src.WantChain || !Src.Array.empty()))
    return Diagnostic(DiagCode::UsageError,
                      Src.Array.empty()
                          ? "the array to block must be named"
                          : "array '" + Src.Array +
                                "' is not declared in the program");
  if (!Src.WantChain)
    return R;

  unsigned Rank = P.getArray(R.MainArray).Extents.size();
  std::vector<int64_t> Blocks = Src.Blocks;
  if (Blocks.empty())
    Blocks.assign(Rank, 64);
  while (Blocks.size() < Rank)
    Blocks.push_back(Blocks.back());
  DataBlocking Blocking =
      Src.Order && Rank == 2
          ? DataBlocking::rectangular(R.MainArray, Blocks, {1, 0})
          : DataBlocking::rectangular(R.MainArray, Blocks);
  if (Src.Reversed)
    Blocking.Planes[0].Reversed = true;
  Expected<DataShackle> Shackle =
      DataShackle::tryOnStores(P, std::move(Blocking));
  if (!Shackle.ok())
    return Shackle.takeDiagnostic();
  R.Chain.Factors.push_back(std::move(Shackle.get()));
  return R;
}

} // namespace

Expected<Resolved> shackle::resolveProgram(const ProgramSource &Src) {
  if (Src.Order && *Src.Order != "colblocks")
    return Diagnostic(DiagCode::UsageError,
                      "unknown block order '" + *Src.Order +
                          "' (the only order is 'colblocks')");
  return Src.Dsl ? resolveDsl(Src) : resolveRegistry(Src);
}

void shackle::initInput(const Resolved &R, ProgramInstance &Inst) {
  Inst.fillRandom(1, 0.5, 1.5);
  if (R.Condition)
    R.Condition(Inst);
}

uint64_t shackle::resultChecksum(const ProgramInstance &Inst) {
  Checksum C;
  const Program &P = Inst.program();
  for (unsigned A = 0; A < P.getNumArrays(); ++A) {
    const std::vector<double> &Buf = Inst.buffer(A);
    C.u64(A).u64(Buf.size());
    for (double V : Buf)
      C.f64(V);
  }
  return C.value();
}

Status shackle::checkParams(const Program &P,
                            const std::vector<int64_t> &Params) {
  if (Params.size() == P.getNumParams())
    return Status::success();
  return Status::error(DiagCode::UsageError,
                       "params must supply " +
                           std::to_string(P.getNumParams()) +
                           " value(s), got " + std::to_string(Params.size()));
}

RunResult Engine::run(const RunRequest &Req) const {
  RunResult R;
  const Resolved &T = Req.Target;
  const Program &P = *T.Prog;
  Status Params = checkParams(P, Req.Params);
  if (!Params.ok()) {
    R.Error = Params.takeDiagnostic();
    return R;
  }
  R.Key = makePlanKey(P, T.Chain, Req.Params, Req.TaskLevel, Shape);

  // Only written by the call that owns the build (single-flight runs the
  // closure on the missing caller's thread, synchronously).
  LegalityCheckStats LegStats;
  bool KnownIllegal = false;
  auto Build = [&] {
    R.Built = true;
    ParallelPlanOptions POpts;
    POpts.Budget = Req.Budget;
    POpts.ThreadsHint = Req.Run.NumThreads;
    if (Req.TaskLevel == PlanKeyAutoTaskLevel)
      POpts.AutoTaskLevel = true;
    else
      POpts.TaskLevel = Req.TaskLevel;
    POpts.LegalityStats = &LegStats;
    if (Verdicts) {
      VerdictReuse Reuse = Verdicts->lookup(P, T.Chain);
      POpts.LegalitySkipBlockDims = Reuse.SkipBlockDims;
      POpts.LegalityKnownIllegal = KnownIllegal = Reuse.KnownIllegal;
    }
    ParallelPlan Plan = ParallelPlan::build(P, T.Chain, Req.Params, POpts);
    if (Verdicts && KnownIllegal) {
      // The whole check was skipped; credit one avoided query (a fresh
      // check would have run at least one before finding the violation).
      Verdicts->creditSaved(1);
    } else if (Verdicts) {
      Verdicts->record(P, T.Chain, Plan.legality().Verdict);
      Verdicts->creditSaved(LegStats.QueriesSkipped);
    }
    return Plan;
  };
  std::shared_ptr<const CachedPlan> Owner;
  if (Plans) {
    PlanCache::Outcome Out = Plans->getOrBuild(R.Key, T.Prog, Build);
    if (!Out.Plan) {
      R.Error = Diagnostic(DiagCode::ScanFailed,
                           Out.Error.empty() ? "plan build failed"
                                             : Out.Error);
      return R;
    }
    Owner = Out.Plan;
    R.Hit = Out.Hit;
    R.Coalesced = Out.Coalesced;
    R.FromSnapshot = Out.FromSnapshot;
  } else {
    auto Direct = std::make_shared<CachedPlan>();
    Direct->Prog = T.Prog;
    Direct->Plan = Build();
    Owner = std::move(Direct);
  }
  // The plan points into its program; Owner keeps both alive.
  R.Plan = std::shared_ptr<const ParallelPlan>(Owner, &Owner->Plan);
  if (R.Built) {
    R.QueriesRun = LegStats.QueriesRun;
    R.QueriesSkipped = LegStats.QueriesSkipped + (KnownIllegal ? 1 : 0);
  }
  const ParallelPlan &Plan = *R.Plan;
  if (!Req.Execute)
    return R;
  if (Req.RequireParallel && !Plan.parallelReady()) {
    R.Refused = true;
    return R;
  }

  // The native module cache is keyed by the plan key mixed with the native
  // config hash, so a compiler/flag change never revives a stale module,
  // and callers that miss together share one compile. bench/e2e/Pipeline.cpp
  // computes the same key. A plan that is not parallel-ready runs the
  // serial fallback, which calls no task kernel, so it gets no module.
  ParallelRunOptions RunOpts = Req.Run;
  if (Req.Native && Plan.parallelReady()) {
    R.Native = NativeModuleCache::instance().getOrCompile(
        R.Key.digest() ^ nativeConfigHash(*Req.Native),
        [&] {
          return NativeModule::compile(Plan.nest(), Plan.partition(),
                                       *Req.Native, R.NativeDiags);
        },
        R.NativeCacheHit);
    RunOpts.Native = R.Native.get();
  }

  ProgramInstance Inst(P, Req.Params);
  initInput(T, Inst);
  auto Start = std::chrono::steady_clock::now();
  R.Stats = Plan.run(Inst, RunOpts);
  auto End = std::chrono::steady_clock::now();
  R.RunMs = std::chrono::duration<double, std::milli>(End - Start).count();
  R.Checksum = resultChecksum(Inst);
  if (!Req.Verify || R.Stats.Failed)
    return R;

  ProgramInstance Ref(P, Req.Params);
  initInput(T, Ref);
  Plan.runSerial(Ref);
  if (Ref.bitwiseEqual(Inst)) {
    R.Verify = VerifyOutcome::Bitwise;
    return R;
  }
  // MicroBlas routing is the documented ULP policy (docs/CLI.md
  // "--native"): matched GEMM blocks may reassociate/fuse (the SIMD kernels
  // use FMA), so the contract is GemmVerifyBound, not bitwise. Bitwise is
  // only promised with routing off.
  R.MaxDiff = Ref.maxAbsDifference(Inst);
  R.Verify = R.Native && R.Native->usesMicroBlas() &&
                     R.MaxDiff <= GemmVerifyBound
                 ? VerifyOutcome::WithinBound
                 : VerifyOutcome::Differs;
  return R;
}
