//===- Engine.h - The one resolve/plan/run pipeline -------------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's flow, written once: program -> shackle chain -> Theorem 1
/// legality -> generated code -> execution. resolveProgram turns a registry
/// benchmark or DSL text into a program with its chain; Engine::run plans
/// it (through the caches it was given, if any), runs it on the native or
/// interpreter tier on the conditioned input, checksums the result, and
/// optionally verifies it against serial execution. The `shackle` CLI and
/// ServiceCore are thin translators over these two calls (DESIGN.md "One
/// run pipeline").
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_SERVICE_ENGINE_H
#define SHACKLE_SERVICE_ENGINE_H

#include "native/NativeJit.h"
#include "service/PlanCache.h"
#include "service/VerdictCache.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace shackle {

/// Where a program comes from: DSL text when Dsl is set, a registry
/// benchmark otherwise.
struct ProgramSource {
  std::string Benchmark, Config;  ///< Registry name and shackle config.
  std::optional<std::string> Dsl; ///< DSL source text.
  std::string Array; ///< DSL: the array to block (and the main array).
  /// Block sizes. Registry: Blocks[0] (default: the entry's default block).
  /// DSL: one per rank of Array (default 64, the last size repeated).
  std::vector<int64_t> Blocks;
  /// DSL: the block walk. Unset is row blocks slowest; "colblocks" walks
  /// a rank-2 array's blocks by column; any other value is a UsageError.
  std::optional<std::string> Order;
  bool Reversed = false;  ///< DSL: reverse the first cutting plane.
  /// False resolves the program (and the DSL main array) without building
  /// a chain; Config and Blocks are then ignored.
  bool WantChain = true;
};

/// A program ready to plan.
struct Resolved {
  std::shared_ptr<const Program> Prog;
  ShackleChain Chain; ///< Empty without WantChain.
  /// The array the shackle blocks (registry: the paper's; DSL: Array), or
  /// -1 for a DSL source that named no array.
  int MainArray = -1;
  /// Useful flops for given parameter values; empty for DSL programs.
  std::function<double(const std::vector<int64_t> &)> Flops;
  /// Makes the random input well-posed (BenchSpec::Condition); may be empty.
  std::function<void(ProgramInstance &)> Condition;
};

/// Registry lookup, DSL parse, and the stores-shackle build. Errors:
/// ParseError for DSL text that does not parse, ShackleMismatch for a
/// stores shackle that does not fit, UsageError otherwise (an Order other
/// than "colblocks" included, for either source).
Expected<Resolved> resolveProgram(const ProgramSource &Src);

/// The pipeline's input: fillRandom(1, 0.5, 1.5), then \p R's conditioner.
void initInput(const Resolved &R, ProgramInstance &Inst);

/// Bit-pattern checksum of every array buffer, in array order: equal
/// checksums mean bitwise-identical results.
uint64_t resultChecksum(const ProgramInstance &Inst);

/// A UsageError unless \p Params has one value per program parameter.
Status checkParams(const Program &P, const std::vector<int64_t> &Params);

struct RunRequest {
  Resolved Target;
  std::vector<int64_t> Params;
  unsigned TaskLevel = 0; ///< PlanKeyAutoTaskLevel for "auto".
  SolverBudget Budget;
  /// False stops after planning (the service's "compile").
  bool Execute = true;
  /// Refuse to execute a plan that is not parallel-ready.
  bool RequireParallel = false;
  /// Execution options; NumThreads is also the plan's thread hint. The
  /// engine sets Native.
  ParallelRunOptions Run;
  /// When set, run on the native tier (compiled or from the module cache).
  std::optional<NativeJitOptions> Native;
  /// Compare against a serial run of the same plan on the same input.
  bool Verify = false;
};

/// The verify bound with micro-GEMM routing active: routed blocks may fuse
/// and reassociate (docs/CLI.md "--native"), so they are held to this max
/// absolute difference against serial execution instead of bitwise.
constexpr double GemmVerifyBound = 1e-12;

enum class VerifyOutcome {
  NotRun,
  Bitwise,     ///< Bitwise-identical to serial execution.
  WithinBound, ///< Max |diff| <= GemmVerifyBound with routing active.
  Differs,
};

struct RunResult {
  /// Set when nothing was planned: wrong parameter count (UsageError) or a
  /// plan build that threw (ScanFailed).
  std::optional<Diagnostic> Error;
  PlanKey Key;
  std::shared_ptr<const ParallelPlan> Plan; ///< Owns its program too.
  /// Plan-cache outcome (all false without a cache).
  bool Hit = false, Coalesced = false, FromSnapshot = false;
  /// This call built the plan; the query counts below are then valid.
  bool Built = false;
  uint64_t QueriesRun = 0, QueriesSkipped = 0;

  std::shared_ptr<NativeModule> Native; ///< Null: interpreter tier.
  /// The module came from the cache or from a concurrent caller's compile.
  bool NativeCacheHit = false;
  std::vector<Diagnostic> NativeDiags;

  bool Refused = false; ///< RequireParallel and the plan is not ready.
  ParallelRunStats Stats;
  double RunMs = 0;
  uint64_t Checksum = 0;
  VerifyOutcome Verify = VerifyOutcome::NotRun;
  double MaxDiff = 0; ///< Set when Verify is WithinBound or Differs.
};

class Engine {
public:
  /// Without caches every run builds its plan directly; with them plans go
  /// through Plans (single-flight) and legality through Verdicts. \p Shape
  /// is the plan key's machine component.
  explicit Engine(MachineShape Shape, PlanCache *Plans = nullptr,
                  VerdictCache *Verdicts = nullptr)
      : Shape(Shape), Plans(Plans), Verdicts(Verdicts) {}

  /// Safe to call concurrently.
  RunResult run(const RunRequest &Req) const;

private:
  MachineShape Shape;
  PlanCache *Plans;
  VerdictCache *Verdicts;
};

} // namespace shackle

#endif // SHACKLE_SERVICE_ENGINE_H
