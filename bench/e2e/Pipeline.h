//===- Pipeline.h - bench_e2e's one door into the library -------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every call the benchmark makes into the pipeline goes through this file,
/// and only calls `shackle run --native=task` already makes: the benchmark
/// registry, ParallelPlan::build/run, and NativeModule::compile behind the
/// process-wide NativeModuleCache (keyed exactly as the CLI keys it). When
/// that API changes, this is the file to update. Each call is wrapped in a
/// Span named after the layer it enters.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_BENCH_E2E_PIPELINE_H
#define SHACKLE_BENCH_E2E_PIPELINE_H

#include "interp/Interpreter.h"
#include "native/NativeJit.h"
#include "parallel/ParallelExecutor.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

/// One program to set up: a registry benchmark and config at a block size
/// and parameter values, as `shackle run BENCH CONFIG --block=B` takes it.
struct Job {
  std::string Bench, Config;
  int64_t Block = 0;
  std::vector<int64_t> Params;
};

/// What one set-up produced and what its layers reported.
struct SetupStats {
  uint64_t LegalityQueries = 0; ///< Solver queries of the staged legality.
  unsigned NestNodes = 0;       ///< Generated LoopAST nodes.
  uint64_t Tasks = 0, Edges = 0, CriticalPath = 0;
  bool Compiled = false; ///< The native module came from cc, not the cache.
  unsigned GemmRouted = 0, TaskKernels = 0;
};

/// A program with its plan ready and its native module loaded.
struct Compiled {
  std::shared_ptr<const shackle::Program> Prog;
  shackle::ShackleChain Chain;
  std::unique_ptr<shackle::ParallelPlan> Plan;
  std::shared_ptr<shackle::NativeModule> Module;
  SetupStats Stats;
  /// Why this set-up counts as failed (parse error, fallback tier, serial
  /// plan, native fallback); empty when it succeeded.
  std::string Problem;
};

struct SetupOptions {
  unsigned Threads = 1;
  /// Traced runs: also time legality (checkLegality) and the scan
  /// (generateCodeWithFallback with every block dim already proven) as
  /// calls of their own before the plan build.
  bool Staged = false;
};

/// Registry entry to plan ready with the native module loaded, under the
/// span "setup".
Compiled setUp(const Job &J, const SetupOptions &Opts);

/// Unloads every cached native module, so the next set-up compiles cold.
void clearNativeModules();

/// True when the native tier can compile and load a kernel here.
bool nativeAvailable();

/// A zeroed instance of \p C's program at its parameter values.
std::unique_ptr<shackle::ProgramInstance> newInstance(const Compiled &C);

/// Bytes every array of \p Inst is read once, plus once more for arrays the
/// program writes: the compulsory traffic of one execution.
double compulsoryBytes(const shackle::ProgramInstance &Inst);

struct RunOutcome {
  double Ms = 0;
  shackle::ParallelRunStats Stats;
  /// Failed run, a mode other than parallel, or segments the native tier
  /// left to the interpreter; empty when none of these happened.
  std::string Problem;
};

/// ParallelPlan::run with the CLI's default run options (undo log,
/// checksummed undo verification, poison guard, affinity placement) and
/// the native module, under the span "parallel.run".
RunOutcome run(const Compiled &C, shackle::ProgramInstance &Inst,
               unsigned Threads);

/// One serial pass over the tasks in partition order, timing each task's
/// undo capture, undo checksum, task kernel and poison scan.
struct Decomposition {
  double UndoMs = 0, ChecksumMs = 0, KernelMs = 0, PoisonMs = 0;
  uint64_t UndoEntries = 0;
  std::string Problem;
};
Decomposition decompose(const Compiled &C, shackle::ProgramInstance &Inst);

} // namespace e2e

#endif // SHACKLE_BENCH_E2E_PIPELINE_H
