//===- NativeJit.h - Compile-and-load tier for block kernels ----*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native execution tier (DESIGN.md §15). At plan time every block
/// task of a ParallelPlan becomes one C++ function (emitc), deduplicated by
/// the task's segment-root sequence, compiled into a shared object with the
/// system compiler, and dlopen'd; the scheduler then makes one call per
/// task, looked up by task id, instead of walking the LoopAST, with
/// innermost dense triple loops routed through the MicroBlas register
/// kernels behind runtime shape guards. A module holds kernels only: undo
/// capture reads the plan's footprints (parallel/BlockPartition.h).
///
/// Every step can fail — no compiler on the machine, cc exiting non-zero,
/// dlopen/dlsym errors, ABI drift — and every failure lands on the same
/// rung: compile() returns null with a [native-fallback] diagnostic and the
/// caller runs the interpreter tier instead. The tier is a pure
/// accelerator: it can never change results (the differential-oracle tests
/// under tests/native_test.cpp hold it to that) and never takes down a run.
///
/// Modules are expensive (one compiler invocation each), so the process
/// keeps a NativeModuleCache keyed by the service PlanKey digest mixed with
/// the native configuration hash: re-planning the same program (the plan
/// cache's warm-hit path) reuses the dlopen'd module for free.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_NATIVE_NATIVEJIT_H
#define SHACKLE_NATIVE_NATIVEJIT_H

#include "codegen/LoopAST.h"
#include "kernels/SimdGemm.h"
#include "parallel/ParallelExecutor.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace shackle {

/// Knobs for the compile driver.
struct NativeJitOptions {
  /// Compiler executable. Empty resolves, in order: $SHACKLE_NATIVE_CXX,
  /// the compiler that built this binary (baked in at configure time),
  /// then "c++".
  std::string Compiler;
  /// Extra flags appended verbatim to the compile command (benchmarks use
  /// this for -march flags; never required for correctness).
  std::string ExtraFlags;
  /// Emit hooks->gemm routing for matched dense triple loops (MicroBlas on
  /// the host side). Off = pure loops, bitwise-identical to the
  /// interpreter; on, matched blocks may reassociate the k-reduction (see
  /// docs/CLI.md ULP policy).
  bool UseMicroBlas = true;
  /// Vector width of the hooks->gemm kernel (CLI `--native-simd`). Only
  /// meaningful with UseMicroBlas; resolved against the CPUID probes at
  /// compile() time (kernels/SimdGemm.h), with the scalar kernel as the
  /// guaranteed fallback. SIMD kernels use FMA, so they live behind the
  /// same opt-in ULP policy as the scalar routing. The matching -m arch
  /// flags are also appended to the module compile command so the emitted
  /// plain loops may auto-vectorize... they stay -ffp-contract=off, so the
  /// loop branch remains bitwise-identical either way.
  SimdMode Simd = SimdMode::Auto;
  /// Ignored: every module is task-grain. bench/e2e adapter only; a later
  /// benchmark PR deletes it.
  bool TaskGrain = false;
  /// Keep the temp directory (source, .so, cc.log) after the module dies —
  /// for debugging miscompiles.
  bool KeepArtifacts = false;
};

/// Where the plan-time milliseconds went.
struct NativeJitStats {
  double EmitMs = 0.0;    ///< C++ text generation.
  double CompileMs = 0.0; ///< Compiler subprocess wall time.
  double LoadMs = 0.0;    ///< dlopen + dlsym resolution.
  /// Task kernels compiled (deduplicated by segment-root sequence).
  unsigned TaskKernels = 0;
  /// Task kernels whose emitted text contains at least one hooks->gemm
  /// call site (the runtime guard may still take the plain-loop branch).
  unsigned GemmRouted = 0;
  /// Innermost loop pairs emitted interchanged so the store's unit-stride
  /// loop runs innermost (emitc/Interchange.h), counted over all kernels.
  unsigned Reordered = 0;
  /// Innermost loops emitted under `omp simd` because no two iterations
  /// touch one element with a write (emitc/SimdMark.h), over all kernels.
  unsigned SimdLoops = 0;
  /// The resolved hooks->gemm vector level (SimdLevel::Scalar when
  /// MicroBlas routing is off or the requested width is unsupported).
  SimdLevel SimdUsed = SimdLevel::Scalar;
};

/// A dlopen'd shared object of compiled task kernels, plugged into the
/// executor through the NativeDispatch interface. Kernels are indexed by
/// task id of the partition they were compiled from, and hold no pointer
/// into its LoopNest: a module serves any plan with the same PlanKey (same
/// partition, same task order), which is why the module cache key includes
/// the PlanKey digest. Thread-safe after construction (lookups are const
/// on immutable tables).
class NativeModule : public NativeDispatch {
public:
  /// Emits, compiles, and loads one kernel per distinct segment-root
  /// sequence among the tasks of \p Part, a partition of \p Nest. On any
  /// failure appends one [native-fallback] warning to \p Diags and returns
  /// null — the caller's fallback tier is the interpreter, so a null module
  /// is always safe.
  static std::shared_ptr<NativeModule>
  compile(const LoopNest &Nest, const BlockPartition &Part,
          const NativeJitOptions &Opts, std::vector<Diagnostic> &Diags);

  /// Forwards to the overload above, ignoring the segment roots; \p Part
  /// must be non-null. bench/e2e adapter only; a later benchmark PR deletes
  /// it.
  static std::shared_ptr<NativeModule>
  compile(const LoopNest &Nest, const std::vector<const ASTNode *> &,
          const BlockPartition *Part, const NativeJitOptions &Opts,
          std::vector<Diagnostic> &Diags) {
    return compile(Nest, *Part, Opts, Diags);
  }

  ~NativeModule() override;
  NativeModule(const NativeModule &) = delete;
  NativeModule &operator=(const NativeModule &) = delete;

  NativeKernelFn taskFnFor(uint32_t TaskId) const override;
  const NativeHooks &hooks() const override { return Hooks; }

  const NativeJitStats &stats() const { return Stats; }
  bool usesMicroBlas() const { return Hooks.Gemm != nullptr; }
  /// Artifact paths (valid until destruction; the files are gone after
  /// unless KeepArtifacts).
  const std::string &sourcePath() const { return SrcPath; }
  const std::string &objectPath() const { return SoPath; }

private:
  NativeModule() = default;
  void cleanupFiles();

  void *Handle = nullptr;
  NativeHooks Hooks;
  /// Tables indexed by task id (null for tasks without segments).
  std::vector<NativeKernelFn> TaskFns;
  NativeJitStats Stats;
  std::string Dir, SrcPath, SoPath, LogPath;
  bool Keep = false;
};

/// The compiler the tier will invoke for \p Opts (resolution order above).
std::string nativeCompilerPath(const NativeJitOptions &Opts = {});

/// Cheap availability probe: compiles + dlopens a trivial kernel with the
/// module compile command once per process per resolved compiler, flags and
/// vector level, caching the verdict. Tests and the CLI use it to report
/// (or skip on) an unusable toolchain up front.
bool nativeTierAvailable(const NativeJitOptions &Opts = {});

/// Stable hash of the native configuration (resolved compiler, flags,
/// MicroBlas routing, resolved SIMD level); mixed into the PlanKey digest to key the module
/// cache, so changing any of them is a cache miss, never a stale module.
uint64_t nativeConfigHash(const NativeJitOptions &Opts);

/// Process-wide cache of loaded modules, keyed by
/// PlanKey::digest() ^ nativeConfigHash(). shared_ptr handles keep a
/// module alive across eviction while a run still uses it.
class NativeModuleCache {
public:
  static NativeModuleCache &instance();
  std::shared_ptr<NativeModule> lookup(uint64_t Key) const;
  void insert(uint64_t Key, std::shared_ptr<NativeModule> M);
  std::size_t size() const;
  void clear();

private:
  mutable std::mutex M;
  std::unordered_map<uint64_t, std::shared_ptr<NativeModule>> Map;
};

} // namespace shackle

#endif // SHACKLE_NATIVE_NATIVEJIT_H
