//===- EmitC.h - C++ source emission for generated code ---------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits a LoopNest as portable C++ so the benchmarks measure *compiled*
/// blocked code, exactly as the paper measured xlf-compiled Fortran. Each
/// kernel becomes
///
///   extern "C" void <name>(double **arrays, const int64_t *params);
///
/// where arrays is indexed by the program's array ids and params by its
/// parameter ids. Array addressing honors each array's layout (row-major,
/// column-major, or LAPACK band storage). The dsc-gen tool calls
/// emitTranslationUnit at build time; the result is compiled into the bench
/// binaries. The native tier (DESIGN.md §15) instead emits one kernel per
/// block task through emitNativeTranslationUnit, compiled at plan time;
/// those kernels are all its unit holds (undo footprints are the plan's).
/// Every kernel emits an innermost loop pair interchanged when its store is
/// unit-stride along the outer loop and the swap is proven to reverse no
/// dependence (emitc/Interchange.h), and an innermost loop under
/// `_Pragma("omp simd")` when no two of its iterations are proven to touch
/// one element with a write (emitc/SimdMark.h); compile with -fopenmp-simd.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_EMITC_EMITC_H
#define SHACKLE_EMITC_EMITC_H

#include "codegen/LoopAST.h"

#include <string>
#include <vector>

namespace shackle {

/// One kernel to emit: a generated nest and its function name.
struct KernelSpec {
  std::string Name;
  const LoopNest *Nest = nullptr;
};

/// One native task kernel: the ordered segment subtrees of one block task
/// (repeats included), inlined into a single function. This is the native
/// tier's only compiled unit: the paper's block task (every statement
/// instance whose shackled reference falls in one block) is both the
/// scheduling unit and the code unit. The host calls it once per task,
/// passing the task's *flattened* per-segment DimValues (segment s's
/// values at dims[s*NumDims]); bound dimensions (parameters and block
/// coordinates) are read from them, scratch dimensions are re-declared by
/// the subtrees' own loops and shadow the binding. Runs of consecutive
/// equal roots (the inner shackle-level replay loop of a hierarchical
/// task) are emitted as one C loop over the run. Two tasks with the same
/// root sequence share a kernel (the DimValues are runtime data).
struct NativeTaskKernelSpec {
  std::string Name;
  const LoopNest *Nest = nullptr;
  std::vector<const ASTNode *> Roots;
};

/// Options for native kernel emission.
struct NativeEmitOptions {
  /// Match dense rectangular triple loops of the form C[..] = C[..] + A*B
  /// and route them through the hooks->gemm function pointer (MicroBlas on
  /// the host side) behind runtime stride/shape guards, with the plain
  /// loops as the else branch. Safe to leave on: a null hooks pointer or a
  /// failed guard falls back to the loops.
  bool GemmHooks = true;
};

/// Emits the definition of one native task kernel:
///
///   extern "C" void <name>(double **arrays, const int64_t *dims,
///                          const shackle_native_hooks *hooks);
///
/// arrays is indexed by array id, dims is the task's flattened per-segment
/// DimValues, hooks may be null (pure-loop execution). The host-side
/// mirror of shackle_native_hooks is NativeHooks in
/// parallel/ParallelExecutor.h; the field order here and there is the ABI.
std::string emitNativeTaskKernel(const LoopNest &Nest,
                                 const std::vector<const ASTNode *> &Roots,
                                 const std::string &Name,
                                 const NativeEmitOptions &Opts);

/// What one native translation unit holds.
struct NativeEmitStats {
  /// Kernels whose text contains a hooks->gemm call site.
  unsigned GemmRouted = 0;
  /// Loop pairs emitted interchanged (emitc/Interchange.h).
  unsigned Reordered = 0;
  /// Loops emitted under `omp simd` (emitc/SimdMark.h).
  unsigned SimdLoops = 0;
};

/// Emits a complete native translation unit: the <stdint.h> include (the
/// only one: square roots call __builtin_sqrt), division helpers, the
/// shackle_native_hooks struct definition, and every task kernel. Each
/// symbol is resolved individually via dlsym; there is no registry. When
/// \p Stats is non-null it receives the unit's counts.
std::string
emitNativeTranslationUnit(const std::vector<NativeTaskKernelSpec> &Tasks,
                          const NativeEmitOptions &Opts,
                          NativeEmitStats *Stats = nullptr);

/// Emits the definition of a single kernel function (no preamble).
std::string emitKernel(const LoopNest &Nest, const std::string &Name);

/// Emits a complete translation unit: includes, division helpers, all kernel
/// definitions, and a name -> function registry
/// (shackle_gen_lookup(const char*)).
std::string emitTranslationUnit(const std::vector<KernelSpec> &Kernels);

/// Emits the matching header: kernel declarations, the KernelFn typedef, and
/// the registry lookup declaration.
std::string emitHeader(const std::vector<KernelSpec> &Kernels);

} // namespace shackle

#endif // SHACKLE_EMITC_EMITC_H
