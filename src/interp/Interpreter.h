//===- Interpreter.h - Direct execution of generated code -------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree-walking interpreter for LoopNest code and the runtime array
/// storage behind it. Every transformation in this project is validated by
/// running the original and the shackled LoopNests on the same inputs and
/// comparing array contents bit-for-bit / within floating-point tolerance.
/// The interpreter can also emit a memory trace (one callback per array
/// element access) that feeds the cache simulator, standing in for the
/// paper's hardware measurements at small problem sizes.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_INTERP_INTERPRETER_H
#define SHACKLE_INTERP_INTERPRETER_H

#include "codegen/LoopAST.h"
#include "ir/Program.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace shackle {

/// Logical-to-physical element addressing of a program's arrays at concrete
/// parameter values: the one place array layouts are interpreted. It never
/// touches storage, so write footprints can be computed from it alone.
class ArrayAddressing {
public:
  ArrayAddressing(const Program &P, std::vector<int64_t> ParamValues);

  const Program &program() const { return *Prog; }
  int64_t paramValue(unsigned Param) const { return ParamValues[Param]; }
  const std::vector<int64_t> &paramValues() const { return ParamValues; }

  /// Elements of storage array \p ArrayId occupies.
  int64_t size(unsigned ArrayId) const { return Sizes[ArrayId]; }

  /// Physical element offset of a logical index vector, honoring the
  /// array's layout (row-major, column-major, band, or tiled storage).
  int64_t offset(unsigned ArrayId, const int64_t *Idx) const;

private:
  const Program *Prog;
  std::vector<int64_t> ParamValues;
  std::vector<std::vector<int64_t>> Extents; ///< Evaluated logical extents.
  std::vector<int64_t> Sizes;
};

/// Concrete storage for one run: one buffer per array, addressed through
/// the array's declared layout.
class ProgramInstance : public ArrayAddressing {
public:
  ProgramInstance(const Program &P, std::vector<int64_t> ParamValues);

  std::vector<double> &buffer(unsigned ArrayId) { return Buffers[ArrayId]; }
  const std::vector<double> &buffer(unsigned ArrayId) const {
    return Buffers[ArrayId];
  }

  /// Fills every array with deterministic pseudo-random values in [lo, hi].
  void fillRandom(uint64_t Seed, double Lo = 0.0, double Hi = 1.0);

  /// Largest absolute element difference against another instance of the
  /// same program (same parameter values).
  double maxAbsDifference(const ProgramInstance &Other) const;

  /// True iff every array buffer is byte-for-byte identical to \p Other's
  /// (stricter than maxAbsDifference() == 0: distinguishes -0.0 from 0.0
  /// and compares NaNs by representation). The parallel executor's
  /// determinism guarantee is stated - and tested - at this strength.
  bool bitwiseEqual(const ProgramInstance &Other) const;

private:
  std::vector<std::vector<double>> Buffers;
};

/// Per-access trace callback: array, physical element offset, write flag.
using TraceFn = std::function<void(unsigned ArrayId, int64_t Offset,
                                   bool IsWrite)>;

/// Executes \p Nest on \p Inst. If \p Trace is non-null, it is invoked for
/// every array element access in execution order (loads before the store of
/// each statement instance).
void runLoopNest(const LoopNest &Nest, ProgramInstance &Inst,
                 const TraceFn *Trace = nullptr);

/// Observer for committed stores: array, physical offset, stored value.
/// Invoked after the RHS is evaluated and the store performed. The parallel
/// executor's poison guard uses this to flag the first non-finite value a
/// block *produces* — as opposed to one corrupted in memory after the fact,
/// which only a footprint scan can see (DESIGN.md §12).
using StoreCheckFn =
    std::function<void(unsigned ArrayId, int64_t Offset, double Value)>;

/// Executes one subtree of \p Nest with the enclosing scanning dimensions
/// pre-bound: \p DimValues must hold Nest.NumDims entries whose leading
/// entries (parameters and every dimension bound above \p Root, e.g. the
/// block coordinates) carry their concrete values; the remaining entries
/// are scratch. Each call builds its own evaluation state, so concurrent
/// calls on the same instance are safe as long as the statement instances
/// they execute touch disjoint elements or are otherwise ordered (the
/// parallel executor's block dependence DAG guarantees exactly this).
/// A non-null \p Check observes every committed store.
void runLoopNestSubtree(const LoopNest &Nest, const ASTNode &Root,
                        const std::vector<int64_t> &DimValues,
                        ProgramInstance &Inst, const TraceFn *Trace = nullptr,
                        const StoreCheckFn *Check = nullptr);

/// Callback receiving one (array, physical element offset) pair per store
/// the walked code would perform. Duplicates are reported as encountered.
using WriteSink = std::function<void(unsigned ArrayId, int64_t Offset)>;

/// Enumerates the write footprint of one subtree of \p Nest without
/// executing it: the same structural walk as runLoopNestSubtree, but each
/// statement instance only evaluates its LHS address and reports it to
/// \p Sink — no loads, no stores, no floating-point work. Well-defined
/// because control flow (bounds, guards) in LoopAST is affine and therefore
/// data-independent. It is the oracle plan footprints are tested against
/// and their fallback when a projection cannot be certified exact.
void collectSubtreeWrites(const LoopNest &Nest, const ASTNode &Root,
                          const std::vector<int64_t> &DimValues,
                          const ArrayAddressing &Addr, const WriteSink &Sink);

/// Counts the statement instances \p Nest would execute (no array work).
uint64_t countExecutedInstances(const LoopNest &Nest,
                                const ProgramInstance &Inst);

/// Executes one statement instance: \p IterValues holds the values of the
/// statement's enclosing loop variables, outermost first. Used by the
/// multi-pass runtime, which schedules instances individually.
void executeStatementInstance(ProgramInstance &Inst, const Stmt &S,
                              const std::vector<int64_t> &IterValues,
                              const TraceFn *Trace = nullptr);

} // namespace shackle

#endif // SHACKLE_INTERP_INTERPRETER_H
