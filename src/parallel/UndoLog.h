//===- UndoLog.h - Block write-footprint snapshots --------------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's block — the unit of data that is "current" (Definition 1) —
/// is also the natural unit of recovery: a block task's writes land in a
/// bounded, statically enumerable footprint, so saving that footprint
/// before the task runs makes the task atomic. If the body fails partway
/// through (exception, injected fault), restoring the snapshot returns the
/// instance to the exact pre-task state and the block can be retried or
/// replayed serially, preserving the runtime's bitwise-determinism
/// guarantee. Restoration is required even for a simple retry: shackled
/// statements routinely read their own outputs (e.g. Cholesky's
/// A[I][J] = A[I][J] / A[J][J]), so re-running over half-written data
/// would compute garbage.
///
/// The footprint comes from collectSubtreeWrites — the same structural walk
/// the interpreter executes, minus the arithmetic — so capture cost is
/// proportional to the block's instance count, not the array size. Under
/// the native tier the walk is replaced entirely: each compiled task kernel
/// ships a <name>_writes companion, looked up by task id, that enumerates
/// the identical store set at native speed with address-invariant
/// (reduction) loops collapsed, so capture cost drops to the footprint size
/// itself.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_PARALLEL_UNDOLOG_H
#define SHACKLE_PARALLEL_UNDOLOG_H

#include "interp/Interpreter.h"
#include "parallel/BlockPartition.h"

#include <cstdint>
#include <vector>

namespace shackle {

class NativeDispatch;

/// Saved pre-image of one block task's write footprint.
struct BlockUndoLog {
  struct Entry {
    unsigned ArrayId;
    int64_t Offset;
    double Value;
  };
  /// Deduplicated, sorted by (array, offset).
  std::vector<Entry> Entries;
};

/// Snapshots the elements \p Task will write on \p Inst (all segments, in
/// order, duplicates collapsed to the first pre-image — which is the only
/// correct one to restore).
BlockUndoLog captureBlockUndo(const LoopNest &Nest, const BlockTask &Task,
                              const ProgramInstance &Inst);

/// Like captureBlockUndo, but when \p Native provides the compiled write
/// enumerator of task \p TaskId, the whole footprint is enumerated in one
/// call over the task's flattened per-segment DimValues (reduction loops
/// collapsed) instead of walking the subtrees through the interpreter's
/// write sink. Null \p Native, or a task without an enumerator, falls back
/// to the interpreter walk; both paths produce byte-identical logs.
BlockUndoLog captureBlockUndo(const LoopNest &Nest, const BlockTask &Task,
                              uint32_t TaskId, const ProgramInstance &Inst,
                              const NativeDispatch *Native);

/// Writes the saved pre-images back, returning the footprint to its state
/// at capture time. Idempotent; safe after any partial execution of the
/// block (concurrent blocks never touch this footprint — that is exactly
/// what a block dependence edge orders).
void restoreBlockUndo(const BlockUndoLog &Log, ProgramInstance &Inst);

} // namespace shackle

#endif // SHACKLE_PARALLEL_UNDOLOG_H
