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
/// A block is a fixed piece of data, so its footprint is too: it depends
/// on the nest and the task's segments only, never on array contents. The
/// plan computes it once, at build, as row runs (array, offset, length)
/// kept in the task (BlockTask::Footprint, parallel/BlockPartition.h). A
/// capture is then one memcpy per run into a single pre-image buffer, and a
/// restore is the same copy back.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_PARALLEL_UNDOLOG_H
#define SHACKLE_PARALLEL_UNDOLOG_H

#include "interp/Interpreter.h"
#include "parallel/BlockPartition.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace shackle {

class NativeDispatch;

/// Saved pre-image of one block task's write footprint.
struct BlockUndoLog {
  /// The footprint the pre-images were taken from (null: empty). A plan's
  /// capture shares the task's runs.
  std::shared_ptr<const FootprintRuns> Runs;
  /// Pre-images run after run: Entries[I] is the value that the I-th
  /// footprint element, in (array, offset) order, had at capture.
  std::vector<double> Entries;

  const FootprintRuns &runs() const;
  /// (array, offset) of the I-th footprint element; I < Entries.size().
  std::pair<unsigned, int64_t> element(std::size_t I) const;
};

/// Snapshots the elements \p Task will write on \p Inst (all segments, in
/// order, duplicates collapsed to the first pre-image — which is the only
/// correct one to restore). Always a fresh interpreter walk
/// (walkFootprint) that ignores Task.Footprint: the oracle plan footprints
/// are tested against.
BlockUndoLog captureBlockUndo(const LoopNest &Nest, const BlockTask &Task,
                              const ProgramInstance &Inst);

/// Snapshots \p Task's plan footprint (Task.Footprint, set at plan build)
/// on \p Inst.
BlockUndoLog captureBlockUndo(const BlockTask &Task,
                              const ProgramInstance &Inst);

/// Forwards to the two-argument capture; the nest, task id and native
/// module are ignored. bench/e2e adapter only.
inline BlockUndoLog captureBlockUndo(const LoopNest &, const BlockTask &Task,
                                     uint32_t, const ProgramInstance &Inst,
                                     const NativeDispatch *) {
  return captureBlockUndo(Task, Inst);
}

/// Writes the saved pre-images back, returning the footprint to its state
/// at capture time. Idempotent; safe after any partial execution of the
/// block (concurrent blocks never touch this footprint — that is exactly
/// what a block dependence edge orders).
void restoreBlockUndo(const BlockUndoLog &Log, ProgramInstance &Inst);

} // namespace shackle

#endif // SHACKLE_PARALLEL_UNDOLOG_H
