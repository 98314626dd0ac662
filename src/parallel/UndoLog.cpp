//===- UndoLog.cpp - Block write-footprint snapshots -------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "parallel/UndoLog.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>

using namespace shackle;

namespace {

/// Copies the pre-images of \p Runs out of \p Inst, one memcpy per run.
BlockUndoLog snapshotRuns(std::shared_ptr<const FootprintRuns> Runs,
                          const ProgramInstance &Inst) {
  BlockUndoLog Log;
  std::size_t Elements = 0;
  for (const FootprintRun &R : *Runs)
    Elements += static_cast<std::size_t>(R.Length);
  Log.Entries.reserve(Elements);
  for (const FootprintRun &R : *Runs) {
    assert(static_cast<std::size_t>(R.Offset + R.Length) <=
               Inst.buffer(R.ArrayId).size() &&
           "undo footprint run outside the array extent");
    const double *Src = Inst.buffer(R.ArrayId).data() + R.Offset;
    Log.Entries.insert(Log.Entries.end(), Src, Src + R.Length);
  }
  Log.Runs = std::move(Runs);
  return Log;
}

} // namespace

const FootprintRuns &BlockUndoLog::runs() const {
  static const FootprintRuns None;
  return Runs ? *Runs : None;
}

std::pair<unsigned, int64_t> BlockUndoLog::element(std::size_t I) const {
  for (const FootprintRun &R : runs()) {
    if (I < static_cast<std::size_t>(R.Length))
      return {R.ArrayId, R.Offset + static_cast<int64_t>(I)};
    I -= static_cast<std::size_t>(R.Length);
  }
  assert(false && "undo log element index past the footprint");
  return {0, 0};
}

BlockUndoLog shackle::captureBlockUndo(const LoopNest &Nest,
                                       const BlockTask &Task,
                                       const ProgramInstance &Inst) {
  return snapshotRuns(
      std::make_shared<const FootprintRuns>(walkFootprint(Nest, Task, Inst)),
      Inst);
}

BlockUndoLog shackle::captureBlockUndo(const BlockTask &Task,
                                       const ProgramInstance &Inst) {
  assert(Task.Footprint && "footprints are computed at plan build");
  return snapshotRuns(Task.Footprint, Inst);
}

void shackle::restoreBlockUndo(const BlockUndoLog &Log,
                               ProgramInstance &Inst) {
  const double *Src = Log.Entries.data();
  for (const FootprintRun &R : Log.runs()) {
    assert(Src + R.Length <= Log.Entries.data() + Log.Entries.size() &&
           static_cast<std::size_t>(R.Offset + R.Length) <=
               Inst.buffer(R.ArrayId).size() &&
           "undo run outside the log or the array extent");
    std::memcpy(Inst.buffer(R.ArrayId).data() + R.Offset, Src,
                static_cast<std::size_t>(R.Length) * sizeof(double));
    Src += R.Length;
  }
}
