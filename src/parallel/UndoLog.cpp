//===- UndoLog.cpp - Block write-footprint snapshots -------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "parallel/UndoLog.h"

#include "parallel/ParallelExecutor.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>

using namespace shackle;

namespace {

/// Packed (array, offset) key: array id in the top 23 bits, offset in the
/// low 41. Unsigned compares on the packed key order exactly like the
/// lexicographic pair order, which is what keeps the fast path's runs
/// identical to the generic path's.
constexpr unsigned PackOffsetBits = 41;
constexpr int64_t PackMaxOffset = (int64_t(1) << PackOffsetBits) - 1;
constexpr unsigned PackMaxArray = (1u << (64 - PackOffsetBits)) - 1;

/// LSD radix sort over only the bytes that actually vary across \p Keys
/// (undo footprints cluster in one block of one array, so typically 2-3 of
/// the 8 bytes). Thread-local scratch: capture runs per-task on worker
/// threads, and per-task heap churn is exactly what this path is avoiding.
void radixSortKeys(std::vector<uint64_t> &Keys) {
  uint64_t OrAll = 0, AndAll = ~uint64_t(0);
  for (uint64_t K : Keys) {
    OrAll |= K;
    AndAll &= K;
  }
  const uint64_t Varying = OrAll & ~AndAll;
  static thread_local std::vector<uint64_t> Scratch;
  Scratch.resize(Keys.size());
  uint64_t *Src = Keys.data(), *Dst = Scratch.data();
  for (unsigned Byte = 0; Byte < 8; ++Byte) {
    if (!((Varying >> (Byte * 8)) & 0xff))
      continue; // Constant byte: no pass needed.
    uint32_t Count[256] = {};
    const unsigned Shift = Byte * 8;
    for (std::size_t I = 0; I < Keys.size(); ++I)
      ++Count[(Src[I] >> Shift) & 0xff];
    uint32_t Pos = 0;
    for (unsigned B = 0; B < 256; ++B) {
      uint32_t C = Count[B];
      Count[B] = Pos;
      Pos += C;
    }
    for (std::size_t I = 0; I < Keys.size(); ++I)
      Dst[Count[(Src[I] >> Shift) & 0xff]++] = Src[I];
    std::swap(Src, Dst);
  }
  if (Src != Keys.data())
    std::copy(Src, Src + Keys.size(), Keys.data());
}

/// Raw-footprint scratch reused across fills on the same worker thread:
/// an enumerator reports every store, duplicates included, so the raw set
/// can be many times the footprint.
using RawFootprint = std::vector<std::pair<unsigned, int64_t>>;

RawFootprint &footprintScratch() {
  static thread_local RawFootprint V;
  V.clear();
  return V;
}

/// Appends one element of an ascending (array, offset) stream, where
/// duplicates arrive adjacent, to the run list.
void appendElement(FootprintRuns &Runs, unsigned ArrayId, int64_t Offset) {
  if (!Runs.empty() && Runs.back().ArrayId == ArrayId) {
    FootprintRun &Last = Runs.back();
    const int64_t End = Last.Offset + Last.Length;
    if (Offset < End)
      return; // Duplicate store.
    if (Offset == End) {
      ++Last.Length;
      return;
    }
  }
  Runs.push_back({ArrayId, Offset, 1});
}

/// Sorts, deduplicates and run-length encodes a raw store set. Shared by
/// the interpreter walk and the native enumerator, so both produce
/// identical runs for the same store set. The common case — ids and
/// offsets that fit the packed key — takes the radix-sorted path; anything
/// else falls back to the generic sort.
FootprintRuns encodeRuns(RawFootprint &Raw,
                          [[maybe_unused]] const ProgramInstance &Inst) {
  bool Packable = true;
  for (const auto &[ArrayId, Offset] : Raw)
    if (ArrayId > PackMaxArray || Offset < 0 || Offset > PackMaxOffset) {
      Packable = false;
      break;
    }

  FootprintRuns Runs;
  if (Packable) {
    static thread_local std::vector<uint64_t> Keys;
    Keys.clear();
    Keys.reserve(Raw.size());
    for (const auto &[ArrayId, Offset] : Raw)
      Keys.push_back((uint64_t(ArrayId) << PackOffsetBits) |
                     uint64_t(Offset));
    radixSortKeys(Keys);
    for (uint64_t K : Keys)
      appendElement(Runs, static_cast<unsigned>(K >> PackOffsetBits),
                    static_cast<int64_t>(K & PackMaxOffset));
  } else {
    std::sort(Raw.begin(), Raw.end());
    for (const auto &[ArrayId, Offset] : Raw)
      appendElement(Runs, ArrayId, Offset);
  }
  // A run outside the array extent means the write walk (or the native
  // enumerator feeding it) is broken; a failed assertion here beats
  // corrupting memory at every later capture and restore.
  for ([[maybe_unused]] const FootprintRun &R : Runs)
    assert(R.Offset >= 0 &&
           static_cast<std::size_t>(R.Offset + R.Length) <=
               Inst.buffer(R.ArrayId).size() &&
           "undo footprint run outside the array extent");
  return Runs;
}

FootprintRuns interpreterRuns(const LoopNest &Nest, const BlockTask &Task,
                              const ProgramInstance &Inst) {
  RawFootprint &Raw = footprintScratch();
  WriteSink Sink = [&Raw](unsigned ArrayId, int64_t Offset) {
    Raw.emplace_back(ArrayId, Offset);
  };
  for (const BlockTask::Segment &Seg : Task.Segments)
    collectSubtreeWrites(Nest, *Seg.Node, Seg.DimValues, Inst, Sink);
  return encodeRuns(Raw, Inst);
}

/// One enumerator call over the task's flattened per-segment DimValues —
/// the same protocol as the task kernel.
FootprintRuns nativeRuns(NativeWritesFn Writes, const LoopNest &Nest,
                         const BlockTask &Task, const ProgramInstance &Inst) {
  std::vector<int64_t> Flat;
  Flat.reserve(Task.Segments.size() * Nest.NumDims);
  for (const BlockTask::Segment &Seg : Task.Segments)
    Flat.insert(Flat.end(), Seg.DimValues.begin(), Seg.DimValues.end());

  RawFootprint &Raw = footprintScratch();
  NativeWriteSinkFn Sink = [](void *Ctx, int64_t ArrayId, int64_t Offset) {
    static_cast<RawFootprint *>(Ctx)->emplace_back(
        static_cast<unsigned>(ArrayId), Offset);
  };
  Writes(Flat.data(), Sink, &Raw);
  return encodeRuns(Raw, Inst);
}

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
  return snapshotRuns(std::make_shared<const FootprintRuns>(
                          interpreterRuns(Nest, Task, Inst)),
                      Inst);
}

BlockUndoLog shackle::captureBlockUndo(const LoopNest &Nest,
                                       const BlockTask &Task,
                                       uint32_t TaskId,
                                       const ProgramInstance &Inst,
                                       const NativeDispatch *Native) {
  NativeWritesFn Writes = Native && !Task.Segments.empty()
                              ? Native->taskWritesFor(TaskId)
                              : nullptr;
  std::shared_ptr<const FootprintRuns> Runs =
      Writes ? Task.Footprint.get(FootprintMemo::Native,
                                  [&] {
                                    return nativeRuns(Writes, Nest, Task,
                                                      Inst);
                                  })
             : Task.Footprint.get(FootprintMemo::Interpreter, [&] {
                 return interpreterRuns(Nest, Task, Inst);
               });
  return snapshotRuns(std::move(Runs), Inst);
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
