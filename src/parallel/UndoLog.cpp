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
#include <utility>

using namespace shackle;

namespace {

/// Packed (array, offset) key: array id in the top 23 bits, offset in the
/// low 41. Unsigned compares on the packed key order exactly like the
/// lexicographic pair order, which is what keeps the fast path's undo logs
/// byte-identical to the generic path's.
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

/// Sort + dedup the raw (array, offset) pairs and snapshot the pre-images.
/// Shared by the interpreter-walk and native-enumerator capture paths, so
/// both produce byte-identical undo logs for the same store set. This is
/// the hot part of undo capture (one call per task, footprint-sized), so
/// the common case — ids/offsets that fit the packed key — takes a
/// radix-sorted fast path; anything else falls back to the generic sort.
/// Raw-footprint scratch reused across captures on the same worker thread:
/// one capture runs per task, and the dominant footprints (dense block
/// rectangles) would otherwise realloc the same few hundred KB per task.
std::vector<std::pair<unsigned, int64_t>> &footprintScratch() {
  static thread_local std::vector<std::pair<unsigned, int64_t>> V;
  V.clear();
  return V;
}

BlockUndoLog
snapshotFootprint(std::vector<std::pair<unsigned, int64_t>> &Footprint,
                  const ProgramInstance &Inst) {
  bool Packable = true;
  for (const auto &[ArrayId, Offset] : Footprint)
    if (ArrayId > PackMaxArray || Offset < 0 || Offset > PackMaxOffset) {
      Packable = false;
      break;
    }

  BlockUndoLog Log;
  if (Packable && !Footprint.empty()) {
    static thread_local std::vector<uint64_t> Keys;
    Keys.clear();
    Keys.reserve(Footprint.size());
    for (const auto &[ArrayId, Offset] : Footprint)
      Keys.push_back((uint64_t(ArrayId) << PackOffsetBits) |
                     uint64_t(Offset));
    radixSortKeys(Keys);
    Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());
    Log.Entries.reserve(Keys.size());
    unsigned CurArray = ~0u;
    const double *Buf = nullptr;
    for (uint64_t K : Keys) {
      const unsigned ArrayId = static_cast<unsigned>(K >> PackOffsetBits);
      const int64_t Offset = static_cast<int64_t>(K & PackMaxOffset);
      if (ArrayId != CurArray) {
        CurArray = ArrayId;
        Buf = Inst.buffer(ArrayId).data();
      }
      assert(static_cast<std::size_t>(Offset) <
                 Inst.buffer(ArrayId).size() &&
             "undo footprint offset outside the array extent");
      Log.Entries.push_back({ArrayId, Offset, Buf[Offset]});
    }
    return Log;
  }

  std::sort(Footprint.begin(), Footprint.end());
  Footprint.erase(std::unique(Footprint.begin(), Footprint.end()),
                  Footprint.end());

  Log.Entries.reserve(Footprint.size());
  for (const auto &[ArrayId, Offset] : Footprint) {
    // A footprint offset outside the array extent means the write walk (or
    // the native-codegen enumerator feeding it) is broken; corrupting a
    // diagnostic here beats corrupting memory below.
    assert(Offset >= 0 &&
           static_cast<std::size_t>(Offset) < Inst.buffer(ArrayId).size() &&
           "undo footprint offset outside the array extent");
    Log.Entries.push_back(
        {ArrayId, Offset,
         Inst.buffer(ArrayId)[static_cast<std::size_t>(Offset)]});
  }
  return Log;
}

} // namespace

BlockUndoLog shackle::captureBlockUndo(const LoopNest &Nest,
                                       const BlockTask &Task,
                                       const ProgramInstance &Inst) {
  std::vector<std::pair<unsigned, int64_t>> &Footprint = footprintScratch();
  WriteSink Sink = [&Footprint](unsigned ArrayId, int64_t Offset) {
    Footprint.emplace_back(ArrayId, Offset);
  };
  for (const BlockTask::Segment &Seg : Task.Segments)
    collectSubtreeWrites(Nest, *Seg.Node, Seg.DimValues, Inst, Sink);
  return snapshotFootprint(Footprint, Inst);
}

BlockUndoLog shackle::captureBlockUndo(const LoopNest &Nest,
                                       const BlockTask &Task,
                                       uint32_t TaskId,
                                       const ProgramInstance &Inst,
                                       const NativeDispatch *Native) {
  NativeWritesFn TaskFn =
      Native ? Native->taskWritesFor(TaskId) : nullptr;
  if (!TaskFn || Task.Segments.empty())
    return captureBlockUndo(Nest, Task, Inst);

  // One enumerator call over the task's flattened per-segment DimValues —
  // the same protocol as the task-grain execution kernel.
  std::vector<int64_t> Flat;
  Flat.reserve(Task.Segments.size() * Nest.NumDims);
  for (const BlockTask::Segment &Seg : Task.Segments)
    Flat.insert(Flat.end(), Seg.DimValues.begin(), Seg.DimValues.end());

  std::vector<std::pair<unsigned, int64_t>> &Footprint = footprintScratch();
  NativeWriteSinkFn Sink = [](void *Ctx, int64_t ArrayId, int64_t Offset) {
    static_cast<std::vector<std::pair<unsigned, int64_t>> *>(Ctx)
        ->emplace_back(static_cast<unsigned>(ArrayId), Offset);
  };
  TaskFn(Flat.data(), Sink, &Footprint);
  return snapshotFootprint(Footprint, Inst);
}

void shackle::restoreBlockUndo(const BlockUndoLog &Log,
                               ProgramInstance &Inst) {
  for (const BlockUndoLog::Entry &E : Log.Entries) {
    assert(E.Offset >= 0 &&
           static_cast<std::size_t>(E.Offset) <
               Inst.buffer(E.ArrayId).size() &&
           "undo entry offset outside the array extent");
    Inst.buffer(E.ArrayId)[static_cast<std::size_t>(E.Offset)] = E.Value;
  }
}
