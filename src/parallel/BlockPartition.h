//===- BlockPartition.h - Slice a shackled nest into block tasks *- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shackled LoopNest scans [params][b1..bM][schedule dims]: the outermost
/// M loop levels enumerate the touched blocks in traversal order, and the
/// subtrees below them perform the instances shackled to each block. This
/// pass walks exactly those outer levels with concrete parameter values,
/// and produces one task per block: its coordinates plus the list of
/// (subtree, bound-dimension snapshot) segments to execute. The scanner may
/// split a block dimension's index set into several sibling loops, so a
/// block's segments can come from different subtrees; they are recorded in
/// serial execution order and must run in that order within the block.
///
/// Hierarchical chains partition the same way with a *prefix* of the block
/// dimensions: passing the outer factors' dimension count makes the inner
/// factors' block loops part of the recorded segments, so one task covers a
/// whole outer block and replays its inner shackle levels serially in the
/// original shackled order. Nothing else changes - the walk only binds the
/// dimensions it is told are task coordinates.
///
/// The walk is purely structural: it never executes statements and never
/// touches array storage, so the resulting partition is immutable shared
/// input for any number of concurrent workers (each worker re-executes a
/// segment through its own interpreter state). The one thing a task learns
/// later is its write footprint, which undo capture memoizes in the task
/// (FootprintMemo) so that it is enumerated once per plan, not once per run.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_PARALLEL_BLOCKPARTITION_H
#define SHACKLE_PARALLEL_BLOCKPARTITION_H

#include "codegen/LoopAST.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace shackle {

/// One stretch of consecutive elements in a task's write footprint: Length
/// elements of array ArrayId, from linear offset Offset on.
struct FootprintRun {
  unsigned ArrayId = 0;
  int64_t Offset = 0;
  int64_t Length = 0;
  bool operator==(const FootprintRun &) const = default;
};

/// A write footprint as runs sorted by (array, offset), disjoint and never
/// adjacent: the run-length encoding of the sorted, deduplicated store set.
using FootprintRuns = std::vector<FootprintRun>;

/// Plan-lifetime memo of one task's write footprint. The footprint is a
/// pure function of the nest and the task's segments (parameter values
/// included), so undo capture (parallel/UndoLog.h) computes it at the
/// task's first capture and every later run of the plan reuses it. One slot
/// per enumerator that can produce it, so a capture that must run no
/// native code never consumes a footprint a compiled enumerator produced.
///
/// Concurrent runs of one shared plan fill each slot exactly once (under a
/// mutex) and read it lock-free afterwards. A copy starts empty.
class FootprintMemo {
public:
  enum Source : unsigned { Native, Interpreter };

  FootprintMemo() = default;
  FootprintMemo(const FootprintMemo &) noexcept {}
  FootprintMemo &operator=(const FootprintMemo &) noexcept {
    for (Slot &S : Slots) {
      S.Runs.reset();
      S.Fills.store(0, std::memory_order_relaxed);
    }
    return *this;
  }

  /// The footprint from \p S; the first call computes it with \p Fill.
  template <typename FillFn>
  std::shared_ptr<const FootprintRuns> get(Source S, FillFn &&Fill) const {
    Slot &Sl = Slots[S];
    if (Sl.Fills.load(std::memory_order_acquire) == 0) {
      std::lock_guard<std::mutex> Lock(FillM);
      if (Sl.Fills.load(std::memory_order_relaxed) == 0) {
        Sl.Runs = std::make_shared<const FootprintRuns>(Fill());
        Sl.Fills.fetch_add(1, std::memory_order_release);
      }
    }
    return Sl.Runs;
  }

  /// Times slot \p S was filled: 0 before the first capture, then 1.
  unsigned fills(Source S) const {
    return Slots[S].Fills.load(std::memory_order_acquire);
  }

private:
  struct Slot {
    std::shared_ptr<const FootprintRuns> Runs;
    std::atomic<unsigned> Fills{0};
  };
  mutable Slot Slots[2];
  mutable std::mutex FillM;
};

/// One schedulable unit: all instances the shackle ties to one block.
struct BlockTask {
  /// Block coordinates (b1..bM), negated where the plane set is Reversed -
  /// i.e. exactly the values of the nest's block dimensions.
  std::vector<int64_t> Coords;

  /// One entry per generated-code subtree belonging to this block, in
  /// serial execution order.
  struct Segment {
    const ASTNode *Node = nullptr;
    /// Snapshot of the nest's dimension values with params and all block
    /// dims bound (inner dims are scratch for the executing interpreter).
    std::vector<int64_t> DimValues;
  };
  std::vector<Segment> Segments;

  /// The task's write footprint, filled at its first undo capture.
  FootprintMemo Footprint;
};

struct BlockPartition {
  bool OK = false;
  /// Why partitioning failed (structure not recognized); empty when OK.
  std::string FailReason;
  /// Dimensions the nest was partitioned on - the full chain when flat, or
  /// an outer-factor prefix when hierarchical.
  unsigned NumBlockDims = 0;
  /// Tasks in block traversal order (first-visit order of the serial nest).
  std::vector<BlockTask> Tasks;

  /// Convenience: the coordinate tuples alone, for buildBlockDepGraph.
  std::vector<std::vector<int64_t>> coords() const {
    std::vector<std::vector<int64_t>> C;
    C.reserve(Tasks.size());
    for (const BlockTask &T : Tasks)
      C.push_back(T.Coords);
    return C;
  }

  /// Task-granularity stats: total code segments across all tasks, and the
  /// largest single task. A hierarchical partition has fewer tasks but the
  /// same total segment work, so segments/task measures the coarsening.
  uint64_t totalSegments() const {
    uint64_t Total = 0;
    for (const BlockTask &T : Tasks)
      Total += T.Segments.size();
    return Total;
  }
  std::size_t maxSegmentsPerTask() const {
    std::size_t Max = 0;
    for (const BlockTask &T : Tasks)
      Max = std::max(Max, T.Segments.size());
    return Max;
  }
};

/// Partitions \p Nest (a shackled or naive-shackled LoopNest whose dims
/// NumParams..NumParams+NumBlockDims-1 are the block coordinates) by block,
/// for the concrete \p ParamValues. Returns OK == false when the nest does
/// not have the expected block-loops-outside shape; callers then run the
/// nest serially instead. \p NumBlockDims may be a prefix of the nest's
/// block dimensions (hierarchical mode; see the file comment). A nonzero
/// \p MaxTasks bounds the walk: partitioning fails once the task count
/// exceeds it, so a pathologically fine flat partition degrades to serial
/// execution instead of exhausting memory.
BlockPartition partitionLoopNestByBlocks(const LoopNest &Nest,
                                         unsigned NumBlockDims,
                                         const std::vector<int64_t> &ParamValues,
                                         uint64_t MaxTasks = 0);

} // namespace shackle

#endif // SHACKLE_PARALLEL_BLOCKPARTITION_H
