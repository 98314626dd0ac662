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
/// segment through its own interpreter state).
///
/// A block is a fixed piece of data (Definition 1), so a task's write
/// footprint is a polyhedron: each store's image over the task's iteration
/// set. computeFootprints projects every store under a segment root once —
/// path constraints plus a_p = index_p, the root's dims eliminated by
/// certified-exact Fourier-Motzkin, the dims bound outside kept symbolic —
/// so per task it only evaluates row bounds, emitting (array, offset,
/// length) runs along the array's contiguous axis. An uncertified task
/// falls back to the interpreter's write walk, the oracle footprints are
/// tested against.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_PARALLEL_BLOCKPARTITION_H
#define SHACKLE_PARALLEL_BLOCKPARTITION_H

#include "codegen/LoopAST.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace shackle {

/// One stretch of consecutive elements in a task's write footprint: Length
/// elements of array ArrayId, from linear offset Offset on.
struct FootprintRun {
  unsigned ArrayId = 0;
  int64_t Offset = 0;
  int64_t Length = 0;
  auto operator<=>(const FootprintRun &) const = default;
};

/// A write footprint as runs sorted by (array, offset), disjoint and never
/// adjacent: the run-length encoding of the sorted, deduplicated store set.
using FootprintRuns = std::vector<FootprintRun>;

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

  /// The task's write footprint, set at plan build by computeFootprints
  /// (null before; immutable and shared by every run of the plan).
  std::shared_ptr<const FootprintRuns> Footprint;
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

class ArrayAddressing;

/// Sets the Footprint of every task of \p Part (an OK partition of \p Nest)
/// from the exact projections described in the file comment. Returns the
/// number of tasks that fell back to the interpreter's write walk because
/// some projection could not be certified exact.
unsigned computeFootprints(const LoopNest &Nest, BlockPartition &Part,
                           const ArrayAddressing &Addr);

/// The union of every task's Footprint in \p Part, as runs in the same
/// sorted, disjoint form: everything a run of the partition can write.
FootprintRuns unionFootprints(const BlockPartition &Part);

/// The write footprint of \p Task by the interpreter's write walk: every
/// store of every segment, sorted, deduplicated and run-length encoded.
FootprintRuns walkFootprint(const LoopNest &Nest, const BlockTask &Task,
                            const ArrayAddressing &Addr);

} // namespace shackle

#endif // SHACKLE_PARALLEL_BLOCKPARTITION_H
