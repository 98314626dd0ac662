//===- Affinity.h - Locality-aware task placement ---------------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owner-computes placement for block tasks. The partition lists tasks in
/// the lexicographic block traversal order of the shackled nest, which is
/// exactly the order in which the cutting planes sweep the shackled array:
/// adjacent tasks touch adjacent array panels. buildAffinityMap therefore
/// assigns each worker one *contiguous* range of that order, weighted by
/// segment count so uneven partitions still balance, and records the home
/// worker per task. Seeding the scheduler from this map (instead of
/// round-robin) keeps a worker's tasks on the panels it just warmed, so
/// steals become the exception rather than the steady state.
///
/// The map is a pure function of (task weights, worker count): cheap enough
/// to rebuild per run (the worker count is a run option, not a plan
/// property) and deterministic, so tests can recompute the exact placement
/// the executor used.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_PARALLEL_AFFINITY_H
#define SHACKLE_PARALLEL_AFFINITY_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shackle {

struct BlockPartition;

/// Task -> home-worker assignment: contiguous, weight-balanced ranges of
/// the lexicographic task order.
struct AffinityMap {
  unsigned NumWorkers = 0;
  /// Home[T] is task T's home worker; size == number of tasks.
  std::vector<uint32_t> Home;
  /// NumWorkers + 1 boundaries into the task order: worker W owns tasks
  /// [RangeBegin[W], RangeBegin[W + 1]). Ranges tile the task list exactly;
  /// a range may be empty when there are fewer tasks (or less weight) than
  /// workers.
  std::vector<uint32_t> RangeBegin;

  bool valid() const { return NumWorkers > 0; }
};

/// Splits tasks 0..NumTasks-1 (in order) into NumWorkers contiguous ranges
/// whose \p Weights sums are as even as the prefix structure allows: the
/// cut before worker W is the prefix boundary nearest W/NumWorkers of the
/// total weight. Every task gets exactly one home.
AffinityMap buildAffinityMap(std::size_t NumTasks,
                             const std::vector<uint64_t> &Weights,
                             unsigned NumWorkers);

/// Convenience overload: weights are the tasks' segment counts (>= 1), so
/// hierarchical tasks that replay more inner work count proportionally.
AffinityMap buildAffinityMap(const BlockPartition &Part, unsigned NumWorkers);

/// Locality-domain width for a pool of \p NumWorkers: on Linux the worker
/// count is divided evenly over the machine's NUMA nodes
/// (/sys/devices/system/node); on a single-node machine (or any platform
/// where detection fails) all workers share one domain.
unsigned detectDomainSize(unsigned NumWorkers);

} // namespace shackle

#endif // SHACKLE_PARALLEL_AFFINITY_H
