//===- PlanCache.h - Sharded concurrent persistent plan cache ---*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's plan cache: a sharded, reader-mostly concurrent map from
/// canonical PlanKey digests to compiled plans (legality verdict, simplified
/// LoopAST, block partition, dependence DAG — the affinity map is derived
/// per run from the partition, which is cheap and thread-count-dependent).
///
///   * Single-flight: concurrent misses on one key compile once; waiters
///     block on the entry and are counted as coalesces.
///   * LRU-by-bytes eviction: live plans are charged their serialized size
///     plus their resident footprint runs (ParallelPlan::footprintBytes);
///     evicted plans fall back to their compact blob (still persisted, and
///     revivable on the next miss) so eviction frees the expensive
///     deserialized structures first.
///   * Persistence: a versioned, checksummed snapshot file
///     (PlanSerdes). Loaded blobs stay *pending* — keyed by digest, not yet
///     bound to any Program — and are deserialized lazily against the first
///     requesting program, whose canonical hash necessarily matches the
///     key's DslHash.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_SERVICE_PLANCACHE_H
#define SHACKLE_SERVICE_PLANCACHE_H

#include "parallel/ParallelExecutor.h"
#include "service/PlanKey.h"
#include "service/PlanSerdes.h"
#include "support/Diagnostics.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace shackle {

/// One cached compilation: the plan plus the program it was compiled
/// against (plans hold pointers into their program, so the two share a
/// lifetime) and the serialized form used for accounting and persistence.
struct CachedPlan {
  PlanKey Key;
  std::shared_ptr<const Program> Prog;
  ParallelPlan Plan;
  std::string Blob; ///< Empty when the plan is not worth persisting.
};

struct PlanCacheStats {
  uint64_t Hits = 0;      ///< Served from a live entry (or revived blob).
  uint64_t Misses = 0;    ///< Full compilations performed.
  uint64_t Coalesced = 0; ///< Waiters that piggybacked on another's build.
  uint64_t Evictions = 0; ///< Live entries demoted to pending blobs.
  uint64_t BytesInUse = 0;
  uint64_t Entries = 0;
  uint64_t PendingBlobs = 0; ///< Loaded-from-disk plans not yet bound.
};

class PlanCache {
public:
  explicit PlanCache(uint64_t MaxBytes = 256ull << 20);
  ~PlanCache(); ///< Out of line: Shard is incomplete here.

  struct Outcome {
    std::shared_ptr<const CachedPlan> Plan; ///< Null on build failure.
    bool Hit = false;          ///< Found live, coalesced, or revived.
    bool Coalesced = false;    ///< Waited on another request's build.
    bool FromSnapshot = false; ///< Revived from a persisted blob.
    std::string Error;         ///< Set when Plan is null.
  };

  /// Looks \p Key up; on a miss, runs \p Build exactly once across all
  /// concurrent callers of the same key (single-flight) after first trying
  /// to revive a pending snapshot blob against \p Prog. \p Build must
  /// return the compiled plan; exceptions fail all waiters of this flight.
  Outcome getOrBuild(const PlanKey &Key, std::shared_ptr<const Program> Prog,
                     const std::function<ParallelPlan()> &Build);

  /// Loads \p Path into the pending-blob set (see class comment). Any
  /// malformed file yields an error status and leaves the cache empty but
  /// usable — callers warn and continue cold.
  Status loadSnapshot(const std::string &Path);

  /// Persists every persistable live plan plus still-pending blobs.
  Status saveSnapshot(const std::string &Path) const;

  PlanCacheStats stats() const;

private:
  struct Entry;
  struct Shard;

  Shard &shardFor(uint64_t Digest) const;
  /// Demotes LRU entries until the shard fits its budget. Caller holds the
  /// shard lock.
  void evictLocked(Shard &S);

  static constexpr unsigned NumShards = 16;
  std::unique_ptr<Shard[]> Shards;
  uint64_t MaxBytesPerShard;

  mutable std::mutex PendingM;
  std::unordered_map<uint64_t, SnapshotEntry> Pending;

  mutable std::mutex StatsM;
  PlanCacheStats Counters; ///< Hits/Misses/Coalesced/Evictions only.
};

} // namespace shackle

#endif // SHACKLE_SERVICE_PLANCACHE_H
