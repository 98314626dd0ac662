//===- PlanCache.cpp - Sharded concurrent persistent plan cache ---------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "service/PlanCache.h"

#include <algorithm>
#include <cassert>

using namespace shackle;

/// A cache slot. Building entries are the single-flight rendezvous: the
/// first missing request inserts one and compiles; later requests wait on
/// the shard CV until the state leaves Building.
struct PlanCache::Entry {
  enum class State { Building, Ready, Failed };
  State St = State::Building;
  std::shared_ptr<const CachedPlan> Plan;
  std::string FailMsg;
  uint64_t Bytes = 0;
  uint64_t LruTick = 0;
};

struct PlanCache::Shard {
  mutable std::mutex M;
  std::condition_variable CV;
  std::unordered_map<uint64_t, std::shared_ptr<Entry>> Map;
  uint64_t Bytes = 0;
  uint64_t Tick = 0;
};

PlanCache::PlanCache(uint64_t MaxBytes)
    : Shards(new Shard[NumShards]),
      MaxBytesPerShard(std::max<uint64_t>(1, MaxBytes / NumShards)) {}

PlanCache::~PlanCache() = default;

PlanCache::Shard &PlanCache::shardFor(uint64_t Digest) const {
  // The digest is SplitMix64-finalized, so the low bits are well mixed.
  return Shards[Digest % NumShards];
}

void PlanCache::evictLocked(Shard &S) {
  while (S.Bytes > MaxBytesPerShard && S.Map.size() > 1) {
    uint64_t OldestTick = ~0ull;
    uint64_t OldestDigest = 0;
    std::shared_ptr<Entry> Oldest;
    for (const auto &[Digest, E] : S.Map) {
      if (E->St != Entry::State::Ready)
        continue; // Never evict an in-flight build.
      if (E->LruTick < OldestTick) {
        OldestTick = E->LruTick;
        OldestDigest = Digest;
        Oldest = E;
      }
    }
    if (!Oldest || Oldest->LruTick == S.Tick)
      break; // Nothing evictable but the entry just touched.
    // Demote to a pending blob: the expensive deserialized plan is freed,
    // but the compact form stays revivable and persistable.
    if (Oldest->Plan && !Oldest->Plan->Blob.empty()) {
      std::lock_guard<std::mutex> PLock(PendingM);
      Pending[OldestDigest] =
          SnapshotEntry{Oldest->Plan->Key, Oldest->Plan->Blob};
    }
    S.Bytes -= std::min(S.Bytes, Oldest->Bytes);
    S.Map.erase(OldestDigest);
    {
      std::lock_guard<std::mutex> SLock(StatsM);
      ++Counters.Evictions;
    }
  }
}

PlanCache::Outcome
PlanCache::getOrBuild(const PlanKey &Key,
                      std::shared_ptr<const Program> Prog,
                      const std::function<ParallelPlan()> &Build) {
  Outcome Out;
  uint64_t Digest = Key.digest();
  Shard &S = shardFor(Digest);

  std::shared_ptr<Entry> E;
  {
    std::unique_lock<std::mutex> Lock(S.M);
    auto It = S.Map.find(Digest);
    if (It != S.Map.end()) {
      E = It->second;
      if (E->St == Entry::State::Building) {
        // Single-flight: wait for the builder, never compile twice.
        {
          std::lock_guard<std::mutex> SLock(StatsM);
          ++Counters.Coalesced;
        }
        Out.Coalesced = true;
        S.CV.wait(Lock, [&] { return E->St != Entry::State::Building; });
      }
      if (E->St == Entry::State::Ready) {
        E->LruTick = ++S.Tick;
        Out.Plan = E->Plan;
        Out.Hit = true;
        std::lock_guard<std::mutex> SLock(StatsM);
        ++Counters.Hits;
        return Out;
      }
      // Failed flight: report the builder's error to this waiter too. The
      // entry was already erased by the builder, so the next request
      // retries cleanly.
      Out.Error = E->FailMsg;
      return Out;
    }
    E = std::make_shared<Entry>();
    S.Map[Digest] = E;
  }

  // We own this flight; compile outside the lock so readers of other keys
  // and coalescing waiters are never blocked behind Omega.
  std::shared_ptr<CachedPlan> Built;
  std::string Error;
  bool FromSnapshot = false;

  SnapshotEntry Blob;
  bool HaveBlob = false;
  {
    std::lock_guard<std::mutex> PLock(PendingM);
    auto It = Pending.find(Digest);
    if (It != Pending.end()) {
      Blob = std::move(It->second);
      Pending.erase(It);
      HaveBlob = true;
    }
  }
  if (HaveBlob) {
    ParallelPlanParts Parts;
    std::string DErr;
    if (deserializePlan(Blob.Blob, *Prog, Parts, &DErr)) {
      Built = std::make_shared<CachedPlan>();
      Built->Key = Key;
      Built->Prog = Prog;
      Built->Plan = ParallelPlan::fromParts(std::move(Parts));
      Built->Blob = std::move(Blob.Blob);
      FromSnapshot = true;
    }
    // A blob that fails to deserialize is dropped silently into a cold
    // compile: the snapshot-level checksum already vouched for file
    // integrity, so this only happens across incompatible builds.
  }

  if (!Built) {
    try {
      auto CP = std::make_shared<CachedPlan>();
      CP->Key = Key;
      CP->Prog = Prog;
      CP->Plan = Build();
      if (CP->Plan.parallelReady())
        CP->Blob = serializePlan(CP->Plan);
      Built = std::move(CP);
    } catch (const std::exception &Ex) {
      Error = Ex.what();
    } catch (...) {
      Error = "plan build failed";
    }
  }

  {
    std::unique_lock<std::mutex> Lock(S.M);
    if (Built) {
      E->St = Entry::State::Ready;
      E->Plan = Built;
      // Accounting: the serialized size stands for the plan's structure
      // (plans too degraded to serialize get a nominal charge so they
      // still participate in LRU); the footprint runs computed at build
      // are resident on top of it and often larger.
      E->Bytes = (Built->Blob.empty() ? 1024 : Built->Blob.size()) +
                 Built->Plan.footprintBytes();
      E->LruTick = ++S.Tick;
      S.Bytes += E->Bytes;
      evictLocked(S);
    } else {
      E->St = Entry::State::Failed;
      E->FailMsg = Error;
      S.Map.erase(Digest); // Next request retries from scratch.
    }
    S.CV.notify_all();
  }

  {
    std::lock_guard<std::mutex> SLock(StatsM);
    if (Built && FromSnapshot)
      ++Counters.Hits; // A disk hit: no compilation happened.
    else
      ++Counters.Misses;
  }
  Out.Plan = Built;
  Out.Hit = Built && FromSnapshot;
  Out.FromSnapshot = FromSnapshot;
  Out.Error = Error;
  return Out;
}

Status PlanCache::loadSnapshot(const std::string &Path) {
  std::vector<SnapshotEntry> Entries;
  Status S = loadSnapshotFile(Path, Entries);
  if (!S.ok())
    return S;
  std::lock_guard<std::mutex> Lock(PendingM);
  for (SnapshotEntry &E : Entries) {
    uint64_t Digest = E.Key.digest();
    Pending[Digest] = std::move(E);
  }
  return Status::success();
}

Status PlanCache::saveSnapshot(const std::string &Path) const {
  std::vector<SnapshotEntry> Entries;
  for (unsigned I = 0; I < NumShards; ++I) {
    Shard &S = Shards[I];
    std::lock_guard<std::mutex> Lock(S.M);
    for (const auto &[Digest, E] : S.Map) {
      (void)Digest;
      if (E->St == Entry::State::Ready && E->Plan && !E->Plan->Blob.empty())
        Entries.push_back(SnapshotEntry{E->Plan->Key, E->Plan->Blob});
    }
  }
  {
    std::lock_guard<std::mutex> Lock(PendingM);
    for (const auto &[Digest, E] : Pending) {
      (void)Digest;
      Entries.push_back(E);
    }
  }
  return saveSnapshotFile(Path, Entries);
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats Out;
  {
    std::lock_guard<std::mutex> SLock(StatsM);
    Out = Counters;
  }
  for (unsigned I = 0; I < NumShards; ++I) {
    Shard &S = Shards[I];
    std::lock_guard<std::mutex> Lock(S.M);
    Out.BytesInUse += S.Bytes;
    Out.Entries += S.Map.size();
  }
  {
    std::lock_guard<std::mutex> Lock(PendingM);
    Out.PendingBlobs = Pending.size();
  }
  return Out;
}
