//===- bench_locality_mmm.cpp - Steal-locality of block placement ------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Measures how much of the paper's data-centric locality survives parallel
// execution under three placement/stealing policies on the two-level MMM
// chain (Figure 10):
//
//   mode 0  affinity     affinity-seeded homes + hierarchical local-first
//                        stealing (the default policy)
//   mode 1  round-robin  legacy round-robin seeding, successors stay with
//                        the finishing worker, deterministic flat scan
//   mode 2  random       round-robin seeding plus seeded random-victim
//                        stealing - the locality-oblivious worst case
//
// BM_LocalityExec sweeps threads {1, 2, 4, 8}, clamped to the host's cores,
// at two task levels (flat and outer-blocks-only) and reports, per
// configuration, the per-run mean of the steal telemetry over all timed
// iterations: steals / local_steals / home_hit_pct / bytes_migrated.
// The acceptance bar is affinity cutting
// total steals by >= 2x against round-robin at 4+ threads. The geometry
// {N=64, Outer=16, Inner=4} is DAG-shape-equivalent to the paper-scale
// {N=1024, Outer=256, Inner=64} configuration (same block counts per
// dimension), scaled down so interpreted execution stays benchmarkable.
//
// BM_LocalityCacheMiss replays each worker's memory trace through its own
// private two-level cache simulator and reports the summed per-worker L1
// and L2 miss counts (l1_misses / l2_misses), making the cache cost of
// locality-oblivious stealing visible, not just the steal counts.
//
// BM_LocalitySim runs the same three policies through a deterministic
// discrete-event model of W *truly concurrent* workers (virtual time,
// weight-proportional task durations with seeded jitter) over the real
// block DAG and the real affinity map. Real-execution steal counts depend
// on how many physical cores the host gives the workers - on an
// oversubscribed or single-core host the OS timeslices the pool and the
// counts measure preemption timing, not placement policy - so the
// simulated counts are the reproducible form of the steal-reduction
// comparison.
//
// `--json out.json` emits every counter per record (see BenchUtil.h).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "cachesim/CacheSim.h"
#include "interp/Interpreter.h"
#include "parallel/ParallelExecutor.h"
#include "programs/Benchmarks.h"

#include <algorithm>
#include <initializer_list>
#include <thread>
#include <vector>

using namespace shackle;
using namespace shackle_bench;

namespace {

double mmmFlops(int64_t N) {
  double Nd = static_cast<double>(N);
  return 2.0 * Nd * Nd * Nd;
}

/// SplitMix64 finalizer (same mix the scheduler's random-victim scan
/// uses), so simulated victim orders match the real scheduler's.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

struct SimOut {
  uint64_t Steals = 0;
  uint64_t LocalSteals = 0;
  uint64_t HomeHits = 0;
  uint64_t Tasks = 0;
  uint64_t Makespan = 0;
};

/// Discrete-event model of the scheduler's placement policy with W
/// workers that genuinely run in parallel (each advances through virtual
/// time independently; no host timeslicing). Mirrors the runtime's
/// routing rules: affinity seeds homes and mails released successors to
/// their home worker; round-robin scatters the first wavefront and keeps
/// successors with the finisher. The steal ladder is the runtime's
/// (own queue, own mailbox, same-domain deque ring, remote deques,
/// foreign mailboxes; or the seeded random full-ring scan), minus the
/// failed-scan hysteresis - an idle simulated worker retries exactly when
/// new work appears. Task durations are Weights[T] * 64 ticks plus a
/// deterministic ~12% jitter keyed on (Seed, T), modeling execution-time
/// variance; everything is a pure function of its arguments.
SimOut simulatePlacement(const BlockDepGraph &G,
                         const std::vector<uint64_t> &Weights,
                         const AffinityMap *AMap, unsigned W,
                         unsigned DomSize, bool RandomSteal, uint64_t Seed) {
  const std::size_t N = G.numBlocks();
  SimOut O;
  if (W == 0 || N == 0)
    return O;
  if (DomSize == 0 || DomSize > W)
    DomSize = W;
  std::vector<uint32_t> Deg(G.InDegree);
  std::vector<std::vector<uint32_t>> Q(W), MB(W);

  unsigned Next = 0;
  for (uint32_t T = 0; T < static_cast<uint32_t>(N); ++T)
    if (Deg[T] == 0) {
      if (AMap) {
        Q[AMap->Home[T]].push_back(T);
      } else {
        Q[Next].push_back(T);
        Next = (Next + 1) % W;
      }
    }

  auto domainOf = [DomSize](unsigned X) { return X / DomSize; };
  auto dur = [&](uint32_t T) {
    uint64_t B = (T < Weights.size() && Weights[T] > 0 ? Weights[T] : 1) * 64;
    return B + mix64(static_cast<uint64_t>(T) ^ Seed) % (B / 8 + 1);
  };
  auto countSteal = [&](unsigned Me, unsigned Victim) {
    ++O.Steals;
    if (domainOf(Victim) == domainOf(Me))
      ++O.LocalSteals;
  };
  // Steal the *oldest* entry, like a Chase-Lev thief taking the top end.
  auto stealFront = [](std::vector<uint32_t> &V, uint32_t &T) {
    T = V.front();
    V.erase(V.begin());
  };

  uint64_t Now = 0, StealNonce = 0;
  auto tryGet = [&](unsigned Me, uint32_t &T) {
    if (!Q[Me].empty()) {
      T = Q[Me].back();
      Q[Me].pop_back();
      return true;
    }
    if (AMap && !MB[Me].empty()) {
      T = MB[Me].back();
      MB[Me].pop_back();
      return true;
    }
    if (RandomSteal) {
      if (W > 1) {
        uint64_t R =
            mix64(Seed ^ (static_cast<uint64_t>(Me) << 32) ^ ++StealNonce);
        for (unsigned I = 0; I < W - 1; ++I) {
          unsigned V =
              (Me + 1 + static_cast<unsigned>((R + I) % (W - 1))) % W;
          if (!Q[V].empty()) {
            stealFront(Q[V], T);
            countSteal(Me, V);
            return true;
          }
          if (AMap && !MB[V].empty()) {
            stealFront(MB[V], T);
            countSteal(Me, V);
            return true;
          }
        }
      }
      return false;
    }
    unsigned DomBegin = domainOf(Me) * DomSize;
    unsigned DomCount = std::min(DomSize, W - DomBegin);
    for (unsigned I = 1; I < DomCount; ++I) {
      unsigned V = DomBegin + (Me - DomBegin + I) % DomCount;
      if (!Q[V].empty()) {
        stealFront(Q[V], T);
        countSteal(Me, V);
        return true;
      }
    }
    for (unsigned I = 1; I < W; ++I) {
      unsigned V = (Me + I) % W;
      if (V >= DomBegin && V < DomBegin + DomCount)
        continue;
      if (!Q[V].empty()) {
        stealFront(Q[V], T);
        countSteal(Me, V);
        return true;
      }
    }
    if (AMap)
      for (unsigned I = 1; I < W; ++I) {
        unsigned V = (Me + I) % W;
        if (!MB[V].empty()) {
          stealFront(MB[V], T);
          countSteal(Me, V);
          return true;
        }
      }
    return false;
  };

  std::vector<uint64_t> FinishAt(W, 0);
  std::vector<int64_t> Cur(W, -1);
  auto start = [&](unsigned Me) {
    uint32_t T;
    if (!tryGet(Me, T))
      return;
    Cur[Me] = T;
    FinishAt[Me] = Now + dur(T);
    if (AMap && AMap->Home[T] == Me)
      ++O.HomeHits;
    ++O.Tasks;
  };

  for (unsigned Me = 0; Me < W; ++Me)
    start(Me);
  while (true) {
    uint64_t Min = UINT64_MAX;
    for (unsigned Me = 0; Me < W; ++Me)
      if (Cur[Me] >= 0)
        Min = std::min(Min, FinishAt[Me]);
    if (Min == UINT64_MAX)
      break;
    Now = Min;
    for (unsigned Me = 0; Me < W; ++Me) {
      if (Cur[Me] < 0 || FinishAt[Me] != Now)
        continue;
      uint32_t T = static_cast<uint32_t>(Cur[Me]);
      Cur[Me] = -1;
      for (uint32_t S : G.Succs[T])
        if (--Deg[S] == 0) {
          if (AMap && AMap->Home[S] != Me)
            MB[AMap->Home[S]].push_back(S);
          else
            Q[Me].push_back(S);
        }
    }
    for (unsigned Me = 0; Me < W; ++Me)
      if (Cur[Me] < 0)
        start(Me);
  }
  O.Makespan = Now;
  return O;
}

/// Applies placement mode 0/1/2 (see the file comment) to \p Opts.
void applyMode(ParallelRunOptions &Opts, int64_t Mode, unsigned Threads) {
  switch (Mode) {
  case 0:
    Opts.Placement = TaskPlacement::Affinity;
    break;
  case 1:
    Opts.Placement = TaskPlacement::RoundRobin;
    break;
  default:
    Opts.Placement = TaskPlacement::RoundRobin;
    Opts.RandomSteal = true;
    Opts.StealSeed = 0x5ca1ab1e;
    break;
  }
  // Two domains at 4+ threads so the local/remote split is exercised even
  // on single-NUMA machines; below that a flat domain (the only sensible
  // shape for 1-2 workers).
  Opts.DomainSize = Threads >= 4 ? Threads / 2 : 0;
}

/// Args: {N, Outer, TaskLevel, Threads, Mode}; Inner = Outer/4 (>= 2).
void BM_LocalityExec(benchmark::State &St) {
  int64_t N = St.range(0);
  int64_t Outer = St.range(1);
  unsigned Level = static_cast<unsigned>(St.range(2));
  unsigned Threads = static_cast<unsigned>(St.range(3));
  int64_t Mode = St.range(4);
  int64_t Inner = Outer >= 8 ? Outer / 4 : 2;

  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlanOptions POpts;
  POpts.TaskLevel = Level;
  ParallelPlan Plan =
      ParallelPlan::build(P, mmmShackleTwoLevel(P, Outer, Inner), {N}, POpts);
  if (!Plan.parallelReady()) {
    St.SkipWithError("plan not parallel-ready");
    return;
  }

  ParallelRunOptions RunOpts;
  RunOpts.NumThreads = Threads;
  applyMode(RunOpts, Mode, Threads);

  ProgramInstance Init(P, {N});
  Init.fillRandom(41, 0.5, 1.5);
  ProgramInstance Inst = Init;
  // Steal counts per run are small and scheduling-noise-sensitive, so the
  // reported telemetry is the per-run mean over all timed iterations.
  uint64_t Runs = 0, Steals = 0, Local = 0, Home = 0, Blocks = 0, Migr = 0;
  for (auto _ : St) {
    St.PauseTiming();
    for (unsigned A = 0; A < P.getNumArrays(); ++A)
      Inst.buffer(A) = Init.buffer(A);
    St.ResumeTiming();
    ParallelRunStats R = Plan.run(Inst, RunOpts);
    benchmark::ClobberMemory();
    ++Runs;
    Steals += R.Steals;
    Local += R.LocalSteals;
    Home += R.HomeHits;
    Blocks += R.BlocksRun;
    Migr += R.BytesMigrated;
  }
  St.counters["MFlop/s"] = benchmark::Counter(
      mmmFlops(N) * 1e-6, benchmark::Counter::kIsIterationInvariantRate);
  setBenchMeta(St, N, Outer, Threads);
  setDagStats(St, static_cast<double>(Plan.graph().numBlocks()),
              static_cast<double>(Plan.graph().NumEdges), Plan.dagBuildMs());
  double Rd = Runs == 0 ? 1.0 : static_cast<double>(Runs);
  double HomePct =
      Blocks == 0 ? 0.0
                  : 100.0 * static_cast<double>(Home) /
                        static_cast<double>(Blocks);
  setLocalityStats(St, static_cast<double>(Steals) / Rd,
                   static_cast<double>(Local) / Rd, HomePct,
                   static_cast<double>(Migr) / Rd);
}

/// Args: {N, Outer, Threads, Mode}: per-worker cache simulation of the
/// hierarchical (outer-task) plan. Each worker's trace feeds a private
/// L1/L2 hierarchy; the reported misses are summed over workers, so tasks
/// that wander off their home worker show up as extra cold misses.
void BM_LocalityCacheMiss(benchmark::State &St) {
  int64_t N = St.range(0);
  int64_t Outer = St.range(1);
  unsigned Threads = static_cast<unsigned>(St.range(2));
  int64_t Mode = St.range(3);
  int64_t Inner = Outer >= 8 ? Outer / 4 : 2;

  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlanOptions POpts;
  POpts.TaskLevel = 2;
  ParallelPlan Plan =
      ParallelPlan::build(P, mmmShackleTwoLevel(P, Outer, Inner), {N}, POpts);
  if (!Plan.parallelReady()) {
    St.SkipWithError("plan not parallel-ready");
    return;
  }

  auto Address = [](unsigned ArrayId, int64_t Off) {
    return (static_cast<uint64_t>(ArrayId + 1) << 33) +
           static_cast<uint64_t>(Off) * sizeof(double);
  };
  std::vector<CacheConfig> Configs = {{"L1", 32 * 1024, 64, 4},
                                      {"L2", 256 * 1024, 64, 8}};
  std::vector<CacheHierarchy> Caches(Threads, CacheHierarchy(Configs));
  std::vector<TraceFn> Sinks;
  for (unsigned W = 0; W < Threads; ++W)
    Sinks.push_back([&Caches, &Address, W](unsigned ArrayId, int64_t Off,
                                           bool) {
      Caches[W].access(Address(ArrayId, Off));
    });

  ParallelRunOptions RunOpts;
  RunOpts.NumThreads = Threads;
  RunOpts.WorkerTraces = &Sinks;
  applyMode(RunOpts, Mode, Threads);

  ProgramInstance Init(P, {N});
  Init.fillRandom(43, 0.5, 1.5);
  ProgramInstance Inst = Init;
  ParallelRunStats Last;
  for (auto _ : St) {
    St.PauseTiming();
    for (unsigned A = 0; A < P.getNumArrays(); ++A)
      Inst.buffer(A) = Init.buffer(A);
    for (CacheHierarchy &C : Caches)
      C.resetCounters();
    St.ResumeTiming();
    Last = Plan.run(Inst, RunOpts);
    benchmark::ClobberMemory();
  }
  uint64_t L1 = 0, L2 = 0;
  for (const CacheHierarchy &C : Caches) {
    L1 += C.level(0).misses();
    L2 += C.level(1).misses();
  }
  setBenchMeta(St, N, Outer, Threads);
  double HomePct = Last.BlocksRun == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(Last.HomeHits) /
                             static_cast<double>(Last.BlocksRun);
  setLocalityStats(St, static_cast<double>(Last.Steals),
                   static_cast<double>(Last.LocalSteals), HomePct,
                   static_cast<double>(Last.BytesMigrated));
  setWorkerMissStats(St, static_cast<double>(L1), static_cast<double>(L2));
}

/// Args: {N, Outer, TaskLevel, Workers, Mode}. Same modes as
/// BM_LocalityExec, but the schedule runs through simulatePlacement, so
/// the reported steals / local_steals / home_hit_pct are deterministic
/// and model W genuinely concurrent workers whatever the host's core
/// count. The makespan counter (virtual ticks) shows the placement does
/// not cost parallelism.
void BM_LocalitySim(benchmark::State &St) {
  int64_t N = St.range(0);
  int64_t Outer = St.range(1);
  unsigned Level = static_cast<unsigned>(St.range(2));
  unsigned Workers = static_cast<unsigned>(St.range(3));
  int64_t Mode = St.range(4);
  int64_t Inner = Outer >= 8 ? Outer / 4 : 2;

  BenchSpec Spec = makeMatMul();
  const Program &P = *Spec.Prog;
  ParallelPlanOptions POpts;
  POpts.TaskLevel = Level;
  ParallelPlan Plan =
      ParallelPlan::build(P, mmmShackleTwoLevel(P, Outer, Inner), {N}, POpts);
  if (!Plan.parallelReady()) {
    St.SkipWithError("plan not parallel-ready");
    return;
  }

  std::vector<uint64_t> Weights;
  for (const BlockTask &T : Plan.partition().Tasks)
    Weights.push_back(T.Segments.empty() ? 1 : T.Segments.size());
  AffinityMap AMap = Plan.affinityMap(Workers);
  unsigned DomSize = Workers >= 4 ? Workers / 2 : Workers;

  SimOut Out;
  for (auto _ : St) {
    Out = simulatePlacement(Plan.graph(), Weights,
                            Mode == 0 ? &AMap : nullptr, Workers, DomSize,
                            /*RandomSteal=*/Mode == 2, /*Seed=*/0x10ca11f7);
    benchmark::DoNotOptimize(Out.Steals);
  }
  setBenchMeta(St, N, Outer, Workers);
  setDagStats(St, static_cast<double>(Plan.graph().numBlocks()),
              static_cast<double>(Plan.graph().NumEdges), Plan.dagBuildMs());
  double HomePct = Out.Tasks == 0 ? 0.0
                                  : 100.0 * static_cast<double>(Out.HomeHits) /
                                        static_cast<double>(Out.Tasks);
  setLocalityStats(St, static_cast<double>(Out.Steals),
                   static_cast<double>(Out.LocalSteals), HomePct, 0.0);
  St.counters["makespan_ticks"] = static_cast<double>(Out.Makespan);
}

/// The thread counts of \p Sweep the host has cores for, or just the core
/// count when none fit: a sweep never oversubscribes the machine.
std::vector<int64_t> upToCores(std::initializer_list<int64_t> Sweep) {
  int64_t Cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int64_t> Out;
  for (int64_t T : Sweep)
    if (T <= Cores)
      Out.push_back(T);
  if (Out.empty())
    Out.push_back(Cores);
  return Out;
}

void ExecSweep(benchmark::internal::Benchmark *B) {
  for (int64_t Threads : upToCores({1, 2, 4, 8}))
    for (int64_t Level : {0, 2})
      for (int64_t Mode : {0, 1, 2})
        B->Args({64, 16, Level, Threads, Mode});
  // Wider outer grid (8x8 blocks, longer k chains): more release traffic,
  // so the placement policies separate more clearly.
  for (int64_t Threads : upToCores({4, 8}))
    for (int64_t Mode : {0, 1, 2})
      B->Args({64, 8, 2, Threads, Mode});
  // Non-dividing N: the outer grid has ragged boundary blocks, so task
  // weights are heterogeneous (up to 8x between interior and corner
  // blocks). This is where weight-balanced affinity placement earns its
  // keep: weight-oblivious round-robin seeding turns the imbalance into
  // steals.
  for (int64_t Threads : upToCores({4, 8}))
    for (int64_t Mode : {0, 1, 2})
      B->Args({72, 16, 2, Threads, Mode});
}

void CacheSweep(benchmark::internal::Benchmark *B) {
  for (int64_t Threads : {1, 2, 4})
    for (int64_t Mode : {0, 1, 2})
      B->Args({32, 8, Threads, Mode});
}

} // namespace

BENCHMARK(BM_LocalityExec)
    ->Apply(ExecSweep)
    ->MinTime(0.01)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

BENCHMARK(BM_LocalityCacheMiss)
    ->Apply(CacheSweep)
    ->MinTime(0.01)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

BENCHMARK(BM_LocalitySim)
    ->Apply(ExecSweep)
    ->MinTime(0.01)
    ->Unit(benchmark::kMillisecond);

SHACKLE_BENCH_MAIN()
