//===- Scheduler.cpp - Work-stealing DAG task scheduler ----------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "parallel/Scheduler.h"

#include "parallel/ChaseLevDeque.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

using namespace shackle;

const char *shackle::dagAbortName(DagAbort A) {
  switch (A) {
  case DagAbort::None:
    return "none";
  case DagAbort::TaskFailed:
    return "task-failed";
  case DagAbort::Deadline:
    return "deadline";
  case DagAbort::Stalled:
    return "stalled";
  }
  return "none";
}

namespace {

using Clock = std::chrono::steady_clock;

uint64_t msBetween(Clock::time_point From, Clock::time_point To) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(To - From)
          .count());
}

/// Consecutive empty same-domain scans before an idle worker widens its
/// stealing to remote deques and foreign mailboxes.
constexpr unsigned LocalScansBeforeRemote = 2;

/// Per-worker loop state: run/steal tallies plus the consecutive-empty-
/// local-scan counter that gates cross-domain stealing.
struct WorkerCtx {
  uint64_t Ran = 0, Steals = 0, LocalSteals = 0, RemoteSteals = 0;
  uint64_t Parks = 0, HomeHits = 0;
  unsigned FailedLocalScans = 0;
};

/// Shared state of one runTaskDagPartial invocation.
struct DagRun {
  std::size_t NumTasks;
  const std::vector<std::vector<uint32_t>> &Succs;
  const FailableTaskBody &Body;
  unsigned NumWorkers;
  /// Normalized options (Affinity null unless it covers every task;
  /// DomainSize clamped to [1, NumWorkers]).
  const std::vector<uint32_t> *Affinity;
  unsigned DomainSize;
  unsigned NumDomains;

  std::unique_ptr<std::atomic<uint32_t>[]> Deg;
  /// 1 after a task's body ran and returned true. Read post-join by the
  /// caller to replay exactly the unfinished suffix.
  std::unique_ptr<std::atomic<uint8_t>[]> TaskDone;
  /// Per-worker liveness counters, bumped once per worker-loop iteration
  /// (including parked iterations, via the 1 ms timed-wait backstop). The
  /// watchdog diffs them to name the workers that froze.
  std::unique_ptr<std::atomic<uint64_t>[]> Heartbeat;
  std::vector<std::unique_ptr<ChaseLevDeque<uint32_t>>> Deques;

  std::atomic<uint64_t> Remaining;
  std::atomic<bool> Done{false};

  /// Quiesce protocol: any failure path stores AbortWhy then Abort and
  /// wakes everyone; every worker re-checks stopping() per iteration (and
  /// inside simulated stalls), so the pool drains within one task body of
  /// the request. Successors of unfinished tasks are never released.
  std::atomic<bool> Abort{false};
  std::atomic<int> AbortWhy{static_cast<int>(DagAbort::None)};

  /// Overflow queue: the safety net for deque growth hitting bad_alloc.
  /// A failed hand-off lands here (mutex-protected, pre-reserved where
  /// possible) instead of being dropped; popOrSteal drains it.
  std::mutex OvM;
  std::vector<uint32_t> Overflow;
  std::atomic<uint64_t> OverflowPushes{0};

  /// Per-worker mailbox for affinity hand-offs: Chase-Lev pushes are
  /// owner-only, so a finisher routing a ready task to a *different* home
  /// worker must go through this mutex-protected box instead. Size mirrors
  /// Q.size() with seq_cst updates so the parking Dekker pattern (and the
  /// empty-check fast path) works without taking the lock.
  struct Mailbox {
    std::mutex M;
    std::vector<uint32_t> Q;
    std::atomic<uint32_t> Size{0};
  };
  std::unique_ptr<Mailbox[]> Mailboxes;
  std::atomic<uint64_t> MailboxPushes{0};
  std::atomic<uint64_t> MailboxFallbacks{0};

  // Parking. Epoch/NumParked are mutex-protected; a parker registers under
  // the lock, rescans every deque once, and only then waits, so a pusher
  // that sees NumParked == 0 is guaranteed its task is visible to that
  // rescan (Dekker pattern: both sides order their store before the other's
  // load with seq_cst fences).
  std::mutex M;
  std::condition_variable CV;
  uint64_t Epoch = 0;
  std::atomic<int> NumParked{0};

  std::atomic<uint64_t> TotalRun{0}, TotalSteals{0}, TotalParks{0};
  std::atomic<uint64_t> TotalLocalSteals{0}, TotalRemoteSteals{0};
  std::atomic<uint64_t> TotalHomeHits{0};
  std::atomic<uint64_t> TotalFailures{0};
  std::atomic<unsigned> StalledWorkers{0};

  DagRun(std::size_t NumTasks,
         const std::vector<std::vector<uint32_t>> &Succs,
         const FailableTaskBody &Body, unsigned NumWorkers,
         const DagRunOptions &Opts)
      : NumTasks(NumTasks), Succs(Succs), Body(Body), NumWorkers(NumWorkers),
        Affinity(Opts.Affinity && Opts.Affinity->size() == NumTasks
                     ? Opts.Affinity
                     : nullptr),
        DomainSize(Opts.DomainSize == 0 || Opts.DomainSize > NumWorkers
                       ? NumWorkers
                       : Opts.DomainSize),
        NumDomains((NumWorkers + DomainSize - 1) / DomainSize),
        Deg(new std::atomic<uint32_t>[NumTasks ? NumTasks : 1]),
        TaskDone(new std::atomic<uint8_t>[NumTasks ? NumTasks : 1]),
        Heartbeat(new std::atomic<uint64_t>[NumWorkers]),
        Remaining(NumTasks), Mailboxes(new Mailbox[NumWorkers]) {
    for (std::size_t U = 0; U < NumTasks; ++U)
      TaskDone[U].store(0, std::memory_order_relaxed);
    for (unsigned W = 0; W < NumWorkers; ++W) {
      Heartbeat[W].store(0, std::memory_order_relaxed);
      Deques.emplace_back(std::make_unique<ChaseLevDeque<uint32_t>>(
          static_cast<int64_t>(NumTasks / NumWorkers + 64)));
    }
  }

  unsigned homeOf(uint32_t T) const { return (*Affinity)[T] % NumWorkers; }
  unsigned domainOf(unsigned W) const { return W / DomainSize; }

  bool stopping() const {
    return Done.load(std::memory_order_acquire) ||
           Abort.load(std::memory_order_acquire);
  }

  void requestAbort(DagAbort Why) {
    int None = static_cast<int>(DagAbort::None);
    AbortWhy.compare_exchange_strong(None, static_cast<int>(Why),
                                     std::memory_order_relaxed);
    Abort.store(true, std::memory_order_release);
    wakeAll();
  }

  void wakeAll() {
    {
      std::lock_guard<std::mutex> L(M);
      ++Epoch;
    }
    CV.notify_all();
  }

  /// Called by a worker after it made new tasks stealable.
  void signalWork() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (NumParked.load(std::memory_order_relaxed) > 0)
      wakeAll();
  }

  /// Hands a ready task to worker \p Me's deque; never loses it (deque
  /// growth failure diverts to the overflow queue).
  void pushReady(unsigned Me, uint32_t V) {
    if (Deques[Me]->push(V))
      return;
    {
      std::lock_guard<std::mutex> L(OvM);
      Overflow.push_back(V);
    }
    OverflowPushes.fetch_add(1, std::memory_order_relaxed);
  }

  /// Routes a released successor to the most local runnable place: the
  /// finisher's own deque when it is the task's home (or no affinity is
  /// set), otherwise the home worker's mailbox. A contended mailbox falls
  /// back to the finisher's deque: the task stays runnable, just less
  /// local.
  void routeReady(unsigned Me, uint32_t V) {
    unsigned Home;
    if (!Affinity || (Home = homeOf(V)) == Me) {
      pushReady(Me, V);
      return;
    }
    Mailbox &MB = Mailboxes[Home];
    std::unique_lock<std::mutex> L(MB.M, std::try_to_lock);
    if (L.owns_lock()) {
      try {
        MB.Q.push_back(V);
        MB.Size.fetch_add(1, std::memory_order_seq_cst);
        MailboxPushes.fetch_add(1, std::memory_order_relaxed);
        return;
      } catch (...) {
        // push_back allocation failure: fall through to the local deque
        // (whose own failure path is the overflow queue). Never lost.
        L.unlock();
      }
    }
    MailboxFallbacks.fetch_add(1, std::memory_order_relaxed);
    pushReady(Me, V);
  }

  /// Takes one task from worker \p W's mailbox. Callable by any worker:
  /// the owner drains its own box ahead of stealing, and the desperate
  /// phase of popOrSteal raids foreign boxes so tasks homed to a dead
  /// worker (or a dead domain) are still picked up.
  bool popMailbox(unsigned W, uint32_t &T) {
    Mailbox &MB = Mailboxes[W];
    if (MB.Size.load(std::memory_order_seq_cst) == 0)
      return false;
    std::lock_guard<std::mutex> L(MB.M);
    if (MB.Q.empty())
      return false;
    T = MB.Q.back();
    MB.Q.pop_back();
    MB.Size.fetch_sub(1, std::memory_order_seq_cst);
    return true;
  }

  bool popOverflow(uint32_t &T) {
    std::lock_guard<std::mutex> L(OvM);
    if (Overflow.empty())
      return false;
    T = Overflow.back();
    Overflow.pop_back();
    return true;
  }

  void countSteal(unsigned Me, unsigned Victim, WorkerCtx &C) {
    ++C.Steals;
    if (domainOf(Victim) == domainOf(Me))
      ++C.LocalSteals;
    else
      ++C.RemoteSteals;
    C.FailedLocalScans = 0;
  }

  bool popOrSteal(unsigned Me, uint32_t &T, WorkerCtx &C) {
    if (Deques[Me]->pop(T) || popMailbox(Me, T) || popOverflow(T)) {
      C.FailedLocalScans = 0;
      return true;
    }

    // Hierarchical scan: same-domain victims first, deterministic ring
    // order from Me so chaos runs stay reproducible.
    unsigned DomBegin = domainOf(Me) * DomainSize;
    unsigned DomCount = std::min(DomainSize, NumWorkers - DomBegin);
    for (unsigned I = 1; I < DomCount; ++I) {
      unsigned Victim = DomBegin + (Me - DomBegin + I) % DomCount;
      if (Deques[Victim]->steal(T)) {
        countSteal(Me, Victim, C);
        return true;
      }
    }
    // Desperate phase, entered only after LocalScansBeforeRemote consecutive
    // empty local scans: remote deques first, then every foreign mailbox
    // (including same-domain ones, so a dead owner's deliveries are
    // recovered even in a single-domain pool).
    if (C.FailedLocalScans >= LocalScansBeforeRemote) {
      for (unsigned I = 1; I < NumWorkers; ++I) {
        unsigned Victim = (Me + I) % NumWorkers;
        if (Victim >= DomBegin && Victim < DomBegin + DomCount)
          continue; // Local deques already scanned above.
        if (Deques[Victim]->steal(T)) {
          countSteal(Me, Victim, C);
          return true;
        }
      }
      for (unsigned I = 1; I < NumWorkers; ++I) {
        unsigned Victim = (Me + I) % NumWorkers;
        if (popMailbox(Victim, T)) {
          countSteal(Me, Victim, C);
          return true;
        }
      }
    }
    ++C.FailedLocalScans;
    return false;
  }

  void execute(uint32_t T, unsigned Me, WorkerCtx &C) {
    bool OK = false;
    try {
      OK = Body(T, Me);
    } catch (...) {
      OK = false; // A body that leaks an exception counts as failed.
    }
    if (!OK) {
      // The failed task stays not-done and its successors are never
      // released, so every completed task saw exactly the inputs a serial
      // DAG-order execution would have produced.
      TotalFailures.fetch_add(1, std::memory_order_relaxed);
      requestAbort(DagAbort::TaskFailed);
      return;
    }
    TaskDone[T].store(1, std::memory_order_relaxed);
    ++C.Ran;
    if (Affinity && homeOf(T) == Me)
      ++C.HomeHits;
    unsigned Pushed = 0;
    for (uint32_t V : Succs[T])
      if (Deg[V].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        routeReady(Me, V);
        ++Pushed;
      }
    if (Pushed > 0)
      signalWork();
    if (Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Done.store(true, std::memory_order_release);
      wakeAll();
    }
  }

  /// Simulated wedge for stall injection: sleeps without heartbeating (the
  /// point is to look dead to the watchdog) but checks Abort each slice so
  /// the post-abort join stays prompt.
  void stallFor(uint64_t Ms) {
    Clock::time_point End = Clock::now() + std::chrono::milliseconds(Ms);
    while (Clock::now() < End && !Abort.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  void workerLoop(unsigned Me) {
    WorkerCtx C;
    uint32_t T = 0;
    while (!stopping()) {
      Heartbeat[Me].fetch_add(1, std::memory_order_relaxed);
      if (popOrSteal(Me, T, C)) {
        if (injectWorkerDeath(Me) || injectDomainDeath(domainOf(Me)))
          break; // Dies holding T; only the watchdog can notice.
        if (uint64_t Ms = injectWorkerStall(Me)) {
          stallFor(Ms);
          if (stopping())
            break; // Quiesced mid-wedge; T stays not-done for replay.
        }
        execute(T, Me, C);
        continue;
      }
      // Nothing visible: register as parked, rescan once, then sleep. The
      // timed wait is a liveness backstop only; the epoch protocol is what
      // normally wakes us.
      uint64_t E;
      {
        std::lock_guard<std::mutex> L(M);
        E = Epoch;
      }
      NumParked.fetch_add(1, std::memory_order_seq_cst);
      bool GotTask = !stopping() && popOrSteal(Me, T, C);
      if (GotTask) {
        NumParked.fetch_sub(1, std::memory_order_relaxed);
        execute(T, Me, C);
        continue;
      }
      if (stopping()) {
        NumParked.fetch_sub(1, std::memory_order_relaxed);
        continue; // Outer loop exits.
      }
      {
        std::unique_lock<std::mutex> L(M);
        ++C.Parks;
        CV.wait_for(L, std::chrono::milliseconds(1),
                    [&] { return Epoch != E || stopping(); });
      }
      NumParked.fetch_sub(1, std::memory_order_relaxed);
    }
    TotalRun.fetch_add(C.Ran, std::memory_order_relaxed);
    TotalSteals.fetch_add(C.Steals, std::memory_order_relaxed);
    TotalLocalSteals.fetch_add(C.LocalSteals, std::memory_order_relaxed);
    TotalRemoteSteals.fetch_add(C.RemoteSteals, std::memory_order_relaxed);
    TotalHomeHits.fetch_add(C.HomeHits, std::memory_order_relaxed);
    TotalParks.fetch_add(C.Parks, std::memory_order_relaxed);
  }

  /// Watchdog: detects deadline expiry and global stalls. Stall detection
  /// watches Remaining, not heartbeats — a parked-but-healthy pool
  /// heartbeats forever while making no progress, and that is exactly the
  /// wedge (lost task, dead worker) this must catch. Heartbeats are only
  /// used to *name* the frozen workers once a stall is established.
  void watchdogLoop(uint64_t DeadlineMs, uint64_t StallTimeoutMs) {
    Clock::time_point Start = Clock::now();
    Clock::time_point LastProgress = Start;
    uint64_t LastRemaining = Remaining.load(std::memory_order_acquire);
    std::vector<uint64_t> HbSnap(NumWorkers, 0);
    auto Snap = [&] {
      for (unsigned W = 0; W < NumWorkers; ++W)
        HbSnap[W] = Heartbeat[W].load(std::memory_order_relaxed);
    };
    Snap();
    uint64_t Horizon = StallTimeoutMs ? StallTimeoutMs : DeadlineMs;
    if (DeadlineMs)
      Horizon = std::min(Horizon, DeadlineMs);
    uint64_t TickMs = Horizon / 8;
    if (TickMs < 1)
      TickMs = 1;
    if (TickMs > 10)
      TickMs = 10;
    while (!stopping()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(TickMs));
      if (stopping())
        break;
      Clock::time_point Now = Clock::now();
      if (DeadlineMs && msBetween(Start, Now) >= DeadlineMs) {
        requestAbort(DagAbort::Deadline);
        break;
      }
      uint64_t R = Remaining.load(std::memory_order_acquire);
      if (R != LastRemaining) {
        LastRemaining = R;
        LastProgress = Now;
        Snap();
        continue;
      }
      if (StallTimeoutMs && msBetween(LastProgress, Now) >= StallTimeoutMs) {
        // Frozen = no heartbeat over the last full tick. Healthy parked
        // workers advance many times per tick via the 1 ms wait backstop.
        unsigned Frozen = 0;
        for (unsigned W = 0; W < NumWorkers; ++W)
          if (Heartbeat[W].load(std::memory_order_relaxed) == HbSnap[W])
            ++Frozen;
        StalledWorkers.store(Frozen, std::memory_order_relaxed);
        requestAbort(DagAbort::Stalled);
        break;
      }
      Snap(); // Rolling per-tick baseline for the frozen-worker diff.
    }
  }
};

} // namespace

DagRunResult shackle::runTaskDagPartial(
    std::size_t NumTasks, const std::vector<std::vector<uint32_t>> &Succs,
    const std::vector<uint32_t> &InDegree, const DagRunOptions &Opts,
    const FailableTaskBody &Body) {
  DagRunResult Result;
  if (Succs.size() != NumTasks || InDegree.size() != NumTasks) {
    Result.Refused = true;
    return Result;
  }

  // Validate: recompute in-degrees and run a Kahn pass. Refusing a cyclic
  // or inconsistent graph *before* running anything keeps task side effects
  // all-or-nothing, which the serial-fallback callers rely on.
  std::vector<uint32_t> Deg(NumTasks, 0);
  for (std::size_t U = 0; U < NumTasks; ++U)
    for (uint32_t V : Succs[U]) {
      if (V >= NumTasks) {
        Result.Refused = true;
        return Result;
      }
      ++Deg[V];
    }
  for (std::size_t U = 0; U < NumTasks; ++U)
    if (Deg[U] != InDegree[U]) {
      Result.Refused = true;
      return Result;
    }
  {
    std::vector<uint32_t> Work = Deg;
    std::vector<uint32_t> Queue;
    Queue.reserve(NumTasks);
    for (std::size_t U = 0; U < NumTasks; ++U)
      if (Work[U] == 0)
        Queue.push_back(static_cast<uint32_t>(U));
    for (std::size_t I = 0; I < Queue.size(); ++I)
      for (uint32_t V : Succs[Queue[I]])
        if (--Work[V] == 0)
          Queue.push_back(V);
    if (Queue.size() != NumTasks) {
      Result.Refused = true; // Cycle.
      return Result;
    }
  }

  if (NumTasks == 0) {
    Result.Completed = true;
    return Result;
  }

  unsigned NumWorkers = Opts.NumThreads == 0 ? 1 : Opts.NumThreads;
  if (static_cast<std::size_t>(NumWorkers) > NumTasks)
    NumWorkers = static_cast<unsigned>(NumTasks);

  DagRun Run(NumTasks, Succs, Body, NumWorkers, Opts);
  for (std::size_t U = 0; U < NumTasks; ++U)
    Run.Deg[U].store(Deg[U], std::memory_order_relaxed);

  // Seed the deques with the initially ready tasks (before any worker
  // starts, so plain pushes are safe): each to its affinity home when a
  // map is set — owner-computes placement — or round-robin otherwise, so
  // every worker begins with a fair share of the first wavefront.
  // pushReady keeps even a seeding allocation failure from losing a task.
  unsigned Next = 0;
  for (std::size_t U = 0; U < NumTasks; ++U)
    if (Deg[U] == 0) {
      if (Run.Affinity) {
        Run.pushReady(Run.homeOf(static_cast<uint32_t>(U)),
                      static_cast<uint32_t>(U));
      } else {
        Run.pushReady(Next, static_cast<uint32_t>(U));
        Next = (Next + 1) % NumWorkers;
      }
    }

  std::thread Watchdog;
  bool HasWatchdog = Opts.DeadlineMs != 0 || Opts.StallTimeoutMs != 0;
  if (HasWatchdog)
    Watchdog = std::thread([&Run, &Opts] {
      Run.watchdogLoop(Opts.DeadlineMs, Opts.StallTimeoutMs);
    });

  std::vector<std::thread> Threads;
  Threads.reserve(NumWorkers - 1);
  for (unsigned W = 1; W < NumWorkers; ++W)
    Threads.emplace_back([&Run, W] { Run.workerLoop(W); });
  Run.workerLoop(0);
  for (std::thread &Th : Threads)
    Th.join();
  if (HasWatchdog)
    Watchdog.join();

  Result.TaskDone.resize(NumTasks, 0);
  uint64_t NumDone = 0;
  for (std::size_t U = 0; U < NumTasks; ++U)
    if (Run.TaskDone[U].load(std::memory_order_relaxed)) {
      Result.TaskDone[U] = 1;
      ++NumDone;
    }
  Result.Completed = NumDone == NumTasks;

  Result.Stats.ThreadsUsed = NumWorkers;
  Result.Stats.TasksRun = Run.TotalRun.load(std::memory_order_relaxed);
  Result.Stats.Steals = Run.TotalSteals.load(std::memory_order_relaxed);
  Result.Stats.LocalSteals =
      Run.TotalLocalSteals.load(std::memory_order_relaxed);
  Result.Stats.RemoteSteals =
      Run.TotalRemoteSteals.load(std::memory_order_relaxed);
  Result.Stats.MailboxPushes =
      Run.MailboxPushes.load(std::memory_order_relaxed);
  Result.Stats.MailboxFallbacks =
      Run.MailboxFallbacks.load(std::memory_order_relaxed);
  Result.Stats.HomeHits = Run.TotalHomeHits.load(std::memory_order_relaxed);
  Result.Stats.NumDomains = Run.NumDomains;
  Result.Stats.DomainSizeUsed = Run.DomainSize;
  Result.Stats.Parks = Run.TotalParks.load(std::memory_order_relaxed);
  Result.Stats.TaskFailures =
      Run.TotalFailures.load(std::memory_order_relaxed);
  Result.Stats.OverflowPushes =
      Run.OverflowPushes.load(std::memory_order_relaxed);
  Result.Stats.StalledWorkers =
      Run.StalledWorkers.load(std::memory_order_relaxed);
  Result.Stats.Abort = Result.Completed
                           ? DagAbort::None
                           : static_cast<DagAbort>(Run.AbortWhy.load(
                                 std::memory_order_relaxed));
  return Result;
}
