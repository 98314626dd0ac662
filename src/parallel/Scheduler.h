//===- Scheduler.h - Work-stealing DAG task scheduler -----------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a dependence DAG of tasks on a pool of worker threads. Each
/// worker owns a Chase–Lev deque plus a mutex-protected mailbox (Chase–Lev
/// pushes are owner-only, so a foreign hand-off needs the mailbox).
/// Completed tasks decrement the in-degree of their successors; a released
/// successor goes to the finishing worker's own deque, or — when an
/// affinity map names a different home worker — to that home's mailbox,
/// falling back to the local deque if the mailbox is contended, so a block
/// stays with the worker whose cache holds its panels.
///
/// Idle workers scan victims in a fixed order: first the other deques of
/// their own locality domain (a contiguous group of DomainSize workers) in
/// ring order (Me + I) % DomainSize, then - only after two consecutive
/// empty local scans - every remote deque and finally every foreign
/// mailbox, so tasks homed to a dead worker or a dead domain are still
/// picked up. The deterministic ring keeps chaos runs reproducible.
/// Workers park on a condition variable when the whole system looks empty,
/// so a wavefront that narrows to one task does not spin the other cores.
///
/// The caller must pass an acyclic graph (a Kahn pass verifies before
/// touching any task and refuses cyclic inputs). Task bodies run at most
/// once; for every edge u -> v, the body of u happens-before the body of v
/// (the in-degree decrement is acq_rel and the deque provides
/// release/acquire hand-off), so data written by u is visible to v without
/// further synchronization.
///
/// runTaskDagPartial is the one entry point, and it carries the failure
/// story ParallelPlan::run builds its recovery ladder on: a body may report
/// failure (return false or throw), a watchdog may observe a deadline or a
/// global stall, and either event *quiesces* the run — every worker stops
/// at its next loop iteration, no successor of an unfinished task is ever
/// released, and the per-task completion map comes back so the caller can
/// replay exactly the unfinished suffix. Failed or abandoned tasks never
/// release successors, so everything a completed task wrote is exactly what
/// a serial prefix of the DAG would have written. Deque overflow (growth
/// hitting bad_alloc) diverts the hand-off to a mutex-protected overflow
/// queue instead of losing the task.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_PARALLEL_SCHEDULER_H
#define SHACKLE_PARALLEL_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <vector>

namespace shackle {

/// Why a partial run stopped early.
enum class DagAbort {
  None,       ///< Ran to completion.
  TaskFailed, ///< A task body returned false or threw.
  Deadline,   ///< DeadlineMs expired.
  Stalled,    ///< No task completed for StallTimeoutMs (wedged worker).
};

const char *dagAbortName(DagAbort A);

/// Counters from one DAG execution (telemetry; not needed for correctness).
struct DagRunStats {
  unsigned ThreadsUsed = 1;
  uint64_t TasksRun = 0;
  uint64_t Steals = 0; ///< Successful steals across all workers.
  uint64_t Parks = 0;  ///< Times a worker went to sleep empty-handed.
  uint64_t TaskFailures = 0;   ///< Bodies that returned false or threw.
  uint64_t OverflowPushes = 0; ///< Hand-offs diverted by deque bad_alloc.
  unsigned StalledWorkers = 0; ///< Workers without a heartbeat at a stall.
  DagAbort Abort = DagAbort::None;
  // Steal-locality telemetry. Steals == LocalSteals + RemoteSteals.
  uint64_t LocalSteals = 0;  ///< Steals from a same-domain victim.
  uint64_t RemoteSteals = 0; ///< Steals crossing a domain boundary.
  uint64_t MailboxPushes = 0;    ///< Hand-offs delivered to a home mailbox.
  uint64_t MailboxFallbacks = 0; ///< Contended mailboxes; kept locally.
  uint64_t HomeHits = 0; ///< Tasks executed on their affinity home worker.
  unsigned NumDomains = 1;      ///< Locality domains the pool was split into.
  unsigned DomainSizeUsed = 0;  ///< Workers per domain after clamping.
};

/// Failable task body: returns false (or throws anything) to report that
/// the task did not complete; its successors are then never released and
/// the run aborts with DagAbort::TaskFailed.
using FailableTaskBody = std::function<bool(uint32_t Task, unsigned Worker)>;

struct DagRunOptions {
  unsigned NumThreads = 1;
  /// Abort the run this many ms after it starts (0 = no deadline).
  uint64_t DeadlineMs = 0;
  /// Abort when no task completes for this many ms (0 = no stall watch).
  /// This is the watchdog that catches wedged or dead workers: parked
  /// workers keep heartbeating, so only a genuinely stuck run trips it.
  uint64_t StallTimeoutMs = 0;
  /// Optional task -> home-worker map (size must equal the task count, or
  /// it is ignored; entries are taken modulo the effective worker count,
  /// which may be clamped below NumThreads). When set, initially ready
  /// tasks are seeded to their home's deque and released successors are
  /// routed to their home's mailbox; when null, seeding is round-robin and
  /// successors stay with the finishing worker.
  const std::vector<uint32_t> *Affinity = nullptr;
  /// Locality-domain width: workers [0, D), [D, 2D), ... form domains.
  /// 0 (or any value >= the worker count) puts every worker in one domain.
  unsigned DomainSize = 0;
};

struct DagRunResult {
  /// The graph was cyclic or inconsistent; nothing ran.
  bool Refused = false;
  /// Every task completed successfully.
  bool Completed = false;
  /// Per-task completion map (1 = body ran and returned true). Valid when
  /// !Refused; the caller replays the zero entries in topological order.
  std::vector<uint8_t> TaskDone;
  DagRunStats Stats;
};

/// Executes tasks 0..NumTasks-1 respecting the edges Succs (task u lists
/// every v that must wait for u); InDegree[v] must equal the number of
/// predecessors of v. Spawns NumThreads-1 workers plus (when a deadline or
/// stall timeout is set) one watchdog thread, and uses the calling thread
/// as worker 0. Never throws and never hangs: failures and timeouts
/// quiesce the pool and report partial completion instead.
DagRunResult runTaskDagPartial(std::size_t NumTasks,
                               const std::vector<std::vector<uint32_t>> &Succs,
                               const std::vector<uint32_t> &InDegree,
                               const DagRunOptions &Opts,
                               const FailableTaskBody &Body);

} // namespace shackle

#endif // SHACKLE_PARALLEL_SCHEDULER_H
