//===- ParallelExecutor.h - Parallel block-shackled execution ---*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel execution mode: plan once, run many times.
///
/// A ParallelPlan fixes a program, a shackle chain, and concrete parameter
/// values, then precomputes everything workers need so that execution
/// touches no shared mutable analysis state:
///
///   1. code generation through the fault-tolerant pipeline (legality under
///      a SolverBudget, shackled -> naive -> original tiers);
///   2. the per-block task list (partitionLoopNestByBlocks) with each
///      task's exact write footprint (computeFootprints) and their union,
///      the plan's written set;
///   3. the block dependence DAG (buildBlockDepGraph).
///
/// Hierarchical chains (one factor group per memory level, Figure 10) can
/// schedule at a coarser granularity: ParallelPlanOptions::TaskLevel picks
/// how many leading factors define the tasks, the partition binds only
/// those factors' block dimensions (inner block loops become part of the
/// task segments, replayed serially in original shackled order), and the
/// DAG is built over the projected outer coordinates. Every runtime
/// guarantee - determinism, undo-log rollback, degraded replay - holds
/// unchanged at the outer-task granularity: a task's undo footprint is the
/// whole outer block, and a retry or serial replay re-runs the outer block
/// including all inner levels.
///
/// run() executes ready blocks as tasks on the work-stealing scheduler,
/// releasing successors as in-degrees drop to zero. Whenever any stage
/// degrades - shackle not proven legal, unpartitionable nest, cyclic or
/// over-dense or solver-Unknown-poisoned graph - the plan keeps a serial
/// fallback (the same LoopNest run in traversal order, the multi-pass
/// runtime's philosophy of never refusing to execute), records a
/// ParallelFallback diagnostic, and still produces correct results.
///
/// Runtime faults extend the same ladder downward (DESIGN.md §9): a block
/// whose body throws is rolled back from its undo log (captureBlockUndo)
/// and retried in place up to MaxRetries times; a block that keeps failing,
/// a watchdog stall, or a deadline quiesces the scheduler and the surviving
/// unfinished blocks are replayed serially in dependence order — mode
/// Degraded, diagnostics ParallelFault/ParallelDegrade, results still
/// bitwise-identical to serial. Only a block that fails every serial
/// attempt too marks the run Failed.
///
/// The data plane gets the same treatment (DESIGN.md §12), on every
/// parallel run: undo logs are checksummed at capture and verified before
/// every restore (an unsound restore is refused and the run restarts
/// serially from a pristine snapshot of the plan's written set); a block
/// that commits a non-finite value is quarantined with its downstream
/// dependence cone and reported with exact provenance (ParallelPoison)
/// instead of poisoning the results silently; and --verify-data=block
/// additionally commits a block only after two independent executions
/// agree bit-for-bit, so a silent bit-flip is detected and recomputed.
/// That shadow re-execution is the only integrity choice a run makes.
///
/// Determinism: for every dependence edge u -> v the scheduler orders all
/// of block u before all of block v, and instances inside a block run in
/// original program order; every pair of conflicting accesses is therefore
/// ordered identically to the serial shackled execution, making parallel
/// results bitwise-identical to serial ones for any thread count.
///
/// Locality (DESIGN.md §11): every run builds an affinity map — one
/// contiguous, segment-weighted range of the lexicographic block order per
/// worker — seeds every task on its home worker, and lets the hierarchical
/// scheduler keep tasks near home (same-domain steals first, remote domains
/// only when a domain runs dry; the domain width comes from
/// detectDomainSize). This is the only placement policy; it changes where
/// blocks execute, never their results.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_PARALLEL_PARALLELEXECUTOR_H
#define SHACKLE_PARALLEL_PARALLELEXECUTOR_H

#include "core/ShackleDriver.h"
#include "interp/Interpreter.h"
#include "parallel/Affinity.h"
#include "parallel/BlockDepGraph.h"
#include "parallel/BlockPartition.h"
#include "parallel/Integrity.h"
#include "parallel/Scheduler.h"
#include "support/Diagnostics.h"
#include "support/Progress.h"

#include <cstdint>
#include <string>
#include <vector>

namespace shackle {

struct ParallelPlanOptions {
  /// Budget for both the legality check and the DAG sign-pattern queries.
  SolverBudget Budget;
  /// Passed through to buildBlockDepGraph.
  uint64_t MaxEdges = 8ull << 20;
  /// Task granularity for hierarchical chains: the number of leading chain
  /// factors whose block coordinates define the schedulable tasks. 0 (or
  /// any value >= the chain length) is the flat mode - one task per
  /// innermost block of the full chain. For a two-level chain (Figure 10),
  /// TaskLevel = <number of outer-level factors> makes each task one outer
  /// block that replays its inner shackle levels serially in the original
  /// shackled order - far fewer DAG nodes at large N.
  unsigned TaskLevel = 0;
  /// Pick the task level automatically: the coarsest factor prefix whose
  /// partition still yields at least max(16, 4 * ThreadsHint) tasks, so
  /// the DAG stays as small as the thread count allows. Overrides
  /// TaskLevel.
  bool AutoTaskLevel = false;
  /// Worker-count hint for AutoTaskLevel (0: assume 8).
  unsigned ThreadsHint = 0;
  /// Task-count ceiling for the partition walk: a partition finer than
  /// this fails (serial fallback) instead of exhausting memory. 0 = off.
  uint64_t MaxTasks = 1ull << 20;
  /// Work ceiling for the DAG's quadratic pair scan; see
  /// BlockDepGraphOptions::MaxPairVisits.
  uint64_t MaxPairVisits = 1ull << 30;
  /// Cached-verdict reuse (plan-cache service): skip legality violation
  /// queries for block dims below this bound. Sound only when the factor
  /// prefix covering those dims is already proven Legal for this program
  /// (see checkLegalityFrom).
  unsigned LegalitySkipBlockDims = 0;
  /// Cached-verdict reuse: the chain is already proven Illegal for this
  /// program, so skip the solver entirely and build an original-order plan.
  bool LegalityKnownIllegal = false;
  /// When non-null, receives run/skipped legality-query counts.
  LegalityCheckStats *LegalityStats = nullptr;
};

/// How one execution actually ran.
enum class ParallelMode {
  Parallel,       ///< Every block completed in the parallel phase.
  Degraded,       ///< Parallel phase quiesced; suffix replayed serially.
  SerialFallback, ///< Plan was never parallel-ready; ran serially.
};

const char *parallelModeName(ParallelMode M);

/// Host-side helper functions passed to native task kernels. This struct
/// is the binary mirror of the `shackle_native_hooks` struct that
/// emitNativeTranslationUnit defines inside each generated TU: the field
/// order and types here ARE the ABI. Extend only by appending.
struct NativeHooks {
  /// Row-major C += A * B micro-kernel (MicroBlas on the host side). May be
  /// null: generated code guards every call site and falls back to its own
  /// plain loops.
  void (*Gemm)(double *C, const double *A, const double *B, int64_t M,
               int64_t N, int64_t K, int64_t Ldc, int64_t Lda,
               int64_t Ldb) = nullptr;
};

/// Signature of a compiled task kernel: arrays indexed by array id, dims
/// the task's per-segment DimValues flattened back to back (segment s at
/// dims[s * NumDims]), hooks may be null.
using NativeKernelFn = void (*)(double **Arrays, const int64_t *Dims,
                                const NativeHooks *Hooks);

/// The native execution tier's interface to the scheduler. Implemented by
/// native/NativeJit.h's NativeModule (a dlopen'd shared object of compiled
/// task kernels); declared here so src/parallel never links src/native.
/// Lookups are by task id of the partition the module was compiled from.
/// Thread-safety contract: every method is called concurrently from
/// worker threads and must be const-safe after construction.
class NativeDispatch {
public:
  virtual ~NativeDispatch();
  /// The compiled kernel for block task \p TaskId (one function inlining
  /// every segment of the task), or null when this task must run on the
  /// interpreter (kernel failed to compile or resolve, or the task has no
  /// segments).
  virtual NativeKernelFn taskFnFor(uint32_t TaskId) const = 0;
  /// Helper functions the kernels call back into (shared for the module).
  virtual const NativeHooks &hooks() const = 0;
};

/// Per-run knobs for the self-healing execution path.
struct ParallelRunOptions {
  /// Worker threads (0 means 1).
  unsigned NumThreads = 1;
  /// Rollback-and-retry attempts per block (on top of the first attempt),
  /// applied independently in the parallel phase and the serial replay.
  unsigned MaxRetries = 2;
  /// Data-verification level. Every parallel run snapshots each block's
  /// write footprint into a checksummed undo log, verifies it before any
  /// restore, and quarantines blocks that commit a non-finite value. Block
  /// additionally commits a block only after two executions from the same
  /// pre-state produce bit-identical footprints — every block runs at
  /// least twice, which catches silent bit-flips in committed data.
  DataVerify VerifyData = DataVerify::Undo;
  /// Abort the parallel phase this many ms after it starts (0 = none).
  uint64_t DeadlineMs = 0;
  /// Watchdog: abort the parallel phase when no block completes for this
  /// many ms (0 = off). When the fault injector is armed and this is 0,
  /// run() applies 1000 ms so injected stalls/deaths cannot hang the run;
  /// the CLI and the service both rely on that default.
  uint64_t StallTimeoutMs = 0;
  /// Per-worker memory-trace sinks, for cache simulation of the parallel
  /// traversal order: when non-null, segments executed by worker W trace
  /// into (*WorkerTraces)[W] (entries past the vector's size are silently
  /// untraced), and the degraded serial replay traces into entry 0. Each
  /// worker writes only its own sink, so plain (unsynchronized) sinks are
  /// race-free. Undo-log snapshots do not trace - they are runtime
  /// bookkeeping, not program accesses.
  std::vector<TraceFn> *WorkerTraces = nullptr;
  /// Native execution tier (DESIGN.md §15): when non-null, any task with a
  /// compiled kernel in this module (looked up by task id) dispatches that
  /// one function pointer instead of interpreting its segments. Undo
  /// capture, checksums, rollback, quarantine, and the DAG order are
  /// unchanged (the undo footprint is the plan's, computed at build).
  /// Ignored when WorkerTraces is set — native code cannot trace, so
  /// traced runs interpret everything. The serial-fallback and
  /// pristine-replay paths always interpret (the interpreter is the
  /// degraded-mode executor). The caller keeps the module alive for the
  /// whole run.
  const NativeDispatch *Native = nullptr;
  /// Collect hardware performance counters (perf_event_open: cycles,
  /// instructions, L1D/LLC misses) around the execution phase and report
  /// them in ParallelRunStats::Hw. Unavailability (no PMU, permissions,
  /// non-Linux) is recorded as a reason string, never an error.
  bool HwCounters = false;
};

/// One hardware-counter reading around the execution phase (see
/// support/PerfCounters.h for the event mapping).
struct HwPerfStats {
  bool Requested = false; ///< ParallelRunOptions::HwCounters was set.
  bool Available = false; ///< Counters were actually collected.
  std::string Unavailable; ///< Reason when Requested && !Available.
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t L1Misses = 0;  ///< L1D read misses.
  uint64_t L2Misses = 0;  ///< Last-level-cache references (~L2 misses).
  uint64_t LlcMisses = 0; ///< Last-level-cache misses.
};

struct ParallelRunStats {
  ParallelMode Mode = ParallelMode::SerialFallback;
  unsigned ThreadsUsed = 1;
  /// Tasks completed. With a hierarchical plan these are *outer* tasks
  /// (TaskFactors < TotalFactors), not inner block visits; every progress
  /// and retry counter below shares that granularity.
  uint64_t BlocksRun = 0;
  /// Task granularity of the plan that ran: tasks cover the blocks of the
  /// first TaskFactors of TotalFactors chain factors.
  unsigned TaskFactors = 0;
  unsigned TotalFactors = 0;
  /// Code segments executed across completed tasks - the inner-level work
  /// a hierarchical task amortizes (equals BlocksRun for flat plans with
  /// unsplit blocks).
  uint64_t SegmentsRun = 0;
  /// Segments executed inside compiled task kernels (0 when the native
  /// tier was off or unavailable). NativeSegments + InterpSegments ==
  /// SegmentsRun for the parallel phase; serial replays always interpret.
  uint64_t NativeSegments = 0;
  /// Segments of tasks the native tier declined (no kernel for that task)
  /// that the interpreter ran instead, counted only while the tier was
  /// active.
  uint64_t InterpSegments = 0;
  /// Poison scans after a native block that triggered the interpreter
  /// disagreement oracle: the block was rolled back and re-run interpreted
  /// to attribute the non-finite value (produced vs corrupted).
  uint64_t NativeOracleReruns = 0;
  /// Tasks dispatched through a compiled task kernel: one call replaced
  /// the whole per-segment loop. Their segments count in NativeSegments.
  uint64_t NativeTaskCalls = 0;
  /// Hardware counters around the execution phase (Requested=false when
  /// ParallelRunOptions::HwCounters was off).
  HwPerfStats Hw;
  uint64_t Steals = 0;
  // Steal-locality telemetry (Steals == LocalSteals + RemoteSteals).
  uint64_t LocalSteals = 0;  ///< Steals from a same-domain victim.
  uint64_t RemoteSteals = 0; ///< Steals that crossed a domain boundary.
  uint64_t HomeHits = 0; ///< Tasks executed on their affinity home worker.
  uint64_t MailboxPushes = 0;    ///< Hand-offs delivered to home mailboxes.
  uint64_t MailboxFallbacks = 0; ///< Contended mailboxes; kept locally.
  unsigned NumDomains = 1;     ///< Locality domains the pool was split into.
  unsigned DomainSize = 0;     ///< Workers per domain after clamping.
  /// Estimated bytes of block write-footprint executed outside the home
  /// worker's domain (undo-log entry counts x sizeof(double); 0 when the
  /// pool is a single domain).
  uint64_t BytesMigrated = 0;
  /// Block-body failures caught (each rolled back via the undo log).
  uint64_t Faults = 0;
  /// Rollback-and-retry attempts across all blocks and both phases.
  uint64_t Retries = 0;
  /// Blocks completed by the serial replay after a quiesce.
  uint64_t ReplayedSerially = 0;
  /// Why the parallel phase stopped early (None when it completed).
  DagAbort Abort = DagAbort::None;
  /// A block failed every attempt, including serial replay; results are
  /// unreliable. Never set when recovery succeeded.
  bool Failed = false;
  /// Data-integrity telemetry (checksums, corruptions, quarantines).
  IntegrityStats Integrity;
  /// Blocks completed per attempt (parallel phase, then serial replay) —
  /// the same partial-progress ledger the multi-pass runtime keeps.
  ProgressLog Progress;
  /// Per-block retry counts, indexed by block id; empty when no retries.
  std::vector<uint32_t> RetriesPerBlock;
  /// ParallelFault / ParallelDegrade diagnostics from this run.
  std::vector<Diagnostic> Diags;
};

/// The deserializable pieces of a ParallelPlan, produced by the plan-cache
/// serdes layer (src/service/PlanSerdes). Partition segments must already
/// point into CG.Nest.
struct ParallelPlanParts {
  CodegenResult CG;
  BlockPartition Partition;
  BlockDepGraph Graph;
  std::vector<Diagnostic> Diags;
  std::vector<int64_t> Params;
  unsigned TaskFactors = 0;
  unsigned TotalFactors = 0;
};

class ParallelPlan {
public:
  /// Builds a plan; never fails (degrades to a serial plan instead, with
  /// the reasons in diags()).
  static ParallelPlan build(const Program &P, const ShackleChain &Chain,
                            std::vector<int64_t> ParamValues,
                            const ParallelPlanOptions &Opts =
                                ParallelPlanOptions());

  /// Reassembles a plan from deserialized parts (plan-cache warm hits).
  /// Ready is recomputed from the parts with the same criteria build()
  /// applies, so a tampered or stale snapshot degrades to serial instead of
  /// executing an untrusted schedule.
  static ParallelPlan fromParts(ParallelPlanParts Parts);

  /// True when run() with >1 thread will actually execute blocks
  /// concurrently (graph built, acyclic, partition OK).
  bool parallelReady() const { return Ready; }

  /// The nest every execution (parallel or serial) interprets.
  const LoopNest &nest() const { return CG.Nest; }
  CodegenTier tier() const { return CG.Tier; }
  /// The legality verdict that gated the transformation (service verdict
  /// cache records it per factor prefix).
  const LegalityResult &legality() const { return CG.Legality; }
  const BlockDepGraph &graph() const { return Graph; }
  const BlockPartition &partition() const { return Partition; }
  const std::vector<Diagnostic> &diags() const { return Diags; }
  const std::vector<int64_t> &paramValues() const { return Params; }

  /// Task granularity: tasks are the blocks of the first taskFactors() of
  /// totalFactors() chain factors; hierarchical() when that is a proper
  /// prefix (inner levels replayed serially inside each task).
  unsigned taskFactors() const { return TaskFactors; }
  unsigned totalFactors() const { return TotalFactors; }
  bool hierarchical() const { return TaskFactors < TotalFactors; }

  /// Plan-construction cost split: the partition walk(s), the task
  /// footprints, and the DAG build (sign-pattern search + pair scan), in
  /// milliseconds.
  double partitionMs() const { return PartitionMs; }
  double footprintMs() const { return FootprintMs; }
  double dagBuildMs() const { return DagBuildMs; }
  /// Tasks whose footprint came from the interpreter's write walk because
  /// a projection could not be certified exact (computeFootprints).
  unsigned footprintFallbacks() const { return FootprintFallbacks; }
  /// The plan's written set: the union of every task's footprint, sorted
  /// and disjoint (empty when the partition failed). Everything a run can
  /// write, and so everything the pristine snapshot has to hold.
  const FootprintRuns &writtenSet() const { return Written; }
  /// Bytes the task footprints and the written set keep resident, on top
  /// of the plan's serialized form (which carries neither).
  uint64_t footprintBytes() const;

  /// Executes the plan on \p Inst (whose parameter values must match) under
  /// \p Opts: undo-logged, checksummed, poison-scanned blocks,
  /// rollback-and-retry on failure, watchdog and deadline aborts, serial
  /// replay of the unfinished suffix after a quiesce, and a pristine
  /// restart when an undo log fails verification. Never throws and never
  /// hangs; see ParallelRunStats for what happened. Falls back to serial
  /// in-order execution when the plan is not parallel-ready. The only way
  /// to run a plan in parallel.
  ParallelRunStats run(ProgramInstance &Inst,
                       const ParallelRunOptions &Opts) const;

  /// Serial reference execution of the same nest (always available).
  void runSerial(ProgramInstance &Inst) const { runLoopNest(CG.Nest, Inst); }

  /// The affinity map a run with \p NumThreads threads would use: one
  /// contiguous, segment-weighted range of the lexicographic task order per
  /// effective worker (the thread count is clamped to the task count, the
  /// same clamp the scheduler applies). Exposed for tests and for tools
  /// that want to inspect or pre-place block data.
  AffinityMap affinityMap(unsigned NumThreads) const;

  /// One-line human-readable summary (task level, tasks, edges, critical
  /// path, DAG build time, mode).
  std::string summary() const;

private:
  /// Sets every task's footprint (computeFootprints), the written set, and
  /// their cost.
  void attachFootprints();

  CodegenResult CG;
  BlockPartition Partition;
  BlockDepGraph Graph;
  std::vector<Diagnostic> Diags;
  std::vector<int64_t> Params;
  unsigned TaskFactors = 0;
  unsigned TotalFactors = 0;
  double PartitionMs = 0.0;
  double FootprintMs = 0.0;
  double DagBuildMs = 0.0;
  unsigned FootprintFallbacks = 0;
  FootprintRuns Written;
  bool Ready = false;
};

} // namespace shackle

#endif // SHACKLE_PARALLEL_PARALLELEXECUTOR_H
