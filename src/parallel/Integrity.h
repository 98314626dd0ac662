//===- Integrity.h - Block-footprint data integrity -------------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data-plane half of the runtime's fault-tolerance story (DESIGN.md
/// §12). The control-flow ladder (§9) survives throws, stalls, and deaths;
/// this layer detects *silent* corruption — a flipped bit in committed
/// data, a mutated undo pre-image, a NaN that would otherwise poison every
/// downstream block — and turns each into either a bitwise-identical
/// recovery or a precisely attributed failure. Never a silently wrong
/// answer.
///
/// Everything here leans on the paper's central property: a block
/// (Definition 1) has a bounded, statically enumerable write footprint.
/// Each task keeps that footprint for the lifetime of its plan as sorted
/// row runs (parallel/UndoLog.h), and every pass below is a loop over those
/// runs — over a BlockUndoLog's pre-image buffer or over the live arrays.
/// That makes it cheap to
///
///   - checksum an undo log at capture and re-verify it before a restore,
///     refusing an unsound restore (checksumUndoLog);
///   - fingerprint the committed footprint after a run and compare
///     independent executions of the same block bit-for-bit
///     (checksumFootprint) — the shadow re-execution check behind
///     --verify-data=block;
///   - scan the committed footprint for non-finite values the interpreter
///     never stored, distinguishing silent memory corruption from genuine
///     numerical failure (scanFootprintPoison);
///   - walk the block dependence DAG from a quarantined block to name the
///     downstream cone its poison would have reached (downstreamCone).
///
/// The escalation ladder on detection: verify -> rollback-and-retry ->
/// degraded serial replay (from a pristine snapshot of the written data
/// when the undo log itself is untrustworthy) -> fail with provenance. That
/// snapshot covers the plan's written set only — the union of its task
/// footprints — and lives in a buffer the instance keeps across runs
/// (capturePristine). Every parallel run climbs this ladder; the only
/// choice a run makes is whether to add shadow re-execution
/// (DataVerify::Block).
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_PARALLEL_INTEGRITY_H
#define SHACKLE_PARALLEL_INTEGRITY_H

#include "interp/Interpreter.h"
#include "parallel/BlockDepGraph.h"
#include "parallel/UndoLog.h"

#include <cstdint>
#include <string>
#include <vector>

namespace shackle {

/// How much data verification a run performs (--verify-data).
enum class DataVerify {
  Undo,  ///< Checksum undo logs at capture; verify before every restore.
  Block, ///< Undo, plus commit a block only after two independent
         ///< executions produce bit-identical footprints.
};

const char *dataVerifyName(DataVerify V);

/// Integrity telemetry for one run; flows into ParallelRunStats, the CLI
/// `integrity:` line, and the benchmark JSON sink.
struct IntegrityStats {
  /// Checksum verifications that passed (undo pre-restore checks plus
  /// footprint agreements under DataVerify::Block).
  uint64_t ChecksumsVerified = 0;
  /// Silent corruptions caught: undo-log checksum mismatches, footprint
  /// divergences between shadow executions, and non-finite values found in
  /// committed data that the interpreter never stored.
  uint64_t CorruptionsDetected = 0;
  /// Restores refused because the undo log failed verification (each one
  /// escalates to the pristine-snapshot serial replay).
  uint64_t UndoRefused = 0;
  /// Blocks quarantined for committing a non-finite value.
  uint64_t PoisonedBlocks = 0;
  /// Full serial replays from the pristine snapshot.
  uint64_t PristineReplays = 0;
  /// Bytes of written data the pristine snapshot holds (elements x 8; 0
  /// when the plan was not parallel-ready).
  uint64_t PristineBytes = 0;
};

/// Order-sensitive digest of an undo log: each run's (array, offset,
/// length) header followed by the bit patterns of its pre-images, in the
/// log's sorted footprint order.
uint64_t checksumUndoLog(const BlockUndoLog &Log);

/// Digest of the *current* instance values along the log's runs (headers
/// hashed the same way) — the committed result of the block whose capture
/// produced \p Log. Two executions of a block from the same pre-state are
/// deterministic, so unequal digests prove silent corruption of one.
uint64_t checksumFootprint(const BlockUndoLog &Log,
                           const ProgramInstance &Inst);

/// First non-finite value found somewhere in a block's committed footprint.
struct PoisonFinding {
  bool Found = false;
  unsigned ArrayId = 0;
  int64_t Offset = 0;
  double Value = 0.0;
};

/// Scans the committed footprint for non-finite values, in footprint
/// order. Catches poison however it got there — injected, hardware, or
/// produced — where the interpreter's store check only sees produced
/// values; the caller combines both to attribute the finding.
PoisonFinding scanFootprintPoison(const BlockUndoLog &Log,
                                  const ProgramInstance &Inst);

/// Every block reachable from \p Root along dependence edges (excluding
/// \p Root itself), ascending — the downstream cone \p Root's poison would
/// have reached. These blocks are quarantined: their inputs were rolled
/// back to pre-\p Root state, so running them would compute garbage.
std::vector<uint32_t> downstreamCone(const BlockDepGraph &Graph,
                                     uint32_t Root);

/// "#3, #7, #12" (first \p MaxNamed ids, "..." past that).
std::string formatCone(const std::vector<uint32_t> &Cone,
                       std::size_t MaxNamed = 8);

/// Copies the elements of \p Written — a plan's written set, the union of
/// its task footprints (ParallelPlan::writtenSet) — out of \p Inst into the
/// instance's snapshot buffer, one memcpy per run, before any block runs;
/// returns the number of elements copied. The last rung above failure:
/// when an undo log cannot be trusted, the instance state after a refused
/// restore is unknown, and the only sound recovery is to put back every
/// element the run may have written and replay the whole nest serially.
/// Elements outside the written set are never written, so they need no
/// copy. The snapshot is a copy of its own, never assembled from undo logs,
/// so a corrupted undo log is never the only copy of a pristine value.
std::size_t capturePristine(const FootprintRuns &Written,
                            ProgramInstance &Inst);

/// Writes the snapshot capturePristine took of \p Written back into
/// \p Inst.
void restorePristine(const FootprintRuns &Written, ProgramInstance &Inst);

} // namespace shackle

#endif // SHACKLE_PARALLEL_INTEGRITY_H
