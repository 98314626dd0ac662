//===- Service.h - The shackle compile/run service core ---------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent heart of `shackle serve`: translate one JSON
/// request into a ProgramSource and RunRequest, hand them to the shared
/// pipeline (resolveProgram and Engine::run, Engine.h) over this service's
/// PlanCache and VerdictCache, and translate the RunResult into the JSON
/// reply. The Unix-socket server (Server.h) and the in-process tests both
/// drive this class; it is safe to call handleLine concurrently from many
/// threads.
///
/// Protocol (newline-delimited JSON; full schema in docs/SERVE.md):
///
///   {"op":"compile", "benchmark":"matmul", "config":"c", "block":64,
///    "params":[96], "task_level":0|"auto", "threads":4}
///   {"op":"run", ...same...}          — compile (or hit) then execute
///   {"op":"stats"}                     — counters + latency percentiles
///   {"op":"shutdown"}                  — stop accepting, snapshot, exit
///
/// DSL programs are accepted in place of a benchmark name:
///   {"op":"run", "dsl":"...", "array":"A", "block":[32,32],
///    "order":"colblocks", "reversed":false, ...}
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_SERVICE_SERVICE_H
#define SHACKLE_SERVICE_SERVICE_H

#include "service/Json.h"
#include "service/PlanCache.h"
#include "service/VerdictCache.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace shackle {

struct ServiceOptions {
  uint64_t CacheBytes = 256ull << 20;
  /// Snapshot file loaded by loadSnapshot() and written by saveSnapshot().
  /// Empty disables persistence.
  std::string SnapshotPath;
  /// Thread count for `run` requests that do not say otherwise.
  unsigned DefaultThreads = 1;
  SolverBudget Budget;
  /// When true (the default), the machine-shape key component is detected
  /// from the host. Tests pin Shape and set this false so keys are
  /// reproducible.
  bool DetectShape = true;
  MachineShape Shape;
};

/// A point-in-time view of every counter the service exposes (the CLI
/// `service:` line, the `stats` op, and the throughput benchmark's JSON).
struct ServiceStats {
  PlanCacheStats Cache;
  uint64_t VerdictEntries = 0;
  uint64_t SolverCallsSaved = 0;
  uint64_t Requests = 0; ///< compile/run requests (the cached ops).
  uint64_t Errors = 0;   ///< Requests answered with ok=false.
  double P50Ms = 0;      ///< Median compile/run latency.
  double P95Ms = 0;
};

class ServiceCore {
public:
  explicit ServiceCore(ServiceOptions Opts = ServiceOptions());

  /// Handles one request line; always returns a reply document (never
  /// throws, never returns empty). Thread-safe.
  std::string handleLine(const std::string &Line);

  /// Structured form of handleLine for in-process callers.
  JsonValue handle(const JsonValue &Req);

  /// True once a shutdown request has been accepted.
  bool shutdownRequested() const {
    return Shutdown.load(std::memory_order_acquire);
  }

  ServiceStats stats() const;
  /// The one-line `service:` summary the CLI prints on exit.
  std::string statsLine() const;

  /// Loads Opts.SnapshotPath into the cache. A malformed file comes back as
  /// an error status (message already `[service-cache]`-prefixed) with the
  /// cache left empty but fully usable — callers warn and continue cold.
  Status loadSnapshot();
  Status saveSnapshot() const;

  PlanCache &cache() { return Cache; }
  VerdictCache &verdicts() { return Verdicts; }
  const ServiceOptions &options() const { return Opts; }

private:
  JsonValue handleCompileOrRun(const JsonValue &Req, bool Execute);
  JsonValue handleStats();

  void recordLatency(double Ms);
  void latencyPercentiles(double &P50, double &P95) const;

  ServiceOptions Opts;
  PlanCache Cache;
  VerdictCache Verdicts;
  std::atomic<bool> Shutdown{false};
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Errors{0};

  mutable std::mutex LatM;
  std::vector<double> LatMs; ///< Bounded ring of recent request latencies.
  std::size_t LatNext = 0;
  static constexpr std::size_t LatCap = 4096;
};

} // namespace shackle

#endif // SHACKLE_SERVICE_SERVICE_H
