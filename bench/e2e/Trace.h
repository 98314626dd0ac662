//===- Trace.h - bench_e2e span recorder ------------------------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own spans: a Span times one call into a layer. With
/// recording off (the end-to-end runs) a Span is just a steady_clock timer;
/// with recording on (--trace 1) it also keeps (name, start, end, parent,
/// request id, thread) in memory, and the run writes them out at exit as
/// Chrome trace-event JSON, which Perfetto and chrome://tracing open as-is.
/// A span's parent is the innermost open span on the same thread.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_BENCH_E2E_TRACE_H
#define SHACKLE_BENCH_E2E_TRACE_H

#include <cstdint>
#include <map>
#include <string>

namespace e2e {

/// Microseconds since the process started (steady clock).
double nowUs();

/// Turns recording on for the rest of the process.
void enableTracing();
bool tracingEnabled();

/// One timed call. Closes on destruction unless closed earlier.
class Span {
public:
  explicit Span(const char *Name, uint64_t Request = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Ends the span; returns its duration in milliseconds. Idempotent.
  double close();
  double startUs() const { return T0; }

private:
  const char *Name;
  uint64_t Request;
  double T0;
  double Ms = -1;
  int64_t Id = -1;     ///< Recorded event id (recording on only).
  int64_t Parent = -1; ///< Enclosing span on this thread, or -1.
};

/// Records a span whose interval is known from elsewhere (e.g. a stage
/// time the library reports) as a child of the innermost open span.
void recordSpan(const char *Name, double T0Us, double T1Us);

/// Per span name: total self time in ms (duration minus the part covered
/// by child spans) over recorded spans that have an ancestor named
/// \p Under (every recorded span when \p Under is empty).
std::map<std::string, double> selfTimesMs(const std::string &Under = "");

/// Fraction of the wall time of every recorded span named \p Root that its
/// direct children cover.
double childCoverage(const std::string &Root);

/// Writes every recorded span to \p Path as Chrome trace-event JSON.
bool writeChromeTrace(const std::string &Path);

} // namespace e2e

#endif // SHACKLE_BENCH_E2E_TRACE_H
