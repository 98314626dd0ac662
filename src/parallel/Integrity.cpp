//===- Integrity.cpp - Block-footprint data integrity ------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "parallel/Integrity.h"

#include "support/Checksum.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace shackle;

const char *shackle::dataVerifyName(DataVerify V) {
  switch (V) {
  case DataVerify::Undo:
    return "undo";
  case DataVerify::Block:
    return "block";
  }
  return "undo";
}

namespace {

/// Hashes each run's (array, offset, length) header, then the bit patterns
/// of the run's values; \p ValuesOf(R) points at the first of them.
template <typename ValuesFn>
uint64_t checksumRuns(const FootprintRuns &Runs, ValuesFn &&ValuesOf) {
  Checksum C;
  for (const FootprintRun &R : Runs) {
    C.u64(R.ArrayId)
        .u64(static_cast<uint64_t>(R.Offset))
        .u64(static_cast<uint64_t>(R.Length));
    const double *V = ValuesOf(R);
    for (int64_t I = 0; I < R.Length; ++I)
      C.f64(V[I]);
  }
  return C.value();
}

const double *live(const ProgramInstance &Inst, const FootprintRun &R) {
  return Inst.buffer(R.ArrayId).data() + R.Offset;
}

} // namespace

uint64_t shackle::checksumUndoLog(const BlockUndoLog &Log) {
  const double *Next = Log.Entries.data();
  return checksumRuns(Log.runs(), [&](const FootprintRun &R) {
    assert(Next + R.Length <= Log.Entries.data() + Log.Entries.size() &&
           "undo log shorter than its footprint");
    const double *V = Next;
    Next += R.Length;
    return V;
  });
}

uint64_t shackle::checksumFootprint(const BlockUndoLog &Log,
                                    const ProgramInstance &Inst) {
  return checksumRuns(Log.runs(),
                      [&](const FootprintRun &R) { return live(Inst, R); });
}

PoisonFinding shackle::scanFootprintPoison(const BlockUndoLog &Log,
                                           const ProgramInstance &Inst) {
  PoisonFinding F;
  for (const FootprintRun &R : Log.runs()) {
    const double *V = live(Inst, R);
    for (int64_t I = 0; I < R.Length; ++I)
      if (!std::isfinite(V[I])) {
        F.Found = true;
        F.ArrayId = R.ArrayId;
        F.Offset = R.Offset + I;
        F.Value = V[I];
        return F;
      }
  }
  return F;
}

std::vector<uint32_t> shackle::downstreamCone(const BlockDepGraph &Graph,
                                              uint32_t Root) {
  std::vector<uint8_t> Seen(Graph.Succs.size(), 0);
  std::vector<uint32_t> Work{Root};
  Seen[Root] = 1;
  std::vector<uint32_t> Cone;
  while (!Work.empty()) {
    uint32_t U = Work.back();
    Work.pop_back();
    for (uint32_t V : Graph.Succs[U])
      if (!Seen[V]) {
        Seen[V] = 1;
        Cone.push_back(V);
        Work.push_back(V);
      }
  }
  std::sort(Cone.begin(), Cone.end());
  return Cone;
}

std::string shackle::formatCone(const std::vector<uint32_t> &Cone,
                                std::size_t MaxNamed) {
  std::string S;
  for (std::size_t I = 0; I < Cone.size(); ++I) {
    if (I == MaxNamed) {
      S += ", ...";
      break;
    }
    if (I)
      S += ", ";
    S.append("#").append(std::to_string(Cone[I]));
  }
  return S;
}

std::size_t shackle::capturePristine(const FootprintRuns &Written,
                                     ProgramInstance &Inst) {
  gatherRuns(Written, Inst, Inst.snapshotBuffer());
  return Inst.snapshotBuffer().size();
}

void shackle::restorePristine(const FootprintRuns &Written,
                              ProgramInstance &Inst) {
  scatterRuns(Written, Inst.snapshotBuffer(), Inst);
}
