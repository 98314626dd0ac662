//===- SimdMark.cpp - Lane-independent innermost loops -----------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "emitc/SimdMark.h"

#include "codegen/PathConstraints.h"

#include <algorithm>

using namespace shackle;

namespace {

bool instancesOnly(const ASTNode &N) {
  return !N.Body.empty() &&
         std::all_of(N.Body.begin(), N.Body.end(), [](const ASTNodePtr &C) {
           return C->Kind == ASTKind::Instance;
         });
}

/// True when the Omega test proves that no two instances of \p Insts on
/// \p Path that differ only in dim \p D, with v < v', touch one element of
/// an array with at least one write.
bool lanesIndependent(const LoopNest &Nest, const PathConstraints &Path,
                      unsigned D, const std::vector<ASTNodePtr> &Insts) {
  if (Path.rebinds())
    return false;
  const unsigned ND = Nest.NumDims;
  Polyhedron Pairs = Path.pairs({D});
  ConstraintRow Later(ND + 2, 0);
  Later[ND] = 1, Later[D] = -1, Later[ND + 1] = -1; // v' - v - 1 >= 0
  Pairs.addInequality(std::move(Later));
  return provesNoConflict(Nest, Pairs, {D}, Insts);
}

void plan(const LoopNest &Nest, const InterchangeMap &Swaps, const ASTNode &N,
          PathConstraints &Path, SimdMarks &Out) {
  Path.push(N);
  if (N.Kind == ASTKind::Loop && Swaps.count(&N)) {
    // The pair's old outer loop runs inside, over the inner loop's body.
    const ASTNode &Inner = *N.Body[0];
    Path.push(Inner);
    if (lanesIndependent(Nest, Path, N.Dim, Inner.Body))
      Out.insert(&N);
    Path.pop();
  } else if (N.Kind == ASTKind::Loop && instancesOnly(N)) {
    if (lanesIndependent(Nest, Path, N.Dim, N.Body))
      Out.insert(&N);
  } else {
    for (const ASTNodePtr &C : N.Body)
      plan(Nest, Swaps, *C, Path, Out);
  }
  Path.pop();
}

} // namespace

SimdMarks shackle::planSimdLoops(const LoopNest &Nest,
                                 const InterchangeMap &Swaps) {
  SimdMarks Out;
  PathConstraints Path(Nest.NumDims);
  for (const ASTNodePtr &R : Nest.Roots)
    plan(Nest, Swaps, *R, Path, Out);
  return Out;
}
