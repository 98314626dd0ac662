//===- Interchange.cpp - Unit-stride innermost loop interchange --------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "emitc/Interchange.h"

#include "codegen/PathConstraints.h"

using namespace shackle;

namespace {

/// The inner loop of the pair when \p N is the outer loop of an innermost
/// perfect pair, else null.
const ASTNode *pairInner(const ASTNode &N) {
  if (N.Kind != ASTKind::Loop || N.Body.size() != 1)
    return nullptr;
  const ASTNode &In = *N.Body[0];
  if (In.Kind != ASTKind::Loop || In.Body.empty())
    return nullptr;
  for (const ASTNodePtr &C : In.Body)
    if (C->Kind != ASTKind::Instance)
      return nullptr;
  return &In;
}

/// True when the store of \p Inst moves by exactly one element per step of
/// \p Outer and by some element per step of \p Inner.
bool unitStrideOuter(const LoopNest &Nest, const ASTNode &Inst, unsigned Outer,
                     unsigned Inner) {
  const ArrayRef &R = Inst.S->LHS;
  const LayoutKind L = Nest.Prog->getArray(R.ArrayId).Layout;
  if (L != LayoutKind::RowMajor && L != LayoutKind::ColMajor)
    return false;
  const unsigned Unit = L == LayoutKind::RowMajor ? R.Indices.size() - 1 : 0;
  bool InnerMoves = false;
  const std::vector<ConstraintRow> Rows = indexRows(Nest, Inst, R);
  for (unsigned P = 0; P < Rows.size(); ++P) {
    if (Rows[P][Outer] != (P == Unit ? 1 : 0))
      return false;
    InnerMoves = InnerMoves || Rows[P][Inner] != 0;
  }
  return InnerMoves;
}

/// True when the Omega test proves that no two instances (o,v), (o',v')
/// of the pair with o < o' and v > v' touch one element of an array with
/// at least one write, under the constraints on \p Path (which ends at the
/// pair's inner loop).
bool reversesNoDependence(const LoopNest &Nest, const PathConstraints &Path,
                          const ASTNode &Outer, const ASTNode &Inner) {
  const unsigned ND = Nest.NumDims, O = Outer.Dim, V = Inner.Dim;
  Polyhedron Pairs = Path.pairs({O, V});
  ConstraintRow Before(ND + 3, 0), After(ND + 3, 0);
  Before[ND] = 1, Before[O] = -1, Before[ND + 2] = -1; // o' - o - 1 >= 0
  After[V] = 1, After[ND + 1] = -1, After[ND + 2] = -1; // v - v' - 1 >= 0
  Pairs.addInequality(std::move(Before));
  Pairs.addInequality(std::move(After));
  return provesNoConflict(Nest, Pairs, {O, V}, Inner.Body);
}

/// Fills the interchanged bounds of \p X from the pair's own rows in
/// \p Pair: the new inner loop takes every row on the old outer dim \p O,
/// the new outer loop the rows on the old inner dim \p V after \p O is
/// eliminated exactly.
bool projectBounds(const PathConstraints &Pair, unsigned O, unsigned V,
                   Interchange &X) {
  Polyhedron Q = Pair.polyhedron();
  if (!Q.normalize())
    return false;
  forEachRow(Q, [&](const ConstraintRow &R) {
    if (R[O] != 0)
      (R[O] > 0 ? X.InnerLbs : X.InnerUbs).push_back(rowBound(R, O));
  });
  if (!eliminateExactly(Q, O) || !Q.normalize())
    return false;
  forEachRow(Q, [&](const ConstraintRow &R) {
    if (R[V] != 0)
      (R[V] > 0 ? X.OuterLbs : X.OuterUbs).push_back(rowBound(R, V));
  });
  return !X.OuterLbs.empty() && !X.OuterUbs.empty() && !X.InnerLbs.empty() &&
         !X.InnerUbs.empty();
}

void plan(const LoopNest &Nest, const ASTNode &N, PathConstraints &Path,
          InterchangeMap &Out) {
  Path.push(N);
  if (const ASTNode *Inner = pairInner(N)) {
    Path.push(*Inner);
    bool Favoured = !Path.rebinds();
    for (const ASTNodePtr &C : Inner->Body)
      Favoured = Favoured && unitStrideOuter(Nest, *C, N.Dim, Inner->Dim);
    PathConstraints Pair(Nest.NumDims);
    Pair.push(N);
    Pair.push(*Inner);
    Interchange X;
    if (Favoured && projectBounds(Pair, N.Dim, Inner->Dim, X) &&
        reversesNoDependence(Nest, Path, N, *Inner))
      Out.emplace(&N, std::move(X));
    Path.pop();
  } else {
    for (const ASTNodePtr &C : N.Body)
      plan(Nest, *C, Path, Out);
  }
  Path.pop();
}

} // namespace

InterchangeMap shackle::planInterchanges(const LoopNest &Nest) {
  InterchangeMap Out;
  PathConstraints Path(Nest.NumDims);
  for (const ASTNodePtr &R : Nest.Roots)
    plan(Nest, *R, Path, Out);
  return Out;
}
