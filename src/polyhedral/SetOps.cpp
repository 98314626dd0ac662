//===- SetOps.cpp - Non-convex set operations ------------------------------===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "polyhedral/SetOps.h"

#include "polyhedral/OmegaTest.h"
#include "polyhedral/Simplify.h"

#include <cassert>

using namespace shackle;

std::vector<Polyhedron> shackle::subtract(const Polyhedron &A,
                                          const Polyhedron &B) {
  assert(A.getNumVars() == B.getNumVars() &&
         "subtraction requires a common space");

  // Collect B's constraints as inequalities (an equality contributes both
  // directions). A point is outside B iff it violates at least one of them;
  // the pieces below enumerate "first violated constraint" cases, which makes
  // them pairwise disjoint by construction.
  std::vector<ConstraintRow> BRows;
  for (const ConstraintRow &Row : B.equalities()) {
    // e == 0 splits into e >= 0 and -e >= 0.
    BRows.push_back(Row);
    ConstraintRow Neg(Row.size());
    for (unsigned I = 0; I < Row.size(); ++I)
      Neg[I] = -Row[I];
    BRows.push_back(std::move(Neg));
  }
  for (const ConstraintRow &Row : B.inequalities())
    BRows.push_back(Row);

  std::vector<Polyhedron> Pieces;
  Polyhedron Context = A;
  bool ContextNonEmpty = false; // Proven by the Omega test.
  for (const ConstraintRow &Row : BRows) {
    // When one row of Context implies Row, no point of Context violates
    // it: the piece is empty, and adding Row keeps Context's points, so a
    // Context proven non-empty stays so. Row is still appended, so every
    // later piece has the same constraint list as without the shortcut.
    const bool Implied = impliedByOneRow(Row, /*IsEq=*/false, Context);
    if (!Implied) {
      Polyhedron Piece = Context;
      Piece.addInequality(negateInequality(Row));
      if (Piece.normalize() && !isIntegerEmpty(Piece)) {
        Piece.removeDuplicateConstraints();
        Pieces.push_back(std::move(Piece));
      }
    }
    Context.addInequality(Row);
    if (!Context.normalize())
      break; // Remaining cases are all empty.
    if (Implied && ContextNonEmpty)
      continue;
    FeasVerdict V = isIntegerEmptyBounded(Context);
    if (V == FeasVerdict::Empty)
      break;
    ContextNonEmpty = V == FeasVerdict::NonEmpty;
  }
  return Pieces;
}

std::vector<Polyhedron>
shackle::subtractAll(const Polyhedron &A, const std::vector<Polyhedron> &Bs) {
  std::vector<Polyhedron> Work = {A};
  for (const Polyhedron &B : Bs) {
    std::vector<Polyhedron> Next;
    for (const Polyhedron &Piece : Work) {
      std::vector<Polyhedron> Sub = subtract(Piece, B);
      Next.insert(Next.end(), std::make_move_iterator(Sub.begin()),
                  std::make_move_iterator(Sub.end()));
    }
    Work = std::move(Next);
    if (Work.empty())
      break;
  }
  return Work;
}
