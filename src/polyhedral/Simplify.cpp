//===- Simplify.cpp - Constraint simplification ----------------------------===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "polyhedral/Simplify.h"

#include "polyhedral/OmegaTest.h"

#include <cassert>
#include <limits>

using namespace shackle;

/// Does \p B have \p A's coefficients (the constant aside), times \p Sign
/// (+1 or -1)?
static bool sameCoeffs(const ConstraintRow &A, const ConstraintRow &B,
                       int Sign) {
  for (unsigned I = 0, E = A.size() - 1; I < E; ++I)
    if (Sign > 0 ? A[I] != B[I]
                 : B[I] == std::numeric_limits<int64_t>::min() ||
                       A[I] != -B[I])
      return false;
  return true;
}

bool shackle::impliedByOneRow(const ConstraintRow &Row, bool IsEq,
                              const Polyhedron &C) {
  const int64_t R = Row.back();
  // With e the coefficients of Row: e.x + k == 0 pins e.x + R to R - k, and
  // -e.x + k == 0 pins it to R + k; Row holds iff that value is >= 0 (or,
  // for an equality, == 0).
  for (const ConstraintRow &Eq : C.equalities()) {
    int64_t K;
    if (sameCoeffs(Row, Eq, 1))
      K = Eq.back();
    else if (sameCoeffs(Row, Eq, -1) &&
             Eq.back() != std::numeric_limits<int64_t>::min())
      K = -Eq.back();
    else
      continue;
    if (IsEq ? R == K : R >= K)
      return true;
  }
  if (IsEq)
    return false;
  // e.x + k >= 0 with k <= R gives e.x + R >= e.x + k >= 0.
  for (const ConstraintRow &Ineq : C.inequalities())
    if (Ineq.back() <= R && sameCoeffs(Row, Ineq, 1))
      return true;
  return false;
}

void shackle::removeRedundantInequalities(Polyhedron &P) {
  P.normalize();
  P.removeDuplicateConstraints();
  for (unsigned I = 0; I < P.getNumInequalities();) {
    Polyhedron Q = P;
    ConstraintRow Negated = negateInequality(P.getInequality(I));
    Q.removeInequality(I);
    Q.addInequality(std::move(Negated));
    if (isIntegerEmpty(Q)) {
      P.removeInequality(I);
      continue;
    }
    ++I;
  }
}

Polyhedron shackle::gist(const Polyhedron &P, const Polyhedron &Context) {
  assert(P.getNumVars() == Context.getNumVars() &&
         "gist requires a common space");

  // If P /\ Context has no integer point, every constraint is vacuously
  // implied; return an explicitly empty set so the result still satisfies
  // gist(P, C) /\ C == P /\ C.
  if (isIntegerEmpty(intersect(P, Context))) {
    Polyhedron Empty(P.getVarNames());
    ConstraintRow False(P.getNumVars() + 1, 0);
    False.back() = -1; // -1 >= 0.
    Empty.addInequality(std::move(False));
    Empty.markKnownEmpty();
    return Empty;
  }

  Polyhedron Result = P;
  Result.normalize();
  Result.removeDuplicateConstraints();

  // A row that one row of the context implies is one the Omega test would
  // prove implied too (Rest /\ Context /\ not-row is empty whatever Rest
  // is), so it is dropped without a query; the result is unchanged.

  // Equalities implied by the context can be dropped as well; test both
  // directions.
  for (unsigned I = 0; I < Result.getNumEqualities();) {
    const ConstraintRow &Eq = Result.getEquality(I);
    if (impliedByOneRow(Eq, /*IsEq=*/true, Context)) {
      Result.removeEquality(I);
      continue;
    }
    Polyhedron Rest = Result;
    Rest.removeEquality(I);
    Polyhedron Whole = intersect(Rest, Context);
    Polyhedron Pos = Whole;
    ConstraintRow GE = Eq;
    GE.back() -= 1;
    Pos.addInequality(std::move(GE));
    Polyhedron Neg = Whole;
    Neg.addInequality(negateInequality(Eq));
    if (isIntegerEmpty(Pos) && isIntegerEmpty(Neg)) {
      Result.removeEquality(I);
      continue;
    }
    ++I;
  }

  for (unsigned I = 0; I < Result.getNumInequalities();) {
    if (impliedByOneRow(Result.getInequality(I), /*IsEq=*/false, Context)) {
      Result.removeInequality(I);
      continue;
    }
    Polyhedron Rest = Result;
    Rest.removeInequality(I);
    Polyhedron Q = intersect(Rest, Context);
    Q.addInequality(negateInequality(Result.getInequality(I)));
    if (isIntegerEmpty(Q)) {
      Result.removeInequality(I);
      continue;
    }
    ++I;
  }
  return Result;
}
