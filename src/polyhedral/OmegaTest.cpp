//===- OmegaTest.cpp - Exact integer feasibility --------------------------===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "polyhedral/OmegaTest.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <limits>

using namespace shackle;

std::string SolverStats::reasonStr() const {
  if (Overflowed)
    return "int64 coefficient overflow";
  if (HitWorkLimit)
    return "work-unit budget exhausted (" + std::to_string(WorkUnits) +
           " units)";
  if (HitDepthLimit)
    return "recursion depth limit";
  return "not exhausted";
}

namespace {

/// Per-query state threaded through the recursion: the budget, the running
/// counters, and a sticky exhaustion flag that aborts the whole query.
struct SolverCtx {
  const SolverBudget &Budget;
  SolverStats &Stats;

  /// Charges \p Units of work; returns false once the budget is exceeded.
  bool charge(uint64_t Units) {
    Stats.WorkUnits += Units;
    if (Stats.WorkUnits > Budget.MaxWorkUnits)
      Stats.HitWorkLimit = true;
    return !Stats.exhausted();
  }

  bool overflow() {
    Stats.Overflowed = true;
    return false;
  }
};

FeasVerdict isEmptyRec(Polyhedron P, unsigned Depth, SolverCtx &C);

/// Substitutes variable \p Var using the unit-coefficient row \p Eq
/// (Eq[Var] == +-1) into \p P and drops the equality. Returns false on
/// int64 overflow (P is then abandoned).
bool substituteUnit(Polyhedron &P, unsigned EqIdx, unsigned Var,
                    SolverCtx &C) {
  ConstraintRow Def = P.getEquality(EqIdx);
  int64_t A = Def[Var];
  assert((A == 1 || A == -1) && "expected a unit coefficient");
  P.removeEquality(EqIdx);
  ConstraintRow Subst(P.getNumVars() + 1, 0);
  for (unsigned J = 0; J <= P.getNumVars(); ++J)
    if (J != Var)
      Subst[J] = -A * Def[J];
  if (!P.substituteChecked(Var, Subst))
    return C.overflow();
  return true;
}

/// Eliminates all equalities from \p P exactly (Pugh Section 2.3.1).
/// Returns Empty if the equalities prove the polyhedron integer-empty,
/// NonEmpty if elimination completed (meaning: not yet decided, continue
/// with the inequalities), Unknown on exhaustion.
FeasVerdict eliminateEqualities(Polyhedron &P, SolverCtx &C) {
  while (P.getNumEqualities() > 0) {
    if (!C.charge(1 + P.getNumEqualities()))
      return FeasVerdict::Unknown;
    if (!P.normalize())
      return FeasVerdict::Empty;
    if (P.getNumEqualities() == 0)
      break;

    // Find the equality and variable with the smallest nonzero |coefficient|.
    unsigned BestEq = 0, BestVar = 0;
    int64_t BestAbs = std::numeric_limits<int64_t>::max();
    for (unsigned I = 0; I < P.getNumEqualities(); ++I) {
      const ConstraintRow &Row = P.getEquality(I);
      for (unsigned V = 0; V < P.getNumVars(); ++V) {
        int64_t A = std::abs(Row[V]);
        if (A != 0 && A < BestAbs) {
          BestAbs = A;
          BestEq = I;
          BestVar = V;
        }
      }
    }
    if (BestAbs == std::numeric_limits<int64_t>::max()) {
      // All equalities are constant rows; normalize() validated them.
      break;
    }

    if (BestAbs == 1) {
      if (!substituteUnit(P, BestEq, BestVar, C))
        return FeasVerdict::Unknown;
      continue;
    }

    // Non-unit minimal coefficient: apply the hat-mod transformation. For the
    // equality sum(a_i x_i) + c == 0 with |a_k| minimal, let m = |a_k| + 1 and
    // introduce sigma with
    //   sum(symMod(a_i, m) x_i) + symMod(c, m) == m * sigma.
    // The coefficient of x_k in this new equality is +-1, so x_k can be
    // substituted away; all coefficients shrink by roughly a factor of m.
    ConstraintRow Eq = P.getEquality(BestEq);
    int64_t M = BestAbs + 1;
    unsigned Sigma = P.appendVar("sigma" + std::to_string(P.getNumVars()));
    Eq.insert(Eq.end() - 1, 0); // Account for the new variable column.

    ConstraintRow NewEq(P.getNumVars() + 1, 0);
    for (unsigned V = 0; V < P.getNumVars(); ++V)
      if (V != Sigma)
        NewEq[V] = symMod(Eq[V], M);
    NewEq[Sigma] = -M;
    NewEq[P.getNumVars()] = symMod(Eq.back(), M);
    assert((NewEq[BestVar] == 1 || NewEq[BestVar] == -1) &&
           "hat-mod must produce a unit coefficient on the chosen variable");

    P.addEquality(std::move(NewEq));
    if (!substituteUnit(P, P.getNumEqualities() - 1, BestVar, C))
      return FeasVerdict::Unknown;
  }
  return P.isObviouslyEmpty() ? FeasVerdict::Empty : FeasVerdict::NonEmpty;
}

struct BoundSplit {
  std::vector<ConstraintRow> Lowers; // coeff on Var > 0
  std::vector<ConstraintRow> Uppers; // coeff on Var < 0
  std::vector<ConstraintRow> Rest;   // coeff on Var == 0
};

BoundSplit splitBounds(const Polyhedron &P, unsigned Var) {
  BoundSplit S;
  for (const ConstraintRow &Row : P.inequalities()) {
    if (Row[Var] > 0)
      S.Lowers.push_back(Row);
    else if (Row[Var] < 0)
      S.Uppers.push_back(Row);
    else
      S.Rest.push_back(Row);
  }
  return S;
}

/// Picks the variable whose elimination is cheapest, preferring variables
/// whose elimination is exact. Returns the variable and whether elimination
/// is exact.
std::pair<unsigned, bool> pickVariable(const Polyhedron &P) {
  unsigned BestVar = 0;
  bool BestExact = false;
  long BestCost = std::numeric_limits<long>::max();

  for (unsigned V = 0; V < P.getNumVars(); ++V) {
    if (!P.involvesVar(V))
      continue;
    FMElimination E = classifyElimination(P, V);
    long Cost = E.Lowers * E.Uppers - E.Lowers - E.Uppers;
    // Prefer exact eliminations; among them, the cheapest.
    if ((E.Exact && !BestExact) ||
        (E.Exact == BestExact && Cost < BestCost)) {
      BestVar = V;
      BestExact = E.Exact;
      BestCost = Cost;
    }
  }
  return {BestVar, BestExact};
}

/// Returns true if no variable appears in any constraint.
bool isVariableFree(const Polyhedron &P) {
  for (unsigned V = 0; V < P.getNumVars(); ++V)
    if (P.involvesVar(V))
      return false;
  return true;
}

FeasVerdict isEmptyRec(Polyhedron P, unsigned Depth, SolverCtx &C) {
  if (Depth >= C.Budget.MaxDepth) {
    C.Stats.HitDepthLimit = true;
    return FeasVerdict::Unknown;
  }
  if (!C.charge(1 + P.getNumInequalities()))
    return FeasVerdict::Unknown;

  if (!P.normalize())
    return FeasVerdict::Empty;
  P.removeDuplicateConstraints();
  FeasVerdict EqV = eliminateEqualities(P, C);
  if (EqV != FeasVerdict::NonEmpty)
    return EqV; // Empty or Unknown.
  if (!P.normalize())
    return FeasVerdict::Empty;

  if (isVariableFree(P))
    return P.isObviouslyEmpty() ? FeasVerdict::Empty : FeasVerdict::NonEmpty;

  auto [Var, Exact] = pickVariable(P);
  BoundSplit S = splitBounds(P, Var);

  // Unbounded on one side: the variable can always be chosen, eliminate it
  // exactly by dropping its constraints.
  if (S.Lowers.empty() || S.Uppers.empty()) {
    Polyhedron Q(P.getVarNames());
    for (ConstraintRow &Row : S.Rest)
      Q.addInequality(std::move(Row));
    return isEmptyRec(std::move(Q), Depth + 1, C);
  }

  // Real shadow (and dark shadow when inexact). Each lower/upper pair costs
  // one work unit; this product is exactly where hard instances explode.
  if (!C.charge(static_cast<uint64_t>(S.Lowers.size()) * S.Uppers.size()))
    return FeasVerdict::Unknown;
  Polyhedron Real(P.getVarNames());
  Polyhedron Dark(P.getVarNames());
  for (const ConstraintRow &Row : S.Rest) {
    Real.addInequality(Row);
    Dark.addInequality(Row);
  }
  for (const ConstraintRow &L : S.Lowers) {
    for (const ConstraintRow &U : S.Uppers) {
      int64_t A = L[Var];
      int64_t B = -U[Var];
      ConstraintRow Combined(P.getNumVars() + 1, 0);
      for (unsigned J = 0; J <= P.getNumVars(); ++J) {
        int64_t AU, BL;
        if (mulOverflow(A, U[J], AU) || mulOverflow(B, L[J], BL) ||
            addOverflow(AU, BL, Combined[J])) {
          C.overflow();
          return FeasVerdict::Unknown;
        }
      }
      Combined[Var] = 0;
      ConstraintRow DarkRow = Combined;
      // dark constant: combined - (A-1)*(B-1).
      int64_t Penalty;
      if (mulOverflow(A - 1, B - 1, Penalty) ||
          subOverflow(DarkRow.back(), Penalty, DarkRow.back())) {
        C.overflow();
        return FeasVerdict::Unknown;
      }
      Real.addInequality(std::move(Combined));
      Dark.addInequality(std::move(DarkRow));
    }
  }

  if (Exact)
    return isEmptyRec(std::move(Real), Depth + 1, C);

  FeasVerdict RealV = isEmptyRec(Real, Depth + 1, C);
  if (RealV != FeasVerdict::NonEmpty)
    return RealV; // Empty or Unknown.
  FeasVerdict DarkV = isEmptyRec(std::move(Dark), Depth + 1, C);
  if (DarkV == FeasVerdict::NonEmpty)
    return FeasVerdict::NonEmpty; // A dark-shadow point is a real point.
  if (DarkV == FeasVerdict::Unknown)
    return FeasVerdict::Unknown;

  // Inexact and the shadows disagree: splinter (Pugh Section 2.3.3). An
  // integer solution, if any, must have A * x within a bounded distance of
  // some lower bound: A * x = -l(rest) + I for 0 <= I <= (A*Bmax - A -
  // Bmax) / Bmax, where Bmax is the largest upper-bound coefficient.
  int64_t BMax = 0;
  for (const ConstraintRow &U : S.Uppers)
    BMax = std::max(BMax, -U[Var]);
  bool SawUnknown = false;
  for (const ConstraintRow &L : S.Lowers) {
    int64_t A = L[Var];
    int64_t ABMax;
    if (mulOverflow(A, BMax, ABMax)) {
      C.overflow();
      return FeasVerdict::Unknown;
    }
    int64_t MaxI = floorDiv(ABMax - A - BMax, BMax);
    for (int64_t I = 0; I <= MaxI; ++I) {
      ++C.Stats.Splinters;
      if (!C.charge(1))
        return FeasVerdict::Unknown;
      Polyhedron Q = P;
      ConstraintRow Eq = L; // A * x + l(rest) == I
      Eq.back() -= I;       // |I| <= A <= |coeff| already in range.
      Q.addEquality(std::move(Eq));
      FeasVerdict V = isEmptyRec(std::move(Q), Depth + 1, C);
      if (V == FeasVerdict::NonEmpty)
        return FeasVerdict::NonEmpty;
      if (V == FeasVerdict::Unknown)
        SawUnknown = true;
    }
  }
  // Every splinter proven empty => empty; any Unknown splinter poisons the
  // emptiness claim.
  return SawUnknown ? FeasVerdict::Unknown : FeasVerdict::Empty;
}

} // namespace

namespace {
std::atomic<uint64_t> GlobalSolverQueries{0};
} // namespace

uint64_t shackle::solverQueryCount() {
  return GlobalSolverQueries.load(std::memory_order_relaxed);
}

FMElimination shackle::classifyElimination(const Polyhedron &P,
                                           unsigned Var) {
  FMElimination E;
  bool AllLoUnit = true, AllUpUnit = true;
  for (const ConstraintRow &Row : P.inequalities()) {
    if (Row[Var] > 0) {
      ++E.Lowers;
      AllLoUnit = AllLoUnit && Row[Var] == 1;
    } else if (Row[Var] < 0) {
      ++E.Uppers;
      AllUpUnit = AllUpUnit && Row[Var] == -1;
    }
  }
  E.Exact = AllLoUnit || AllUpUnit;
  return E;
}

FeasVerdict shackle::isIntegerEmptyBounded(const Polyhedron &P,
                                           const SolverBudget &Budget,
                                           SolverStats *Stats) {
  GlobalSolverQueries.fetch_add(1, std::memory_order_relaxed);
  SolverStats Local;
  SolverCtx C{Budget, Stats ? *Stats : Local};
  return isEmptyRec(P, /*Depth=*/0, C);
}

Ternary shackle::isSubsetOfBounded(const Polyhedron &A, const Polyhedron &B,
                                   const SolverBudget &Budget,
                                   SolverStats *Stats) {
  assert(A.getNumVars() == B.getNumVars() && "subset requires a common space");
  bool SawUnknown = false;
  auto Check = [&](Polyhedron Q) {
    switch (isIntegerEmptyBounded(Q, Budget, Stats)) {
    case FeasVerdict::Empty:
      return true; // This direction holds; keep checking the rest.
    case FeasVerdict::NonEmpty:
      return false;
    case FeasVerdict::Unknown:
      SawUnknown = true;
      return true; // Undecided; a later constraint may still refute.
    }
    return true;
  };
  for (const ConstraintRow &Row : B.equalities()) {
    // A subset of {e == 0} iff A /\ {e >= 1} and A /\ {e <= -1} are empty.
    Polyhedron Pos = A;
    ConstraintRow GE = Row;
    GE.back() -= 1;
    Pos.addInequality(std::move(GE));
    if (!Check(std::move(Pos)))
      return Ternary::False;
    Polyhedron Neg = A;
    ConstraintRow LE = negateInequality(Row);
    Neg.addInequality(std::move(LE));
    if (!Check(std::move(Neg)))
      return Ternary::False;
  }
  for (const ConstraintRow &Row : B.inequalities()) {
    Polyhedron Q = A;
    Q.addInequality(negateInequality(Row));
    if (!Check(std::move(Q)))
      return Ternary::False;
  }
  return SawUnknown ? Ternary::Unknown : Ternary::True;
}

Ternary shackle::isDisjointBounded(const Polyhedron &A, const Polyhedron &B,
                                   const SolverBudget &Budget,
                                   SolverStats *Stats) {
  switch (isIntegerEmptyBounded(intersect(A, B), Budget, Stats)) {
  case FeasVerdict::Empty:
    return Ternary::True;
  case FeasVerdict::NonEmpty:
    return Ternary::False;
  case FeasVerdict::Unknown:
    break;
  }
  return Ternary::Unknown;
}

bool shackle::isIntegerEmpty(const Polyhedron &P) {
  return isIntegerEmptyBounded(P) == FeasVerdict::Empty;
}

bool shackle::isSubsetOf(const Polyhedron &A, const Polyhedron &B) {
  return isSubsetOfBounded(A, B) == Ternary::True;
}

bool shackle::isDisjoint(const Polyhedron &A, const Polyhedron &B) {
  return isDisjointBounded(A, B) == Ternary::True;
}
