//===- PathConstraints.cpp - Constraints along a generated-code path ---------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "codegen/PathConstraints.h"

#include "polyhedral/OmegaTest.h"
#include "support/MathExtras.h"

#include <algorithm>

using namespace shackle;

/// Dim >= ceil(E/D) is D*Dim - E >= 0, and a floor bound (or a ceil upper
/// bound) adds D - 1 to the constant.
ConstraintRow shackle::boundRow(unsigned NumDims, unsigned Dim,
                                const BoundExpr &B, bool Lower) {
  const int64_t Sign = Lower ? -1 : 1;
  ConstraintRow Row(NumDims + 1, 0);
  for (unsigned I = 0; I < B.Expr.getNumVars(); ++I)
    Row[I] = Sign * B.Expr.getCoeff(I);
  Row[Dim] -= Sign * B.Divisor;
  Row[NumDims] =
      Sign * B.Expr.getConstant() + (B.IsCeil != Lower ? B.Divisor - 1 : 0);
  return Row;
}

/// c*Dim + r >= 0 is Dim >= ceil(-r/c) for c > 0 and Dim <= floor(r/-c)
/// for c < 0.
BoundExpr shackle::rowBound(const ConstraintRow &R, unsigned Dim) {
  const unsigned N = R.size() - 1;
  const int64_t C = R[Dim];
  const int64_t Sign = C > 0 ? -1 : 1;
  BoundExpr B;
  B.Expr = AffineExpr::constant(N, Sign * R[N]);
  for (unsigned I = 0; I < N; ++I)
    if (I != Dim)
      B.Expr.setCoeff(I, Sign * R[I]);
  B.Divisor = C > 0 ? C : -C;
  B.IsCeil = C > 0;
  return B;
}

bool shackle::unitExact(const Polyhedron &P, unsigned Var) {
  bool OnVar = false;
  for (const ConstraintRow &E : P.equalities()) {
    if (E[Var] == 1 || E[Var] == -1)
      return true;
    OnVar = OnVar || E[Var] != 0;
  }
  return !OnVar && classifyElimination(P, Var).Exact;
}

namespace {

/// True when every integer point of \p P satisfies the row \p D >= 0
/// because one row of \p P implies it (or \p D holds everywhere).
bool impliedByARow(const Polyhedron &P, const ConstraintRow &Row) {
  Polyhedron One(P.getNumVars());
  One.addInequality(Row);
  if (!One.normalize() || One.inequalities().empty())
    return !One.isKnownEmpty();
  const ConstraintRow &D = One.inequalities()[0];
  const unsigned N = P.getNumVars();
  bool Implied = P.isKnownEmpty();
  forEachRow(P, [&](const ConstraintRow &R) {
    Implied = Implied || (std::equal(R.begin(), R.end() - 1, D.begin()) &&
                          R[N] <= D[N]);
  });
  return Implied;
}

} // namespace

/// The real shadow is certified when every lower/upper pair has a unit
/// coefficient on one side, or its dark-shadow row is implied by a row of
/// the real shadow (then the dark shadow, whose points all have an integer
/// preimage, is the whole real shadow). The halves of a non-unit equality
/// c*Var + e == 0 pair into the dark row -(c-1)^2 >= 0, which nothing
/// implies: such a projection is never exact.
bool shackle::eliminateExactly(Polyhedron &P, unsigned Var) {
  std::vector<ConstraintRow> Dark;
  if (!unitExact(P, Var))
    forEachRow(P, [&](const ConstraintRow &L) {
      forEachRow(P, [&](const ConstraintRow &U) {
        const int64_t A = L[Var], B = -U[Var];
        if (A <= 1 || B <= 1)
          return;
        ConstraintRow Row(L.size());
        for (unsigned J = 0; J < Row.size(); ++J)
          Row[J] = checkedAdd(checkedMul(A, U[J]), checkedMul(B, L[J]));
        Row.back() -= (A - 1) * (B - 1);
        Dark.push_back(std::move(Row));
      });
    });
  P.fourierMotzkinEliminate(Var);
  for (const ConstraintRow &D : Dark)
    if (!impliedByARow(P, D))
      return false;
  return true;
}

void PathConstraints::push(const ASTNode &N) {
  Marks.push_back({Ineqs.size(), Eqs.size(), Bound.size()});
  if (N.Kind == ASTKind::Loop || N.Kind == ASTKind::Let) {
    const std::vector<BoundExpr> &Ubs = N.Kind == ASTKind::Let ? N.Lbs : N.Ubs;
    for (const BoundExpr &B : N.Lbs)
      Ineqs.push_back(boundRow(NumDims, N.Dim, B, /*Lower=*/true));
    for (const BoundExpr &B : Ubs)
      Ineqs.push_back(boundRow(NumDims, N.Dim, B, /*Lower=*/false));
    Bound.push_back(N.Dim);
  } else if (N.Kind == ASTKind::If) {
    Ineqs.insert(Ineqs.end(), N.IneqConds.begin(), N.IneqConds.end());
    Eqs.insert(Eqs.end(), N.EqConds.begin(), N.EqConds.end());
  }
}

void PathConstraints::pop() {
  const Mark M = Marks.back();
  Marks.pop_back();
  Ineqs.resize(M.Ineqs);
  Eqs.resize(M.Eqs);
  Bound.resize(M.Bound);
}

bool PathConstraints::rebinds() const {
  std::vector<unsigned> Sorted(Bound);
  std::sort(Sorted.begin(), Sorted.end());
  return std::adjacent_find(Sorted.begin(), Sorted.end()) != Sorted.end();
}

Polyhedron PathConstraints::polyhedron(unsigned Extra) const {
  Polyhedron P(NumDims + Extra);
  auto Widen = [&](ConstraintRow Row) {
    Row.insert(Row.end() - 1, Extra, 0);
    return Row;
  };
  for (const ConstraintRow &R : Ineqs)
    P.addInequality(Widen(R));
  for (const ConstraintRow &R : Eqs)
    P.addEquality(Widen(R));
  return P;
}

namespace {

/// \p Row over the nest's dims as a row of a pair polyhedron with the
/// copies of \p Primed: read by the first point, or with \p Second by the
/// second, whose primed dims sit in the copies' columns.
ConstraintRow pairRow(const ConstraintRow &Row,
                      const std::vector<unsigned> &Primed, bool Second) {
  const unsigned ND = Row.size() - 1;
  ConstraintRow Out(Row);
  Out.insert(Out.end() - 1, Primed.size(), 0);
  if (Second)
    for (unsigned K = 0; K < Primed.size(); ++K)
      std::swap(Out[Primed[K]], Out[ND + K]);
  return Out;
}

} // namespace

Polyhedron PathConstraints::pairs(const std::vector<unsigned> &Primed) const {
  Polyhedron P = polyhedron(Primed.size());
  auto OnPrimed = [&](const ConstraintRow &R) {
    return std::any_of(Primed.begin(), Primed.end(),
                       [&](unsigned D) { return R[D] != 0; });
  };
  for (const ConstraintRow &R : Ineqs)
    if (OnPrimed(R))
      P.addInequality(pairRow(R, Primed, /*Second=*/true));
  for (const ConstraintRow &R : Eqs)
    if (OnPrimed(R))
      P.addEquality(pairRow(R, Primed, /*Second=*/true));
  return P;
}

std::vector<ConstraintRow> shackle::indexRows(const LoopNest &Nest,
                                              const ASTNode &Inst,
                                              const ArrayRef &R) {
  std::vector<ConstraintRow> Rows;
  for (const AffineExpr &I : R.Indices) {
    const AffineExpr E =
        mapToScan(I, *Inst.S, Inst.VarMap, Nest.NumDims, Nest.NumParams);
    ConstraintRow Row(E.getNumVars() + 1);
    for (unsigned D = 0; D < E.getNumVars(); ++D)
      Row[D] = E.getCoeff(D);
    Row.back() = E.getConstant();
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

bool shackle::provesNoConflict(const LoopNest &Nest, const Polyhedron &Pairs,
                               const std::vector<unsigned> &Primed,
                               const std::vector<ASTNodePtr> &Insts) {
  struct Access {
    const ASTNode *Inst;
    const ArrayRef *Ref;
    bool Write;
  };
  std::vector<Access> Accesses;
  for (const ASTNodePtr &C : Insts)
    for (const auto &[Ref, Write] : C->S->refs())
      Accesses.push_back({C.get(), Ref, Write});
  for (const Access &A : Accesses)
    for (const Access &B : Accesses) {
      if (A.Ref->ArrayId != B.Ref->ArrayId || !(A.Write || B.Write))
        continue;
      Polyhedron Q = Pairs;
      const std::vector<ConstraintRow> IA = indexRows(Nest, *A.Inst, *A.Ref);
      const std::vector<ConstraintRow> IB = indexRows(Nest, *B.Inst, *B.Ref);
      for (unsigned P = 0; P < IA.size(); ++P) {
        ConstraintRow Row = pairRow(IA[P], Primed, /*Second=*/false);
        const ConstraintRow RB = pairRow(IB[P], Primed, /*Second=*/true);
        for (unsigned J = 0; J < Row.size(); ++J)
          Row[J] -= RB[J];
        Q.addEquality(std::move(Row));
      }
      if (isIntegerEmptyBounded(Q) != FeasVerdict::Empty)
        return false;
    }
  return true;
}
