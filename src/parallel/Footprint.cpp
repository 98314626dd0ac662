//===- Footprint.cpp - Exact write footprints of block tasks -----------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "parallel/BlockPartition.h"

#include "interp/Interpreter.h"
#include "polyhedral/OmegaTest.h"
#include "support/MathExtras.h"

#include <limits>
#include <numeric>
#include <unordered_map>

using namespace shackle;

namespace {

/// Sorts \p Pieces by (array, offset) and merges overlapping or adjacent
/// ones: the run-length encoding of their union.
FootprintRuns encodeRuns(std::vector<FootprintRun> &Pieces) {
  std::sort(Pieces.begin(), Pieces.end());
  FootprintRuns Runs;
  for (const FootprintRun &P : Pieces) {
    FootprintRun *Last = Runs.empty() ? nullptr : &Runs.back();
    if (Last && Last->ArrayId == P.ArrayId &&
        P.Offset <= Last->Offset + Last->Length)
      Last->Length = std::max(Last->Length, P.Offset + P.Length - Last->Offset);
    else
      Runs.push_back(P);
  }
  return Runs;
}

/// The row  lhs >= 0  over the nest's dims for  Dim >= B  (\p Lower) or
/// Dim <= B:  Dim >= ceil(E/D) is D*Dim - E >= 0, and a floor bound (or a
/// ceil upper bound) adds D - 1 to the constant.
ConstraintRow boundRow(unsigned NumDims, unsigned Dim, const BoundExpr &B,
                       bool Lower) {
  const int64_t Sign = Lower ? -1 : 1;
  ConstraintRow Row(NumDims + 1, 0);
  for (unsigned I = 0; I < B.Expr.getNumVars(); ++I)
    Row[I] = Sign * B.Expr.getCoeff(I);
  Row[Dim] -= Sign * B.Divisor;
  Row[NumDims] =
      Sign * B.Expr.getConstant() + (B.IsCeil != Lower ? B.Divisor - 1 : 0);
  return Row;
}

/// Calls \p F on every constraint of \p P as an inequality row (an
/// equality as two).
template <typename Fn> void forEachRow(const Polyhedron &P, Fn &&F) {
  for (const ConstraintRow &R : P.inequalities())
    F(R);
  for (const ConstraintRow &R : P.equalities()) {
    F(R);
    ConstraintRow Neg(R);
    for (int64_t &C : Neg)
      C = -C;
    F(Neg);
  }
}

/// True when eliminating \p Var is exact by the unit rule: a unit equality
/// substitutes it, or, with no equality on it, every lower or every upper
/// bound has a unit coefficient.
bool unitExact(const Polyhedron &P, unsigned Var) {
  bool OnVar = false;
  for (const ConstraintRow &E : P.equalities()) {
    if (E[Var] == 1 || E[Var] == -1)
      return true;
    OnVar = OnVar || E[Var] != 0;
  }
  return !OnVar && classifyElimination(P, Var).Exact;
}

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

/// Eliminates \p Var from \p P by Fourier-Motzkin and reports whether the
/// real shadow is certified to be the exact integer projection: every
/// lower/upper pair has a unit coefficient on one side, or its dark-shadow
/// row is implied by a row of the real shadow (then the dark shadow, whose
/// points all have an integer preimage, is the whole real shadow). The
/// halves of a non-unit equality c*Var + e == 0 pair into the dark row
/// -(c-1)^2 >= 0, which nothing implies: such a projection is never exact.
bool eliminateExactly(Polyhedron &P, unsigned Var) {
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

/// One store's write set under one segment root, projected onto the dims
/// bound outside the root plus one variable per array index (after the
/// nest's dims).
struct StoreProjection {
  unsigned ArrayId = 0;
  bool Exact = true;       ///< Every elimination was certified.
  bool Contiguous = false; ///< Order.back() is the layout's unit-stride axis.
  /// Index variables in scan order, outermost first.
  std::vector<unsigned> Order;
  /// Levels[0]: rows over the outer dims alone; Levels[K + 1]: the rows
  /// bounding index Order[K] given the outer dims and the enclosing
  /// indices. Empty when the store never runs.
  std::vector<std::vector<ConstraintRow>> Levels;
};

class Projector {
public:
  Projector(const LoopNest &Nest, const ArrayAddressing &Addr)
      : Nest(Nest), Addr(Addr) {}

  /// Appends the pieces \p T writes; false when a projection of one of its
  /// stores is not certified (or unbounded).
  bool footprint(const BlockTask &T, std::vector<FootprintRun> &Out) {
    for (const BlockTask::Segment &Seg : T.Segments) {
      auto [It, New] = ByRoot.try_emplace(Seg.Node);
      if (New) {
        std::vector<unsigned> Bound;
        collect(*Seg.Node, Bound, It->second);
      }
      for (const StoreProjection &SP : It->second) {
        std::vector<int64_t> X(Seg.DimValues);
        X.resize(Nest.NumDims + SP.Order.size(), 0);
        if (!SP.Exact || (!SP.Levels.empty() && !scan(SP, 0, X, Out)))
          return false;
      }
    }
    return true;
  }

private:
  static int64_t value(const ConstraintRow &R, const std::vector<int64_t> &X) {
    return std::inner_product(X.begin(), X.end(), R.begin(), R.back());
  }

  /// Emits the pieces at scan level \p K with the enclosing values in \p X.
  bool scan(const StoreProjection &SP, unsigned K, std::vector<int64_t> &X,
            std::vector<FootprintRun> &Out) const {
    const int64_t *Idx = X.data() + Nest.NumDims;
    if (K == 0) {
      for (const ConstraintRow &R : SP.Levels[0])
        if (value(R, X) < 0)
          return true;
      return scan(SP, 1, X, Out);
    }
    if (K > SP.Order.size()) {
      Out.push_back({SP.ArrayId, Addr.offset(SP.ArrayId, Idx), 1});
      return true;
    }
    const unsigned V = Nest.NumDims + SP.Order[K - 1];
    constexpr int64_t Inf = std::numeric_limits<int64_t>::max();
    int64_t Lo = -Inf, Hi = Inf;
    X[V] = 0;
    for (const ConstraintRow &R : SP.Levels[K]) {
      const int64_t Rest = value(R, X);
      if (R[V] > 0)
        Lo = std::max(Lo, ceilDiv(-Rest, R[V]));
      else
        Hi = std::min(Hi, floorDiv(Rest, -R[V]));
    }
    if (Lo == -Inf || Hi == Inf)
      return false;
    if (K == SP.Order.size() && SP.Contiguous) {
      X[V] = Lo;
      if (Lo <= Hi)
        Out.push_back({SP.ArrayId, Addr.offset(SP.ArrayId, Idx), Hi - Lo + 1});
      return true;
    }
    for (X[V] = Lo; X[V] <= Hi; ++X[V])
      if (!scan(SP, K + 1, X, Out))
        return false;
    return true;
  }

  /// Walks the subtree at \p N with the path's constraints on the stacks
  /// and the dims its loops and lets bind in \p Bound.
  void collect(const ASTNode &N, std::vector<unsigned> &Bound,
               std::vector<StoreProjection> &Out) {
    const std::size_t NumIneqs = Ineqs.size(), NumEqs = Eqs.size();
    const bool Binds = N.Kind == ASTKind::Loop || N.Kind == ASTKind::Let;
    if (Binds) {
      const std::vector<BoundExpr> &Ubs =
          N.Kind == ASTKind::Let ? N.Lbs : N.Ubs;
      for (const BoundExpr &B : N.Lbs)
        Ineqs.push_back(boundRow(Nest.NumDims, N.Dim, B, /*Lower=*/true));
      for (const BoundExpr &B : Ubs)
        Ineqs.push_back(boundRow(Nest.NumDims, N.Dim, B, /*Lower=*/false));
      Bound.push_back(N.Dim);
    } else if (N.Kind == ASTKind::If) {
      Ineqs.insert(Ineqs.end(), N.IneqConds.begin(), N.IneqConds.end());
      Eqs.insert(Eqs.end(), N.EqConds.begin(), N.EqConds.end());
    } else {
      Out.push_back(project(N, Bound));
    }
    for (const ASTNodePtr &C : N.Body)
      collect(*C, Bound, Out);
    Ineqs.resize(NumIneqs);
    Eqs.resize(NumEqs);
    if (Binds)
      Bound.pop_back();
  }

  StoreProjection project(const ASTNode &N, std::vector<unsigned> Bound) {
    const unsigned ND = Nest.NumDims;
    const ArrayRef &LHS = N.S->LHS;
    const unsigned Rank = LHS.Indices.size();
    StoreProjection SP;
    SP.ArrayId = LHS.ArrayId;
    // A dim bound twice on the path is not one polyhedron: earlier rows
    // read its old value.
    std::vector<unsigned> Sorted(Bound);
    std::sort(Sorted.begin(), Sorted.end());
    SP.Exact = std::adjacent_find(Sorted.begin(), Sorted.end()) == Sorted.end();
    if (!SP.Exact)
      return SP;

    Polyhedron P(ND + Rank);
    auto Widen = [&](ConstraintRow Row) {
      Row.insert(Row.end() - 1, Rank, 0);
      return Row;
    };
    for (const ConstraintRow &R : Ineqs)
      P.addInequality(Widen(R));
    for (const ConstraintRow &R : Eqs)
      P.addEquality(Widen(R));
    for (unsigned I = 0; I < Rank; ++I) { // a_I - index_I == 0
      AffineExpr E =
          mapToScan(LHS.Indices[I], *N.S, N.VarMap, ND, Nest.NumParams);
      ConstraintRow Row(ND + Rank + 1, 0);
      for (unsigned D = 0; D < ND; ++D)
        Row[D] = -E.getCoeff(D);
      Row[ND + I] = 1;
      Row.back() = -E.getConstant();
      P.addEquality(std::move(Row));
    }

    // Eliminate the root's dims, innermost first, taking an exact-by-unit
    // one whenever there is one.
    std::reverse(Bound.begin(), Bound.end());
    while (!Bound.empty() && P.normalize()) {
      auto It = std::find_if(Bound.begin(), Bound.end(),
                             [&](unsigned D) { return unitExact(P, D); });
      if (It == Bound.end())
        It = Bound.begin();
      const unsigned D = *It;
      Bound.erase(It);
      if (!(SP.Exact = eliminateExactly(P, D)))
        return SP;
    }

    // Scan levels, the layout's unit-stride axis innermost.
    const LayoutKind Layout = Nest.Prog->getArray(SP.ArrayId).Layout;
    SP.Contiguous =
        Layout == LayoutKind::RowMajor || Layout == LayoutKind::ColMajor;
    for (unsigned I = 0; I < Rank; ++I)
      SP.Order.push_back(Layout == LayoutKind::ColMajor ? Rank - 1 - I : I);
    std::vector<std::vector<ConstraintRow>> Levels(Rank + 1);
    for (unsigned K = Rank; K > 0; --K) {
      const unsigned V = ND + SP.Order[K - 1];
      forEachRow(P, [&](const ConstraintRow &R) {
        if (R[V] != 0)
          Levels[K].push_back(R);
      });
      P.fourierMotzkinEliminate(V);
    }
    forEachRow(P, [&](const ConstraintRow &R) { Levels[0].push_back(R); });
    if (P.normalize())
      SP.Levels = std::move(Levels);
    return SP;
  }

  const LoopNest &Nest;
  const ArrayAddressing &Addr;
  /// The path's constraints over the nest's dims, outermost first.
  std::vector<ConstraintRow> Ineqs, Eqs;
  std::unordered_map<const ASTNode *, std::vector<StoreProjection>> ByRoot;
};

} // namespace

unsigned shackle::computeFootprints(const LoopNest &Nest, BlockPartition &Part,
                                    const ArrayAddressing &Addr) {
  Projector Proj(Nest, Addr);
  unsigned Fallbacks = 0;
  std::vector<FootprintRun> Pieces;
  for (BlockTask &T : Part.Tasks) {
    Pieces.clear();
    const bool Exact = Proj.footprint(T, Pieces);
    Fallbacks += !Exact;
    T.Footprint = std::make_shared<const FootprintRuns>(
        Exact ? encodeRuns(Pieces) : walkFootprint(Nest, T, Addr));
  }
  return Fallbacks;
}

FootprintRuns shackle::unionFootprints(const BlockPartition &Part) {
  std::vector<FootprintRun> Pieces;
  for (const BlockTask &T : Part.Tasks)
    if (T.Footprint)
      Pieces.insert(Pieces.end(), T.Footprint->begin(), T.Footprint->end());
  return encodeRuns(Pieces);
}

FootprintRuns shackle::walkFootprint(const LoopNest &Nest,
                                     const BlockTask &Task,
                                     const ArrayAddressing &Addr) {
  // Consecutive stores to one element (a reduction loop) extend the last
  // piece instead of adding one, so the raw list stays near the run count.
  std::vector<FootprintRun> Pieces;
  WriteSink Sink = [&Pieces](unsigned ArrayId, int64_t Offset) {
    FootprintRun *L = Pieces.empty() ? nullptr : &Pieces.back();
    if (L && L->ArrayId == ArrayId && Offset >= L->Offset &&
        Offset <= L->Offset + L->Length)
      L->Length = std::max(L->Length, Offset - L->Offset + 1);
    else
      Pieces.push_back({ArrayId, Offset, 1});
  };
  for (const BlockTask::Segment &Seg : Task.Segments)
    collectSubtreeWrites(Nest, *Seg.Node, Seg.DimValues, Addr, Sink);
  return encodeRuns(Pieces);
}
