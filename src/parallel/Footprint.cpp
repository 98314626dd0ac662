//===- Footprint.cpp - Exact write footprints of block tasks -----------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "parallel/BlockPartition.h"

#include "codegen/PathConstraints.h"
#include "interp/Interpreter.h"
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
      if (New)
        collect(*Seg.Node, It->second);
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

  /// Walks the subtree at \p N with the path's constraints in Path.
  void collect(const ASTNode &N, std::vector<StoreProjection> &Out) {
    Path.push(N);
    if (N.Kind == ASTKind::Instance)
      Out.push_back(project(N));
    for (const ASTNodePtr &C : N.Body)
      collect(*C, Out);
    Path.pop();
  }

  StoreProjection project(const ASTNode &N) {
    const unsigned ND = Nest.NumDims;
    const ArrayRef &LHS = N.S->LHS;
    const unsigned Rank = LHS.Indices.size();
    StoreProjection SP;
    SP.ArrayId = LHS.ArrayId;
    if (!(SP.Exact = !Path.rebinds()))
      return SP;

    Polyhedron P = Path.polyhedron(Rank);
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
    std::vector<unsigned> Bound(Path.bound().rbegin(), Path.bound().rend());
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
  /// The constraints on the path from the segment root being collected.
  PathConstraints Path{Nest.NumDims};
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
