//===- polyhedral_test.cpp - Polyhedra, FM, Omega test, set ops ---------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Unit and property tests for the polyhedral substrate. The property tests
// compare against brute-force enumeration over a bounding box, which is the
// ground truth the Omega test and Fourier-Motzkin must agree with.
//
//===----------------------------------------------------------------------===//

#include "polyhedral/OmegaTest.h"
#include "polyhedral/Polyhedron.h"
#include "polyhedral/SetOps.h"
#include "polyhedral/Simplify.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

using namespace shackle;

namespace {

/// Deterministic pseudo-random generator for property tests.
struct Rng {
  uint64_t X;
  explicit Rng(uint64_t Seed) : X(Seed * 2654435761u + 1) {}
  uint64_t next() {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  }
  int64_t range(int64_t Lo, int64_t Hi) { // Inclusive.
    return Lo + static_cast<int64_t>(next() % (Hi - Lo + 1));
  }
};

/// Enumerates all points of [-Box, Box]^NumVars satisfying P.
std::vector<std::vector<int64_t>> enumerate(const Polyhedron &P,
                                            int64_t Box) {
  std::vector<std::vector<int64_t>> Points;
  std::vector<int64_t> Cur(P.getNumVars(), -Box);
  std::function<void(unsigned)> Rec = [&](unsigned D) {
    if (D == P.getNumVars()) {
      if (P.containsPoint(Cur))
        Points.push_back(Cur);
      return;
    }
    for (int64_t V = -Box; V <= Box; ++V) {
      Cur[D] = V;
      Rec(D + 1);
    }
  };
  Rec(0);
  return Points;
}

/// Builds a random conjunction of constraints within a small box.
Polyhedron randomPoly(Rng &R, unsigned NumVars, unsigned NumCons,
                      int64_t Box) {
  Polyhedron P(NumVars);
  for (unsigned V = 0; V < NumVars; ++V)
    P.addBounds(V, -Box, Box);
  for (unsigned I = 0; I < NumCons; ++I) {
    ConstraintRow Row(NumVars + 1, 0);
    for (unsigned V = 0; V < NumVars; ++V)
      Row[V] = R.range(-3, 3);
    Row[NumVars] = R.range(-6, 6);
    if (R.range(0, 3) == 0)
      P.addEquality(std::move(Row));
    else
      P.addInequality(std::move(Row));
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Basics
//===----------------------------------------------------------------------===//

TEST(Polyhedron, ContainsPoint) {
  Polyhedron P(2);
  P.addInequalityTerms({{0, 1}}, 0);           // x >= 0
  P.addInequalityTerms({{1, 1}, {0, -1}}, 0);  // y >= x
  EXPECT_TRUE(P.containsPoint({0, 0}));
  EXPECT_TRUE(P.containsPoint({2, 5}));
  EXPECT_FALSE(P.containsPoint({-1, 0}));
  EXPECT_FALSE(P.containsPoint({3, 2}));
}

TEST(Polyhedron, NormalizeTightensGcd) {
  // 2x - 3 >= 0 has integer solutions x >= 2.
  Polyhedron P(1);
  P.addInequalityTerms({{0, 2}}, -3);
  ASSERT_TRUE(P.normalize());
  ASSERT_EQ(P.getNumInequalities(), 1u);
  // Tightened to x - 2 >= 0.
  EXPECT_EQ(P.getInequality(0)[0], 1);
  EXPECT_EQ(P.getInequality(0)[1], -2);
}

TEST(Polyhedron, NormalizeDetectsGcdInfeasibleEquality) {
  // 2x == 5 has no integer solution.
  Polyhedron P(1);
  P.addEqualityTerms({{0, 2}}, -5);
  EXPECT_FALSE(P.normalize());
  EXPECT_TRUE(P.isObviouslyEmpty());
}

TEST(Polyhedron, NormalizeCoalescesComplementaryPairs) {
  Polyhedron P(2);
  P.addInequalityTerms({{0, 1}, {1, -1}}, 0); // x - y >= 0
  P.addInequalityTerms({{0, -1}, {1, 1}}, 0); // y - x >= 0
  ASSERT_TRUE(P.normalize());
  EXPECT_EQ(P.getNumEqualities(), 1u);
  EXPECT_EQ(P.getNumInequalities(), 0u);
}

TEST(Polyhedron, StickyEmptinessSurvivesSubstitution) {
  // x == y and y >= x + 1: substitution discharges to 0 >= 1.
  Polyhedron P(2);
  P.addEqualityTerms({{0, 1}, {1, -1}}, 0);
  P.addInequalityTerms({{1, 1}, {0, -1}}, -1);
  ConstraintRow Def(3, 0);
  Def[1] = 1; // x := y
  P.substitute(0, Def);
  EXPECT_TRUE(P.isObviouslyEmpty());
}

TEST(Polyhedron, AppendVarExtendsRows) {
  Polyhedron P(1);
  P.addInequalityTerms({{0, 1}}, -1);
  unsigned Y = P.appendVar("y");
  EXPECT_EQ(P.getNumVars(), 2u);
  EXPECT_EQ(P.getInequality(0).size(), 3u);
  EXPECT_EQ(P.getInequality(0)[Y], 0);
  EXPECT_EQ(P.getInequality(0).back(), -1);
}

TEST(Polyhedron, NegateInequality) {
  // not(x - 3 >= 0) == (-x + 2 >= 0), i.e. x <= 2.
  ConstraintRow Row = {1, -3};
  ConstraintRow Neg = negateInequality(Row);
  EXPECT_EQ(Neg[0], -1);
  EXPECT_EQ(Neg[1], 2);
}

//===----------------------------------------------------------------------===//
// Fourier-Motzkin projection vs brute force
//===----------------------------------------------------------------------===//

class FMProperty : public ::testing::TestWithParam<int> {};

TEST_P(FMProperty, ProjectionMatchesBruteForce) {
  Rng R(GetParam());
  const int64_t Box = 4;
  Polyhedron P = randomPoly(R, 3, 3, Box);

  // Ground truth: which (x0, x1) have some x2 in the box?
  std::vector<std::vector<int64_t>> Points = enumerate(P, Box);
  auto HasWitness = [&](int64_t A, int64_t B) {
    for (const auto &Pt : Points)
      if (Pt[0] == A && Pt[1] == B)
        return true;
    return false;
  };

  Polyhedron Proj = P.project(2);
  // FM (rational) over-approximates the integer projection, and equals it
  // when eliminations are exact. We check soundness (no projected point is
  // lost) always.
  for (int64_t A = -Box; A <= Box; ++A)
    for (int64_t B = -Box; B <= Box; ++B)
      if (HasWitness(A, B)) {
        EXPECT_TRUE(Proj.containsPoint({A, B}))
            << "lost (" << A << "," << B << ")";
      }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FMProperty, ::testing::Range(1, 40));

//===----------------------------------------------------------------------===//
// Omega test vs brute force
//===----------------------------------------------------------------------===//

class OmegaProperty : public ::testing::TestWithParam<int> {};

TEST_P(OmegaProperty, EmptinessMatchesBruteForce) {
  Rng R(GetParam() * 977);
  const int64_t Box = 4;
  // Random systems bounded to the box, so brute force is exact ground truth.
  Polyhedron P = randomPoly(R, 3, 4, Box);
  bool BruteEmpty = enumerate(P, Box).empty();
  EXPECT_EQ(isIntegerEmpty(P), BruteEmpty) << P.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OmegaProperty, ::testing::Range(1, 120));

TEST(OmegaTest, KnownRationalButNotIntegerFeasible) {
  // 1 <= 2x <= 1 has the rational solution x = 0.5 but no integer one.
  Polyhedron P(1);
  P.addInequalityTerms({{0, 2}}, -1);
  P.addInequalityTerms({{0, -2}}, 1);
  EXPECT_TRUE(isIntegerEmpty(P));

  // 3 <= 3x <= 5: rational interval [1, 5/3] contains the integer 1.
  Polyhedron Q(1);
  Q.addInequalityTerms({{0, 3}}, -3);
  Q.addInequalityTerms({{0, -3}}, 5);
  EXPECT_FALSE(isIntegerEmpty(Q));
}

TEST(OmegaTest, DarkShadowInexactCase) {
  // The classic: 0 <= x, 3x <= y, y <= 3x + 2, 5 <= y <= 7 combined with
  // y != 6-ish structures force splintering in textbook examples; here a
  // direct instance: 7 <= 3x + 5z <= 8 with 0 <= x,z <= 10 — solutions?
  // 3x + 5z = 7 (x=4? 3*4=12 no..) => x = 4, z = -1 invalid; z = 2, 3x = -3
  // invalid... x=0,z=? 5z in [7,8] no; z=1, 3x in [2,3] -> x=1 works (3+5=8).
  Polyhedron P(2);
  P.addBounds(0, 0, 10);
  P.addBounds(1, 0, 10);
  P.addInequalityTerms({{0, 3}, {1, 5}}, -7);
  P.addInequalityTerms({{0, -3}, {1, -5}}, 8);
  EXPECT_FALSE(isIntegerEmpty(P));
}

TEST(OmegaTest, EqualityEliminationWithLargeCoefficients) {
  // 7x + 12y == 13, -100 <= x,y <= 100: x = 7, y = -3 works (49 - 36 = 13).
  Polyhedron P(2);
  P.addBounds(0, -100, 100);
  P.addBounds(1, -100, 100);
  P.addEqualityTerms({{0, 7}, {1, 12}}, -13);
  EXPECT_FALSE(isIntegerEmpty(P));
  // 6x + 9y == 13: gcd 3 does not divide 13.
  Polyhedron Q(2);
  Q.addBounds(0, -100, 100);
  Q.addBounds(1, -100, 100);
  Q.addEqualityTerms({{0, 6}, {1, 9}}, -13);
  EXPECT_TRUE(isIntegerEmpty(Q));
}

TEST(OmegaTest, UnboundedSystems) {
  Polyhedron P(2); // x >= 10, y <= -3, no other bounds.
  P.addInequalityTerms({{0, 1}}, -10);
  P.addInequalityTerms({{1, -1}}, -3);
  EXPECT_FALSE(isIntegerEmpty(P));
}

TEST(OmegaTest, SubsetAndDisjoint) {
  Polyhedron Small(1), Big(1), Other(1);
  Small.addBounds(0, 2, 4);
  Big.addBounds(0, 0, 10);
  Other.addBounds(0, 7, 9);
  EXPECT_TRUE(isSubsetOf(Small, Big));
  EXPECT_FALSE(isSubsetOf(Big, Small));
  EXPECT_TRUE(isDisjoint(Small, Other));
  EXPECT_FALSE(isDisjoint(Big, Other));
}

//===----------------------------------------------------------------------===//
// Set difference
//===----------------------------------------------------------------------===//

class SubtractProperty : public ::testing::TestWithParam<int> {};

TEST_P(SubtractProperty, PiecesAreDisjointAndCoverExactly) {
  Rng R(GetParam() * 31337);
  const int64_t Box = 3;
  Polyhedron A = randomPoly(R, 2, 2, Box);
  Polyhedron B = randomPoly(R, 2, 2, Box);
  std::vector<Polyhedron> Pieces = subtract(A, B);

  for (int64_t X = -Box; X <= Box; ++X) {
    for (int64_t Y = -Box; Y <= Box; ++Y) {
      std::vector<int64_t> Pt = {X, Y};
      bool InDiff = A.containsPoint(Pt) && !B.containsPoint(Pt);
      unsigned Count = 0;
      for (const Polyhedron &Piece : Pieces)
        if (Piece.containsPoint(Pt))
          ++Count;
      EXPECT_EQ(Count, InDiff ? 1u : 0u)
          << "point (" << X << "," << Y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubtractProperty, ::testing::Range(1, 60));

//===----------------------------------------------------------------------===//
// Simplification
//===----------------------------------------------------------------------===//

TEST(Simplify, RemovesRedundantInequalities) {
  Polyhedron P(1);
  P.addBounds(0, 0, 10);
  P.addInequalityTerms({{0, 1}}, 5);   // x >= -5, implied by x >= 0.
  P.addInequalityTerms({{0, -1}}, 20); // x <= 20, implied by x <= 10.
  removeRedundantInequalities(P);
  EXPECT_EQ(P.getNumInequalities(), 2u);
}

TEST(Simplify, KeepsIrredundantConstraintsAndPreservesSet) {
  Polyhedron P(2);
  P.addBounds(0, 0, 10);
  P.addBounds(1, 0, 10);
  P.addInequalityTerms({{0, 1}, {1, -1}}, 0); // x >= y.
  Polyhedron Original = P;
  removeRedundantInequalities(P);
  // x >= 0 (implied by x >= y, y >= 0) and y <= 10 (implied by y <= x,
  // x <= 10) are dropped; the minimal description has three constraints.
  EXPECT_EQ(P.getNumInequalities(), 3u);
  for (int64_t X = -1; X <= 11; ++X)
    for (int64_t Y = -1; Y <= 11; ++Y)
      EXPECT_EQ(P.containsPoint({X, Y}), Original.containsPoint({X, Y}));
}

TEST(Simplify, GistDropsContextImpliedConstraints) {
  Polyhedron P(1), Ctx(1);
  P.addBounds(0, 0, 100);
  Ctx.addBounds(0, 10, 50);
  Polyhedron G = gist(P, Ctx);
  // Both of P's bounds are implied by the context.
  EXPECT_EQ(G.getNumInequalities(), 0u);
  EXPECT_EQ(G.getNumEqualities(), 0u);
}

class GistProperty : public ::testing::TestWithParam<int> {};

TEST_P(GistProperty, GistIntersectContextEqualsOriginal) {
  Rng R(GetParam() * 7919);
  const int64_t Box = 3;
  Polyhedron P = randomPoly(R, 2, 2, Box);
  Polyhedron Ctx = randomPoly(R, 2, 1, Box);
  Polyhedron G = gist(P, Ctx);
  for (int64_t X = -Box; X <= Box; ++X)
    for (int64_t Y = -Box; Y <= Box; ++Y) {
      std::vector<int64_t> Pt = {X, Y};
      if (!Ctx.containsPoint(Pt))
        continue;
      EXPECT_EQ(G.containsPoint(Pt), P.containsPoint(Pt))
          << "(" << X << "," << Y << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GistProperty, ::testing::Range(1, 60));

//===----------------------------------------------------------------------===//
// The one-row implication shortcut (impliedByOneRow) in gist and subtract
//===----------------------------------------------------------------------===//

/// A row with \p Row's coefficients, in a form picked by \p R: an equality
/// of either sign, an inequality, or an inequality of the opposite sign,
/// with a constant within 2 of implying Row. Implied says whether the row
/// implies Row (an equality when \p IsEq) on its own, as impliedByOneRow
/// must then find.
struct RelatedRow {
  ConstraintRow Row;
  bool IsEq = false;
  bool Implied = false;
};

RelatedRow relatedRow(Rng &R, const ConstraintRow &Row, bool IsEq) {
  RelatedRow Out;
  Out.Row = Row;
  const int64_t D = R.range(-2, 2);
  Out.Row.back() += D; // e.x + r + D.
  switch (R.range(0, 2)) {
  case 0: // +-(e.x + r + D) == 0 pins e.x + r to -D.
    Out.IsEq = true;
    Out.Implied = IsEq ? D == 0 : D <= 0;
    if (R.range(0, 1))
      for (int64_t &V : Out.Row)
        V = -V;
    break;
  case 1: // e.x + r + D >= 0.
    Out.Implied = !IsEq && D <= 0;
    break;
  default: // -(e.x + r + D) >= 0: never one-row implies Row.
    for (int64_t &V : Out.Row)
      V = -V;
    break;
  }
  return Out;
}

void addRow(Polyhedron &C, const RelatedRow &Rel) {
  if (Rel.IsEq)
    C.addEquality(Rel.Row);
  else
    C.addInequality(Rel.Row);
}

/// Calls \p F on every point of [-Box, Box]^NumVars.
void forEachPoint(unsigned NumVars, int64_t Box,
                  const std::function<void(const std::vector<int64_t> &)> &F) {
  std::vector<int64_t> Pt(NumVars, -Box);
  std::function<void(unsigned)> Rec = [&](unsigned D) {
    if (D == NumVars)
      return F(Pt);
    for (int64_t V = -Box; V <= Box; ++V) {
      Pt[D] = V;
      Rec(D + 1);
    }
  };
  Rec(0);
}

/// Does \p Row (an equality when \p IsEq) hold at \p Pt?
bool rowHolds(const ConstraintRow &Row, bool IsEq,
              const std::vector<int64_t> &Pt) {
  int64_t V = Row.back();
  for (unsigned I = 0; I < Pt.size(); ++I)
    V += Row[I] * Pt[I];
  return IsEq ? V == 0 : V >= 0;
}

/// Checks impliedByOneRow on \p Row against a context of the box and
/// \p Rel alone: it must find every implied related row, and whatever it
/// accepts must hold at every point of that context. Returns its answer.
bool checkHelper(const ConstraintRow &Row, bool IsEq, const RelatedRow &Rel,
                 unsigned NumVars, int64_t Box) {
  Polyhedron One(NumVars);
  for (unsigned V = 0; V < NumVars; ++V)
    One.addBounds(V, -Box, Box);
  addRow(One, Rel);
  const bool Accepted = impliedByOneRow(Row, IsEq, One);
  if (Rel.Implied) {
    EXPECT_TRUE(Accepted) << One.str();
  }
  if (Accepted)
    forEachPoint(NumVars, Box, [&](const std::vector<int64_t> &Pt) {
      if (One.containsPoint(Pt)) {
        EXPECT_TRUE(rowHolds(Row, IsEq, Pt)) << One.str();
      }
    });
  return Accepted;
}

TEST(GistShortcutProperty, SharedContextRowsKeepGistExact) {
  const int64_t Box = 3;
  unsigned Accepted = 0, Rejected = 0, Exercised = 0;
  for (int Seed = 1; Seed <= 400; ++Seed) {
    Rng R(Seed * 104729);
    const unsigned NumVars = 2 + Seed % 2;
    Polyhedron P = randomPoly(R, NumVars, 2, Box);
    Polyhedron Ctx = randomPoly(R, NumVars, 1, Box);
    // gist compares P's normalized rows against the context's; give the
    // context rows related to some of them, implying or near misses.
    Polyhedron Pn = P;
    Pn.normalize();
    bool Shared = false;
    auto Relate = [&](const ConstraintRow &Row, bool IsEq) {
      if (R.range(0, 3))
        return;
      RelatedRow Rel = relatedRow(R, Row, IsEq);
      (checkHelper(Row, IsEq, Rel, NumVars, Box) ? Accepted : Rejected) += 1;
      addRow(Ctx, Rel);
      Shared |= Rel.Implied;
    };
    for (const ConstraintRow &Row : Pn.equalities())
      Relate(Row, /*IsEq=*/true);
    for (const ConstraintRow &Row : Pn.inequalities())
      Relate(Row, /*IsEq=*/false);

    Polyhedron G = gist(P, Ctx);
    bool Meet = false;
    forEachPoint(NumVars, Box, [&](const std::vector<int64_t> &Pt) {
      if (!Ctx.containsPoint(Pt))
        return;
      Meet |= P.containsPoint(Pt);
      EXPECT_EQ(G.containsPoint(Pt), P.containsPoint(Pt))
          << "seed " << Seed << "\nP:\n"
          << P.str() << "context:\n"
          << Ctx.str();
    });
    Exercised += Shared && Meet;
  }
  // Enough seeds reach gist's row loops with an implied shared row, and
  // the helper meets both answers often, for the checks to mean something.
  EXPECT_GE(Exercised, 30u);
  EXPECT_GE(Accepted, 300u);
  EXPECT_GE(Rejected, 60u);
}

TEST(SubtractShortcutProperty, ImpliedRowsKeepPiecesDisjointAndExact) {
  const int64_t Box = 3;
  unsigned Exercised = 0;
  for (int Seed = 1; Seed <= 200; ++Seed) {
    Rng R(Seed * 7793);
    const unsigned NumVars = 2 + Seed % 2;
    Polyhedron A = randomPoly(R, NumVars, 1, Box);
    Polyhedron B = randomPoly(R, NumVars, 1, Box);
    // Give B inequalities related to A's rows: A's inequalities with a
    // constant moved either way, and either direction of A's equalities,
    // so that one row of A implies some of them and not others.
    Polyhedron An = A;
    An.normalize();
    auto Relate = [&](ConstraintRow Row) {
      if (R.range(0, 1))
        for (int64_t &V : Row)
          V = -V;
      Row.back() += R.range(-1, 2);
      B.addInequality(std::move(Row));
    };
    for (const ConstraintRow &Row : An.equalities())
      Relate(Row);
    for (ConstraintRow Row : An.inequalities())
      if (R.range(0, 1)) {
        Row.back() += R.range(-1, 2);
        B.addInequality(std::move(Row));
      }
    bool Shared = false;
    for (const ConstraintRow &Row : B.inequalities())
      Shared |= impliedByOneRow(Row, /*IsEq=*/false, An);

    std::vector<Polyhedron> Pieces = subtract(A, B);
    bool NonEmpty = false;
    forEachPoint(NumVars, Box, [&](const std::vector<int64_t> &Pt) {
      NonEmpty |= A.containsPoint(Pt);
      const bool InDiff = A.containsPoint(Pt) && !B.containsPoint(Pt);
      unsigned Count = 0;
      for (const Polyhedron &Piece : Pieces)
        Count += Piece.containsPoint(Pt);
      EXPECT_EQ(Count, InDiff ? 1u : 0u) << "seed " << Seed;
    });
    Exercised += Shared && NonEmpty;
  }
  EXPECT_GE(Exercised, 120u);
}

} // namespace
