//===- sample_test.cpp - Integer sampling and legality witnesses --------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "core/Legality.h"
#include "polyhedral/OmegaTest.h"
#include "polyhedral/Sample.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

using namespace shackle;

namespace {

TEST(Sample, FindsPointInSimpleBox) {
  Polyhedron P(2);
  P.addBounds(0, 3, 5);
  P.addBounds(1, -2, -2);
  auto Pt = sampleIntegerPoint(P);
  ASSERT_TRUE(Pt.has_value());
  EXPECT_TRUE(P.containsPoint(*Pt));
  EXPECT_EQ((*Pt)[1], -2);
}

TEST(Sample, RespectsCouplingConstraints) {
  // x + y == 7, x - y >= 3, 0 <= x,y <= 10.
  Polyhedron P(2);
  P.addBounds(0, 0, 10);
  P.addBounds(1, 0, 10);
  P.addEqualityTerms({{0, 1}, {1, 1}}, -7);
  P.addInequalityTerms({{0, 1}, {1, -1}}, -3);
  auto Pt = sampleIntegerPoint(P);
  ASSERT_TRUE(Pt.has_value());
  EXPECT_TRUE(P.containsPoint(*Pt));
}

TEST(Sample, ReturnsNulloptOnEmptySets) {
  Polyhedron P(1);
  P.addBounds(0, 5, 3); // Empty interval.
  EXPECT_FALSE(sampleIntegerPoint(P).has_value());

  Polyhedron Q(1); // 2x == 1.
  Q.addEqualityTerms({{0, 2}}, -1);
  EXPECT_FALSE(sampleIntegerPoint(Q).has_value());
}

class SampleProperty : public ::testing::TestWithParam<int> {};

TEST_P(SampleProperty, AgreesWithOmegaWithinBox) {
  // Random bounded systems: sample() finds a point iff the Omega test says
  // non-empty, and the point satisfies the constraints.
  uint64_t X = GetParam() * 2654435761u + 17;
  auto Next = [&X]() {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  Polyhedron P(3);
  for (unsigned V = 0; V < 3; ++V)
    P.addBounds(V, -4, 4);
  for (unsigned I = 0; I < 3; ++I) {
    ConstraintRow Row(4, 0);
    for (unsigned V = 0; V < 3; ++V)
      Row[V] = static_cast<int64_t>(Next() % 7) - 3;
    Row[3] = static_cast<int64_t>(Next() % 13) - 6;
    P.addInequality(std::move(Row));
  }
  auto Pt = sampleIntegerPoint(P, -4, 4);
  EXPECT_EQ(Pt.has_value(), !isIntegerEmpty(P));
  if (Pt) {
    EXPECT_TRUE(P.containsPoint(*Pt));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SampleProperty, ::testing::Range(1, 80));

TEST(LegalityWitness, IllegalCholeskyShackleHasConcreteCounterexample) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  // The paper-prose choice (A[J,J] for S2, A[L,J] for S3): illegal.
  std::vector<unsigned> RefIdx = {0, 2, 2};
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onRefs(
      P, DataBlocking::rectangular(0, {4, 4}, {1, 0}), RefIdx));
  LegalityResult R = checkLegality(P, Chain);
  ASSERT_FALSE(R.Legal);
  ASSERT_FALSE(R.Violations.empty());
  std::string W = R.Violations[0].witnessStr(P);
  EXPECT_NE(W.find("must precede"), std::string::npos) << W;
  EXPECT_NE(W.find("N="), std::string::npos) << W;
}

TEST(LegalityWitness, WitnessSatisfiesViolationSystem) {
  BenchSpec Spec = makeCholeskyRight();
  const Program &P = *Spec.Prog;
  std::vector<unsigned> RefIdx = {0, 2, 2};
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onRefs(
      P, DataBlocking::rectangular(0, {4, 4}, {1, 0}), RefIdx));
  LegalityResult R = checkLegality(P, Chain, /*FirstViolationOnly=*/true);
  ASSERT_FALSE(R.Violations.empty());
  auto Pt = sampleIntegerPoint(R.Violations[0].ViolationPoly);
  ASSERT_TRUE(Pt.has_value());
  EXPECT_TRUE(R.Violations[0].ViolationPoly.containsPoint(*Pt));
}

} // namespace
