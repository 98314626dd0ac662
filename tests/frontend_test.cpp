//===- frontend_test.cpp - DSL parser ------------------------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "core/Legality.h"
#include "core/ShackleDriver.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

using namespace shackle;

namespace {

const char *CholeskySrc = R"(
# Right-looking Cholesky, paper Figure 1(ii), 0-based.
param N
array A[N][N] colmajor

do J = 0, N-1
  S1: A[J][J] = sqrt(A[J][J])
  do I = J+1, N-1
    S2: A[I][J] = A[I][J] / A[J][J]
  end
  do L = J+1, N-1
    do K = J+1, L
      S3: A[L][K] = A[L][K] - A[L][J]*A[K][J]
    end
  end
end
)";

TEST(Frontend, ParsesCholeskyIdenticalToBuiltin) {
  ParseResult R = parseProgram(CholeskySrc);
  ASSERT_TRUE(R) << R.Error;
  BenchSpec Builtin = makeCholeskyRight();
  // The same pretty-printed text implies identical structure.
  EXPECT_EQ(R.Prog->str(), Builtin.Prog->str());
  EXPECT_EQ(R.Prog->getNumStmts(), 3u);
  EXPECT_EQ(R.Prog->getNumParams(), 1u);
}

TEST(Frontend, ParsedProgramRunsAndShacklesLikeBuiltin) {
  ParseResult R = parseProgram(CholeskySrc);
  ASSERT_TRUE(R) << R.Error;
  const Program &P = *R.Prog;
  ShackleChain Chain = choleskyShackleStores(P, 8);
  ASSERT_TRUE(checkLegality(P, Chain).Legal);

  int64_t N = 21;
  ProgramInstance Ref(P, {N}), Test(P, {N});
  Ref.fillRandom(3, 0.5, 1.5);
  for (int64_t I = 0; I < N; ++I) {
    int64_t Idx[2] = {I, I};
    Ref.buffer(0)[Ref.offset(0, Idx)] += 3.0 * static_cast<double>(N);
  }
  Test.buffer(0) = Ref.buffer(0);
  runLoopNest(generateOriginalCode(P), Ref);
  runLoopNest(generateShackledCode(P, Chain), Test);
  EXPECT_EQ(Ref.maxAbsDifference(Test), 0.0);
}

TEST(Frontend, MinMaxBoundsAndBandLayout) {
  const char *Src = R"(
param N
param bw
array A[N][N] band(bw)
do J = 0, N-1
  A[J][J] = sqrt(A[J][J])
  do I = J+1, min(N-1, J+bw)
    A[I][J] = A[I][J] / A[J][J]
  end
end
)";
  ParseResult R = parseProgram(Src);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->getArray(0).Layout, LayoutKind::BandLower);
  EXPECT_NE(R.Prog->str().find("min(N - 1, bw + J)"), std::string::npos);
  // Auto-generated labels.
  EXPECT_EQ(R.Prog->getStmt(0).Label, "S1");
  EXPECT_EQ(R.Prog->getStmt(1).Label, "S2");
}

TEST(Frontend, TiledLayoutAndFloats) {
  const char *Src = R"(
param N
array C[N][N] tiled(8, 4)
do I = 0, N-1
  C[I][I] = 0.5 * C[I][I] + 1.25e-1
end
)";
  ParseResult R = parseProgram(Src);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->getArray(0).Layout, LayoutKind::TiledRowMajor);
  EXPECT_EQ(R.Prog->getArray(0).TileRows, 8);
  EXPECT_EQ(R.Prog->getArray(0).TileCols, 4);
  ProgramInstance Inst(*R.Prog, {8});
  Inst.fillRandom(1, 1.0, 1.0); // All ones.
  runLoopNest(generateOriginalCode(*R.Prog), Inst);
  int64_t Idx[2] = {3, 3};
  EXPECT_DOUBLE_EQ(Inst.buffer(0)[Inst.offset(0, Idx)], 0.625);
}

TEST(Frontend, NegativeCoefficientsAndScaledVars) {
  const char *Src = R"(
param N
array b[N]
do i = 0, N-1
  b[N-1-i] = b[N-1-i] + b[2*i - i]
end
)";
  ParseResult R = parseProgram(Src);
  ASSERT_TRUE(R) << R.Error;
  // N - 1 - i prints in variable order; 2*i - i folds to i.
  EXPECT_NE(R.Prog->str().find("b[N - i - 1]"), std::string::npos)
      << R.Prog->str();
  EXPECT_NE(R.Prog->str().find("+ b[i])"), std::string::npos)
      << R.Prog->str();
}

struct ErrorCase {
  const char *Name; ///< Stable test-name suffix.
  const char *Src;
  const char *Fragment; ///< Expected substring of the error.
};

void PrintTo(const ErrorCase &C, std::ostream *OS) { *OS << C.Name; }

class FrontendErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(FrontendErrors, RejectsWithDiagnostic) {
  ParseResult R = parseProgram(GetParam().Src);
  ASSERT_FALSE(R) << "parsed unexpectedly";
  EXPECT_NE(R.Error.find(GetParam().Fragment), std::string::npos)
      << R.Error;
  EXPECT_NE(R.Error.find("line "), std::string::npos) << R.Error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FrontendErrors,
    ::testing::Values(
        ErrorCase{"undeclared array",
                  "param N\narray A[N]\ndo i = 0, N-1\nA[i] = B[i]\nend",
                  "unknown array"},
        ErrorCase{"undeclared variable",
                  "param N\narray A[N]\nA[j] = 1", "unknown variable"},
        ErrorCase{"missing end",
                  "param N\narray A[N]\ndo i = 0, N-1\nA[i] = 1\n",
                  "expected 'end'"},
        ErrorCase{"min in lower bound",
                  "param N\narray A[N]\ndo i = min(0, 1), N-1\nA[i] = 1\nend",
                  "lower bounds take max"},
        ErrorCase{"max in upper bound",
                  "param N\narray A[N]\ndo i = 0, max(N-1, 5)\nA[i] = 1\nend",
                  "upper bounds take min"},
        ErrorCase{"wrong subscript count",
                  "param N\narray A[N][N]\nA[0] = 1",
                  "wrong number of subscripts"},
        ErrorCase{"param redefinition",
                  "param N\nparam N", "redefinition"},
        ErrorCase{"loop variable shadows param",
                  "param N\narray A[N]\ndo N = 0, 5\nA[0] = 1\nend",
                  "shadows"},
        ErrorCase{"undeclared variable in affine subscript",
                  "param N\narray A[N]\nA[i+1] = 1", "unknown variable"}));

TEST(FrontendErrors, StrayCharacterCarriesLineAndColumn) {
  ParseResult R = parseProgram(
      "param N\narray A[N]\ndo i = 0, N-1\n  A[i] = 1 @ 2\nend\n");
  ASSERT_FALSE(R);
  EXPECT_EQ(R.Diag.Code, DiagCode::ParseError);
  EXPECT_EQ(R.Diag.Loc.Line, 4u);
  EXPECT_EQ(R.Diag.Loc.Col, 12u);
  EXPECT_NE(R.Error.find("unexpected character '@'"), std::string::npos)
      << R.Error;
  EXPECT_NE(R.Error.find("col 12"), std::string::npos) << R.Error;
}

TEST(FrontendErrors, OverflowingIntegerLiteralIsRejected) {
  ParseResult R = parseProgram(
      "param N\narray A[N]\ndo i = 0, N-1\n"
      "  A[i] = A[i] + 99999999999999999999\nend\n");
  ASSERT_FALSE(R);
  EXPECT_EQ(R.Diag.Code, DiagCode::ParseError);
  EXPECT_NE(R.Error.find("does not fit in 64 bits"), std::string::npos)
      << R.Error;
}

TEST(FrontendErrors, TrailingGarbageAfterProgramIsAnError) {
  // A stray character after a complete program used to be silently treated
  // as end-of-input; it must be a diagnostic.
  ParseResult R =
      parseProgram("param N\narray A[N]\ndo i = 0, N-1\n  A[i] = 1\nend\n$");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("unexpected character '$'"), std::string::npos)
      << R.Error;
  EXPECT_EQ(R.Diag.Loc.Line, 6u);
}

TEST(Frontend, AffineRejectsVariableTimesVariable) {
  const char *Src = "param N\narray A[N]\ndo i = 0, N-1\nA[i*N] = 1\nend";
  ParseResult R = parseProgram(Src);
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("constant coefficients"), std::string::npos)
      << R.Error;
}

} // namespace
