//===- Benchmarks.cpp - The paper's benchmark programs -----------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "programs/Benchmarks.h"

#include "support/ErrorHandling.h"

#include <cassert>

using namespace shackle;

namespace {

ScalarExpr::Ptr ld(unsigned Array, std::initializer_list<AffineExpr> Idx) {
  ArrayRef R;
  R.ArrayId = Array;
  R.Indices = Idx;
  return ScalarExpr::load(std::move(R));
}

ArrayRef ref(unsigned Array, std::initializer_list<AffineExpr> Idx) {
  ArrayRef R;
  R.ArrayId = Array;
  R.Indices = Idx;
  return R;
}

/// Adds 3N (N = parameter 0) to the diagonal of array \p A. A fillRandom
/// input in [0.5, 1.5] then becomes strictly diagonally dominant, hence
/// positive definite for the factorizations that read its lower triangle.
/// Band storage is reached through the same logical offsets.
std::function<void(ProgramInstance &)> boostDiagonal(unsigned A) {
  return [A](ProgramInstance &Inst) {
    int64_t N = Inst.paramValue(0);
    for (int64_t I = 0; I < N; ++I) {
      int64_t Idx[2] = {I, I};
      Inst.buffer(A)[Inst.offset(A, Idx)] += 3.0 * static_cast<double>(N);
    }
  };
}

/// Finds a statement id by label.
unsigned stmtByLabel(const Program &P, const std::string &Label) {
  for (unsigned Id = 0; Id < P.getNumStmts(); ++Id)
    if (P.getStmt(Id).Label == Label)
      return Id;
  fatalError("no statement with the requested label");
}

} // namespace

//===----------------------------------------------------------------------===//
// Matrix multiplication (Figure 1(i))
//===----------------------------------------------------------------------===//

BenchSpec shackle::makeMatMul() {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N");
  unsigned C = P->addSquareArray("C", 2, N, LayoutKind::ColMajor);
  unsigned A = P->addSquareArray("A", 2, N, LayoutKind::ColMajor);
  unsigned B = P->addSquareArray("B", 2, N, LayoutKind::ColMajor);

  unsigned I = P->beginLoop("I", P->cst(0), P->v(N) - 1);
  unsigned J = P->beginLoop("J", P->cst(0), P->v(N) - 1);
  unsigned K = P->beginLoop("K", P->cst(0), P->v(N) - 1);
  P->addStmt("S1", ref(C, {P->v(I), P->v(J)}),
             ScalarExpr::add(ld(C, {P->v(I), P->v(J)}),
                             ScalarExpr::mul(ld(A, {P->v(I), P->v(K)}),
                                             ld(B, {P->v(K), P->v(J)}))));
  P->endLoop();
  P->endLoop();
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = "matmul";
  Spec.Prog = std::move(P);
  Spec.MainArray = C;
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    return 2.0 * N * N * N;
  };
  return Spec;
}

//===----------------------------------------------------------------------===//
// Cholesky factorizations (Figure 1(ii), 1(iii))
//===----------------------------------------------------------------------===//

BenchSpec shackle::makeCholeskyRight() {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N");
  unsigned A = P->addSquareArray("A", 2, N, LayoutKind::ColMajor);

  unsigned J = P->beginLoop("J", P->cst(0), P->v(N) - 1);
  P->addStmt("S1", ref(A, {P->v(J), P->v(J)}),
             ScalarExpr::sqrt(ld(A, {P->v(J), P->v(J)})));
  unsigned I = P->beginLoop("I", P->v(J) + 1, P->v(N) - 1);
  P->addStmt("S2", ref(A, {P->v(I), P->v(J)}),
             ScalarExpr::div(ld(A, {P->v(I), P->v(J)}),
                             ld(A, {P->v(J), P->v(J)})));
  P->endLoop();
  unsigned L = P->beginLoop("L", P->v(J) + 1, P->v(N) - 1);
  unsigned K = P->beginLoop("K", P->v(J) + 1, P->v(L));
  P->addStmt("S3", ref(A, {P->v(L), P->v(K)}),
             ScalarExpr::sub(ld(A, {P->v(L), P->v(K)}),
                             ScalarExpr::mul(ld(A, {P->v(L), P->v(J)}),
                                             ld(A, {P->v(K), P->v(J)}))));
  P->endLoop();
  P->endLoop();
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = "cholesky-right";
  Spec.Prog = std::move(P);
  Spec.MainArray = A;
  Spec.Condition = boostDiagonal(A);
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    return N * N * N / 3.0;
  };
  return Spec;
}

BenchSpec shackle::makeCholeskyLeft() {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N");
  unsigned A = P->addSquareArray("A", 2, N, LayoutKind::ColMajor);

  unsigned J = P->beginLoop("J", P->cst(0), P->v(N) - 1);
  unsigned L = P->beginLoop("L", P->v(J), P->v(N) - 1);
  unsigned K = P->beginLoop("K", P->cst(0), P->v(J) - 1);
  P->addStmt("S3", ref(A, {P->v(L), P->v(J)}),
             ScalarExpr::sub(ld(A, {P->v(L), P->v(J)}),
                             ScalarExpr::mul(ld(A, {P->v(L), P->v(K)}),
                                             ld(A, {P->v(J), P->v(K)}))));
  P->endLoop();
  P->endLoop();
  P->addStmt("S1", ref(A, {P->v(J), P->v(J)}),
             ScalarExpr::sqrt(ld(A, {P->v(J), P->v(J)})));
  unsigned I = P->beginLoop("I", P->v(J) + 1, P->v(N) - 1);
  P->addStmt("S2", ref(A, {P->v(I), P->v(J)}),
             ScalarExpr::div(ld(A, {P->v(I), P->v(J)}),
                             ld(A, {P->v(J), P->v(J)})));
  P->endLoop();
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = "cholesky-left";
  Spec.Prog = std::move(P);
  Spec.MainArray = A;
  Spec.Condition = boostDiagonal(A);
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    return N * N * N / 3.0;
  };
  return Spec;
}

//===----------------------------------------------------------------------===//
// QR factorization by Householder reflections
//===----------------------------------------------------------------------===//

BenchSpec shackle::makeQRHouseholder() {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N");
  unsigned A = P->addSquareArray("A", 2, N, LayoutKind::ColMajor);
  unsigned Sig = P->addArray("sig", {P->v(N)});
  unsigned Alpha = P->addArray("alpha", {P->v(N)});
  unsigned Beta = P->addArray("beta", {P->v(N)});
  unsigned W = P->addArray("w", {P->v(N)});
  unsigned Rd = P->addArray("rdiag", {P->v(N)});

  // For column K: v = x + |x| e1 stored in A[K..N-1, K]; beta = v'v / 2;
  // each trailing column J is updated as a_J -= v * (v'a_J) / beta.
  unsigned K = P->beginLoop("K", P->cst(0), P->v(N) - 1);
  P->addStmt("S1", ref(Sig, {P->v(K)}), ScalarExpr::number(0.0));
  unsigned I1 = P->beginLoop("I1", P->v(K), P->v(N) - 1);
  P->addStmt("S2", ref(Sig, {P->v(K)}),
             ScalarExpr::add(ld(Sig, {P->v(K)}),
                             ScalarExpr::mul(ld(A, {P->v(I1), P->v(K)}),
                                             ld(A, {P->v(I1), P->v(K)}))));
  P->endLoop();
  P->addStmt("S3", ref(Alpha, {P->v(K)}),
             ScalarExpr::sqrt(ld(Sig, {P->v(K)})));
  P->addStmt("S4", ref(Beta, {P->v(K)}),
             ScalarExpr::add(ld(Sig, {P->v(K)}),
                             ScalarExpr::mul(ld(Alpha, {P->v(K)}),
                                             ld(A, {P->v(K), P->v(K)}))));
  P->addStmt("S5", ref(Rd, {P->v(K)}),
             ScalarExpr::neg(ld(Alpha, {P->v(K)})));
  P->addStmt("S6", ref(A, {P->v(K), P->v(K)}),
             ScalarExpr::add(ld(A, {P->v(K), P->v(K)}),
                             ld(Alpha, {P->v(K)})));
  unsigned J = P->beginLoop("J", P->v(K) + 1, P->v(N) - 1);
  P->addStmt("S7", ref(W, {P->v(J)}), ScalarExpr::number(0.0));
  unsigned I2 = P->beginLoop("I2", P->v(K), P->v(N) - 1);
  P->addStmt("S8", ref(W, {P->v(J)}),
             ScalarExpr::add(ld(W, {P->v(J)}),
                             ScalarExpr::mul(ld(A, {P->v(I2), P->v(K)}),
                                             ld(A, {P->v(I2), P->v(J)}))));
  P->endLoop();
  unsigned I3 = P->beginLoop("I3", P->v(K), P->v(N) - 1);
  P->addStmt("S9", ref(A, {P->v(I3), P->v(J)}),
             ScalarExpr::sub(
                 ld(A, {P->v(I3), P->v(J)}),
                 ScalarExpr::mul(ld(A, {P->v(I3), P->v(K)}),
                                 ScalarExpr::div(ld(W, {P->v(J)}),
                                                 ld(Beta, {P->v(K)})))));
  P->endLoop();
  P->endLoop();
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = "qr-householder";
  Spec.Prog = std::move(P);
  Spec.MainArray = A;
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    return 4.0 * N * N * N / 3.0;
  };
  return Spec;
}

//===----------------------------------------------------------------------===//
// ADI kernel (Figure 14(i))
//===----------------------------------------------------------------------===//

BenchSpec shackle::makeADI() {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N", /*MinValue=*/2);
  unsigned B = P->addSquareArray("B", 2, N, LayoutKind::ColMajor);
  unsigned X = P->addSquareArray("X", 2, N, LayoutKind::ColMajor);
  unsigned A = P->addSquareArray("A", 2, N, LayoutKind::ColMajor);

  unsigned I = P->beginLoop("i", P->cst(1), P->v(N) - 1);
  unsigned K1 = P->beginLoop("k1", P->cst(0), P->v(N) - 1);
  P->addStmt(
      "S1", ref(X, {P->v(I), P->v(K1)}),
      ScalarExpr::sub(ld(X, {P->v(I), P->v(K1)}),
                      ScalarExpr::div(
                          ScalarExpr::mul(ld(X, {P->v(I) - 1, P->v(K1)}),
                                          ld(A, {P->v(I), P->v(K1)})),
                          ld(B, {P->v(I) - 1, P->v(K1)}))));
  P->endLoop();
  unsigned K2 = P->beginLoop("k2", P->cst(0), P->v(N) - 1);
  P->addStmt(
      "S2", ref(B, {P->v(I), P->v(K2)}),
      ScalarExpr::sub(ld(B, {P->v(I), P->v(K2)}),
                      ScalarExpr::div(
                          ScalarExpr::mul(ld(A, {P->v(I), P->v(K2)}),
                                          ld(A, {P->v(I), P->v(K2)})),
                          ld(B, {P->v(I) - 1, P->v(K2)}))));
  P->endLoop();
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = "adi";
  Spec.Prog = std::move(P);
  Spec.MainArray = B;
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    return 6.0 * (N - 1) * N;
  };
  return Spec;
}

//===----------------------------------------------------------------------===//
// GMTRY kernel: Gaussian elimination without pivoting
//===----------------------------------------------------------------------===//

BenchSpec shackle::makeGmtry() {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N");
  unsigned A = P->addSquareArray("A", 2, N, LayoutKind::ColMajor);

  unsigned K = P->beginLoop("K", P->cst(0), P->v(N) - 1);
  unsigned I1 = P->beginLoop("I1", P->v(K) + 1, P->v(N) - 1);
  P->addStmt("S1", ref(A, {P->v(I1), P->v(K)}),
             ScalarExpr::div(ld(A, {P->v(I1), P->v(K)}),
                             ld(A, {P->v(K), P->v(K)})));
  P->endLoop();
  unsigned I2 = P->beginLoop("I2", P->v(K) + 1, P->v(N) - 1);
  unsigned J = P->beginLoop("J", P->v(K) + 1, P->v(N) - 1);
  P->addStmt("S2", ref(A, {P->v(I2), P->v(J)}),
             ScalarExpr::sub(ld(A, {P->v(I2), P->v(J)}),
                             ScalarExpr::mul(ld(A, {P->v(I2), P->v(K)}),
                                             ld(A, {P->v(K), P->v(J)}))));
  P->endLoop();
  P->endLoop();
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = "gmtry";
  Spec.Prog = std::move(P);
  Spec.MainArray = A;
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    return 2.0 * N * N * N / 3.0;
  };
  return Spec;
}

//===----------------------------------------------------------------------===//
// Banded Cholesky (Figure 15)
//===----------------------------------------------------------------------===//

BenchSpec shackle::makeCholeskyBanded() {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N");
  unsigned Bw = P->addParam("bw");
  unsigned A = P->addArray("A", {P->v(N), P->v(N)}, LayoutKind::BandLower,
                           /*BandParam=*/Bw);

  unsigned J = P->beginLoop("J", P->cst(0), P->v(N) - 1);
  P->addStmt("S1", ref(A, {P->v(J), P->v(J)}),
             ScalarExpr::sqrt(ld(A, {P->v(J), P->v(J)})));
  unsigned I = P->beginLoopMulti("I", {P->v(J) + 1},
                                 {P->v(N) - 1, P->v(J) + P->v(Bw)});
  P->addStmt("S2", ref(A, {P->v(I), P->v(J)}),
             ScalarExpr::div(ld(A, {P->v(I), P->v(J)}),
                             ld(A, {P->v(J), P->v(J)})));
  P->endLoop();
  unsigned L = P->beginLoopMulti("L", {P->v(J) + 1},
                                 {P->v(N) - 1, P->v(J) + P->v(Bw)});
  unsigned K = P->beginLoop("K", P->v(J) + 1, P->v(L));
  P->addStmt("S3", ref(A, {P->v(L), P->v(K)}),
             ScalarExpr::sub(ld(A, {P->v(L), P->v(K)}),
                             ScalarExpr::mul(ld(A, {P->v(L), P->v(J)}),
                                             ld(A, {P->v(K), P->v(J)}))));
  P->endLoop();
  P->endLoop();
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = "cholesky-banded";
  Spec.Prog = std::move(P);
  Spec.MainArray = A;
  Spec.Condition = boostDiagonal(A);
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    double B = static_cast<double>(Pv[1]);
    return N * (B * B + 3.0 * B + 1.0);
  };
  return Spec;
}

//===----------------------------------------------------------------------===//
// SYRK and TRMM (BLAS-3 companions of the factorizations)
//===----------------------------------------------------------------------===//

BenchSpec shackle::makeSyrk() {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N");
  unsigned C = P->addSquareArray("C", 2, N, LayoutKind::ColMajor);
  unsigned A = P->addSquareArray("A", 2, N, LayoutKind::ColMajor);

  // C[I,J] += A[I,K] * A[J,K] for J <= I (lower triangle).
  unsigned I = P->beginLoop("I", P->cst(0), P->v(N) - 1);
  unsigned J = P->beginLoop("J", P->cst(0), P->v(I));
  unsigned K = P->beginLoop("K", P->cst(0), P->v(N) - 1);
  P->addStmt("S1", ref(C, {P->v(I), P->v(J)}),
             ScalarExpr::add(ld(C, {P->v(I), P->v(J)}),
                             ScalarExpr::mul(ld(A, {P->v(I), P->v(K)}),
                                             ld(A, {P->v(J), P->v(K)}))));
  P->endLoop();
  P->endLoop();
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = "syrk";
  Spec.Prog = std::move(P);
  Spec.MainArray = C;
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    return N * N * N; // ~N^3 useful flops on the triangle.
  };
  return Spec;
}

BenchSpec shackle::makeTrmm() {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N");
  unsigned B = P->addSquareArray("B", 2, N, LayoutKind::ColMajor);
  unsigned L = P->addSquareArray("L", 2, N, LayoutKind::ColMajor);

  // In-place B := L * B, L lower triangular: row I of the result needs
  // rows 0..I of B, so rows must be produced bottom-up. With ascending
  // loops: B[N-1-Ip, J] = sum_{K <= N-1-Ip} L[N-1-Ip, K] * B[K, J],
  // accumulated in place (diagonal term last via the K loop ordering).
  unsigned Ip = P->beginLoop("Ip", P->cst(0), P->v(N) - 1);
  unsigned J = P->beginLoop("J", P->cst(0), P->v(N) - 1);
  AffineExpr Row = (P->cst(0) - P->v(Ip)) + P->v(N) - 1; // N-1-Ip.
  P->addStmt("S1", ref(B, {Row, P->v(J)}),
             ScalarExpr::mul(ld(L, {Row, Row}), ld(B, {Row, P->v(J)})));
  unsigned K = P->beginLoop("K", P->cst(0), Row - 1);
  P->addStmt("S2", ref(B, {Row, P->v(J)}),
             ScalarExpr::add(ld(B, {Row, P->v(J)}),
                             ScalarExpr::mul(ld(L, {Row, P->v(K)}),
                                             ld(B, {P->v(K), P->v(J)}))));
  P->endLoop();
  P->endLoop();
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = "trmm";
  Spec.Prog = std::move(P);
  Spec.MainArray = B;
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    return N * N * N;
  };
  return Spec;
}

//===----------------------------------------------------------------------===//
// Physically tiled matrix multiplication (Section 5.3)
//===----------------------------------------------------------------------===//

BenchSpec shackle::makeMatMulTiled(int64_t Tile) {
  BenchSpec Spec = makeMatMul();
  // Rebuild with the same structure is unnecessary: retile the arrays of a
  // fresh program before finalize. makeMatMul already finalized, so build
  // anew here.
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N");
  unsigned C = P->addSquareArray("C", 2, N);
  unsigned A = P->addSquareArray("A", 2, N);
  unsigned B = P->addSquareArray("B", 2, N);
  P->setTiledLayout(C, Tile, Tile);
  P->setTiledLayout(A, Tile, Tile);
  P->setTiledLayout(B, Tile, Tile);

  unsigned I = P->beginLoop("I", P->cst(0), P->v(N) - 1);
  unsigned J = P->beginLoop("J", P->cst(0), P->v(N) - 1);
  unsigned K = P->beginLoop("K", P->cst(0), P->v(N) - 1);
  P->addStmt("S1", ref(C, {P->v(I), P->v(J)}),
             ScalarExpr::add(ld(C, {P->v(I), P->v(J)}),
                             ScalarExpr::mul(ld(A, {P->v(I), P->v(K)}),
                                             ld(B, {P->v(K), P->v(J)}))));
  P->endLoop();
  P->endLoop();
  P->endLoop();
  P->finalize();

  Spec.Name = "matmul-tiled";
  Spec.Prog = std::move(P);
  return Spec;
}

//===----------------------------------------------------------------------===//
// Triangular solves (Section 8's back-solve remark)
//===----------------------------------------------------------------------===//

BenchSpec shackle::makeTriangularSolve(bool Lower) {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N");
  unsigned B = P->addArray("b", {P->v(N)});
  unsigned M = P->addSquareArray("L", 2, N, LayoutKind::ColMajor);

  // For the upper solve the data flows bottom-up; the source program uses
  // flipped indices r(i) = N-1-i so loops still increase.
  auto Row = [&](const AffineExpr &V) {
    return Lower ? V : (P->cst(0) - V) + P->v(N) - 1;
  };

  unsigned I = P->beginLoop("i", P->cst(0), P->v(N) - 1);
  unsigned J = P->beginLoop("j", P->cst(0), P->v(I) - 1);
  P->addStmt("S1", ref(B, {Row(P->v(I))}),
             ScalarExpr::sub(ld(B, {Row(P->v(I))}),
                             ScalarExpr::mul(
                                 ld(M, {Row(P->v(I)), Row(P->v(J))}),
                                 ld(B, {Row(P->v(J))}))));
  P->endLoop();
  P->addStmt("S2", ref(B, {Row(P->v(I))}),
             ScalarExpr::div(ld(B, {Row(P->v(I))}),
                             ld(M, {Row(P->v(I)), Row(P->v(I))})));
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = Lower ? "trisolve-lower" : "trisolve-upper";
  Spec.Prog = std::move(P);
  Spec.MainArray = B;
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    return N * N;
  };
  return Spec;
}

ShackleChain shackle::triSolveShackle(const Program &P, int64_t Bsz,
                                      bool Reversed) {
  DataBlocking Blocking = DataBlocking::rectangular(0, {Bsz});
  Blocking.Planes[0].Reversed = Reversed;
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onStores(P, std::move(Blocking)));
  return Chain;
}

//===----------------------------------------------------------------------===//
// 1-D Gauss-Seidel relaxation (Section 8)
//===----------------------------------------------------------------------===//

BenchSpec shackle::makeSeidel1D() {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N", /*MinValue=*/3);
  unsigned T = P->addParam("T", /*MinValue=*/1);
  unsigned A = P->addArray("A", {P->v(N)});

  unsigned Tv = P->beginLoop("t", P->cst(0), P->v(T) - 1);
  (void)Tv;
  unsigned I = P->beginLoop("i", P->cst(1), P->v(N) - 2);
  P->addStmt(
      "S1", ref(A, {P->v(I)}),
      ScalarExpr::div(
          ScalarExpr::add(ld(A, {P->v(I) - 1}),
                          ScalarExpr::add(ld(A, {P->v(I)}),
                                          ld(A, {P->v(I) + 1}))),
          ScalarExpr::number(3.0)));
  P->endLoop();
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = "seidel-1d";
  Spec.Prog = std::move(P);
  Spec.MainArray = A;
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    double T = static_cast<double>(Pv[1]);
    return 3.0 * (N - 2.0) * T;
  };
  return Spec;
}

BenchSpec shackle::makeSeidel2D() {
  auto P = std::make_unique<Program>();
  unsigned N = P->addParam("N", /*MinValue=*/3);
  unsigned T = P->addParam("T", /*MinValue=*/1);
  unsigned A = P->addSquareArray("A", 2, N);

  unsigned Tv = P->beginLoop("t", P->cst(0), P->v(T) - 1);
  (void)Tv;
  unsigned I = P->beginLoop("i", P->cst(1), P->v(N) - 2);
  unsigned J = P->beginLoop("j", P->cst(1), P->v(N) - 2);
  P->addStmt(
      "S1", ref(A, {P->v(I), P->v(J)}),
      ScalarExpr::mul(
          ScalarExpr::number(0.2),
          ScalarExpr::add(
              ld(A, {P->v(I), P->v(J)}),
              ScalarExpr::add(
                  ScalarExpr::add(ld(A, {P->v(I) - 1, P->v(J)}),
                                  ld(A, {P->v(I) + 1, P->v(J)})),
                  ScalarExpr::add(ld(A, {P->v(I), P->v(J) - 1}),
                                  ld(A, {P->v(I), P->v(J) + 1}))))));
  P->endLoop();
  P->endLoop();
  P->endLoop();
  P->finalize();

  BenchSpec Spec;
  Spec.Name = "seidel-2d";
  Spec.Prog = std::move(P);
  Spec.MainArray = A;
  Spec.Flops = [](const std::vector<int64_t> &Pv) {
    double N = static_cast<double>(Pv[0]);
    double T = static_cast<double>(Pv[1]);
    return 5.0 * (N - 2.0) * (N - 2.0) * T;
  };
  return Spec;
}

//===----------------------------------------------------------------------===//
// Shackle configurations
//===----------------------------------------------------------------------===//

ShackleChain shackle::mmmShackleC(const Program &P, int64_t Bsz) {
  ShackleChain Chain;
  Chain.Factors.push_back(
      DataShackle::onStores(P, DataBlocking::rectangular(0, {Bsz, Bsz})));
  return Chain;
}

ShackleChain shackle::mmmShackleCxA(const Program &P, int64_t Bsz) {
  ShackleChain Chain = mmmShackleC(P, Bsz);
  // Reference 2 of S1 is A[I,K] (refs are: store C, load C, load A, load B).
  Chain.Factors.push_back(DataShackle::onRefs(
      P, DataBlocking::rectangular(1, {Bsz, Bsz}), {2}));
  return Chain;
}

ShackleChain shackle::mmmShackleTwoLevel(const Program &P, int64_t Outer,
                                         int64_t Inner) {
  assert(Outer % Inner == 0 && "outer block must be a multiple of the inner");
  ShackleChain Chain = mmmShackleCxA(P, Outer);
  ShackleChain InnerChain = mmmShackleCxA(P, Inner);
  for (DataShackle &F : InnerChain.Factors)
    Chain.Factors.push_back(std::move(F));
  return Chain;
}

ShackleChain shackle::choleskyShackleStores(const Program &P, int64_t Bsz) {
  // Column blocks vary slowest: the paper's "top to bottom, left to right"
  // walk, which yields the Figure 7/8 code shape.
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onStores(
      P, DataBlocking::rectangular(0, {Bsz, Bsz}, {1, 0})));
  return Chain;
}

ShackleChain shackle::choleskyShackleReads(const Program &P, int64_t Bsz) {
  // S1 -> A[J,J] (load 1), S2 -> A[J,J] (load 2), S3 -> A[K,J] (load 3).
  //
  // The paper's Section 6.1 prose says "A[L,J] from S3", but that choice is
  // not legal: the update S3(J,L,K) of element A[L,K] would be shackled to
  // block (L,J) while the scaling S2(K,L) of the same element is shackled to
  // the diagonal block (K,K), and for L in a later block row the scaling's
  // block is touched first, breaking the output dependence S3 -> S2. Both
  // our exact ILP legality test and a brute-force enumeration of all
  // instance orders at small N confirm that A[K,J] is the reference that
  // makes the "reads" shackle legal (see tests/legality_test.cpp).
  std::vector<unsigned> RefIdx(P.getNumStmts(), 0);
  RefIdx[stmtByLabel(P, "S1")] = 1;
  RefIdx[stmtByLabel(P, "S2")] = 2;
  RefIdx[stmtByLabel(P, "S3")] = 3;
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onRefs(
      P, DataBlocking::rectangular(0, {Bsz, Bsz}, {1, 0}), RefIdx));
  return Chain;
}

ShackleChain shackle::choleskyShackleProduct(const Program &P, int64_t Bsz,
                                             bool WritesFirst) {
  ShackleChain Writes = choleskyShackleStores(P, Bsz);
  ShackleChain Reads = choleskyShackleReads(P, Bsz);
  ShackleChain Chain;
  if (WritesFirst) {
    Chain.Factors.push_back(std::move(Writes.Factors[0]));
    Chain.Factors.push_back(std::move(Reads.Factors[0]));
  } else {
    Chain.Factors.push_back(std::move(Reads.Factors[0]));
    Chain.Factors.push_back(std::move(Writes.Factors[0]));
  }
  return Chain;
}

ShackleChain shackle::qrColumnShackle(const Program &P, int64_t Bsz) {
  // One set of cutting planes orthogonal to the column index of A.
  DataBlocking Blocking;
  Blocking.ArrayId = 0;
  CuttingPlaneSet Cols;
  Cols.Normal = {0, 1};
  Cols.BlockSize = Bsz;
  Blocking.Planes.push_back(std::move(Cols));

  DataShackle Sh;
  Sh.Blocking = std::move(Blocking);
  Sh.ShackledRefs.resize(P.getNumStmts());

  // Column-K statements (reflector construction) tie to column K; the
  // update statements tie to the column J being updated. Statements with no
  // textual reference to A get a dummy reference (paper Section 5.3).
  auto ColRef = [&](unsigned KVar) {
    ArrayRef R;
    R.ArrayId = 0;
    R.Indices = {P.v(KVar), P.v(KVar)};
    return R;
  };
  for (unsigned Id = 0; Id < P.getNumStmts(); ++Id) {
    const Stmt &S = P.getStmt(Id);
    unsigned KVar = S.LoopVars.front();
    if (S.Label == "S7" || S.Label == "S8" || S.Label == "S9") {
      // Update statements: loop vars are (K, J, ...); use column J.
      unsigned JVar = S.LoopVars[1];
      ArrayRef R;
      R.ArrayId = 0;
      R.Indices = {P.v(JVar), P.v(JVar)};
      Sh.ShackledRefs[Id] = std::move(R);
    } else {
      Sh.ShackledRefs[Id] = ColRef(KVar);
    }
  }
  ShackleChain Chain;
  Chain.Factors.push_back(std::move(Sh));
  return Chain;
}

ShackleChain shackle::adiShackle(const Program &P) {
  // Block B with 1x1 blocks traversed column-by-column (storage order for a
  // column-major mindset): the column plane set first, then the row set.
  DataBlocking Blocking;
  Blocking.ArrayId = 0;
  CuttingPlaneSet Cols;
  Cols.Normal = {0, 1};
  Cols.BlockSize = 1;
  CuttingPlaneSet Rows;
  Rows.Normal = {1, 0};
  Rows.BlockSize = 1;
  Blocking.Planes.push_back(std::move(Cols));
  Blocking.Planes.push_back(std::move(Rows));

  DataShackle Sh;
  Sh.Blocking = std::move(Blocking);
  Sh.ShackledRefs.resize(P.getNumStmts());
  for (unsigned Id = 0; Id < P.getNumStmts(); ++Id) {
    const Stmt &S = P.getStmt(Id);
    unsigned IVar = S.LoopVars[0];
    unsigned KVar = S.LoopVars[1];
    // B[i-1, k] in both statements (a real reference in both).
    ArrayRef R;
    R.ArrayId = 0;
    R.Indices = {P.v(IVar) - 1, P.v(KVar)};
    Sh.ShackledRefs[Id] = std::move(R);
  }
  ShackleChain Chain;
  Chain.Factors.push_back(std::move(Sh));
  return Chain;
}

ShackleChain shackle::adiShackleTwoLevel(const Program &P, int64_t ColGroup) {
  assert(ColGroup >= 1 && "column group must be at least 1");
  // Outer factor: ColGroup-wide column panels of B, shackled through the
  // same B[i-1,k] reference the 1x1 inner factor uses. The panel coordinate
  // is floor(k / ColGroup), so outer tasks sweep the panels left to right
  // and the inner adiShackle factor replays its fused column-major
  // traversal within each panel.
  DataBlocking Blocking;
  Blocking.ArrayId = 0;
  CuttingPlaneSet Cols;
  Cols.Normal = {0, 1};
  Cols.BlockSize = ColGroup;
  Blocking.Planes.push_back(std::move(Cols));

  DataShackle Outer;
  Outer.Blocking = std::move(Blocking);
  Outer.ShackledRefs.resize(P.getNumStmts());
  for (unsigned Id = 0; Id < P.getNumStmts(); ++Id) {
    const Stmt &S = P.getStmt(Id);
    ArrayRef R;
    R.ArrayId = 0;
    R.Indices = {P.v(S.LoopVars[0]) - 1, P.v(S.LoopVars[1])};
    Outer.ShackledRefs[Id] = std::move(R);
  }

  ShackleChain Chain;
  Chain.Factors.push_back(std::move(Outer));
  ShackleChain Inner = adiShackle(P);
  Chain.Factors.push_back(std::move(Inner.Factors[0]));
  return Chain;
}

ShackleChain shackle::gmtryShackleStores(const Program &P, int64_t Bsz) {
  ShackleChain Chain;
  Chain.Factors.push_back(DataShackle::onStores(
      P, DataBlocking::rectangular(0, {Bsz, Bsz}, {1, 0})));
  return Chain;
}

ShackleChain shackle::seidelShackle(const Program &P, int64_t Bsz) {
  ShackleChain Chain;
  Chain.Factors.push_back(
      DataShackle::onStores(P, DataBlocking::rectangular(0, {Bsz})));
  return Chain;
}
