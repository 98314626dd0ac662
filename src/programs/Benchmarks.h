//===- Benchmarks.h - The paper's benchmark programs ------------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders for every program the paper evaluates (Sections 2 and 7), in the
/// loop-nest IR, plus the shackle configurations the paper applies to them.
/// All programs are 0-based (the paper's listings are 1-based Fortran; the
/// iteration spaces are identical up to the origin shift).
///
/// Conventions, for every builder:
///  * parameter 0 is the problem size N;
///  * the factored/blocked matrix is array 0;
///  * statement labels follow the paper (S1, S2, S3 for Cholesky).
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_PROGRAMS_BENCHMARKS_H
#define SHACKLE_PROGRAMS_BENCHMARKS_H

#include "core/DataShackle.h"
#include "interp/Interpreter.h"
#include "ir/Program.h"

#include <functional>
#include <memory>
#include <string>

namespace shackle {

/// A benchmark program with its metadata.
struct BenchSpec {
  std::string Name;
  std::unique_ptr<Program> Prog;
  /// The array the paper blocks (C for MMM, A elsewhere).
  unsigned MainArray = 0;
  /// Useful floating-point operation count as a function of the parameter
  /// values (for MFlops reporting, matching the paper's graphs).
  std::function<double(const std::vector<int64_t> &)> Flops;
  /// Makes a random input well-posed for the program, applied after
  /// fillRandom; empty when any input is. The factorizations set it (their
  /// input must be symmetric positive definite).
  std::function<void(ProgramInstance &)> Condition;
};

/// Matrix multiplication C += A * B in I-J-K order (paper Figure 1(i)).
/// Arrays: 0 = C, 1 = A, 2 = B.
BenchSpec makeMatMul();

/// Right-looking Cholesky factorization (paper Figure 1(ii)).
/// Array 0 = A (symmetric positive definite; lower triangle used).
BenchSpec makeCholeskyRight();

/// Left-looking Cholesky factorization (paper Figure 1(iii)).
BenchSpec makeCholeskyLeft();

/// QR factorization by Householder reflections, pointwise algorithm
/// (paper Figure 12; the reflector vectors are stored below the diagonal
/// of A and the trailing matrix is updated eagerly).
/// Arrays: 0 = A, 1 = sig, 2 = alpha, 3 = beta, 4 = w, 5 = rdiag.
BenchSpec makeQRHouseholder();

/// The ADI kernel of McKinley et al. used in paper Figure 13(ii)/14.
/// Arrays: 0 = B, 1 = X, 2 = A. Parameter 0 is N (square arrays).
BenchSpec makeADI();

/// The GMTRY kernel (SPEC Dnasa7): Gaussian elimination across rows without
/// pivoting (paper Figure 13(i)). Array 0 = A.
BenchSpec makeGmtry();

/// Banded right-looking Cholesky: regular Cholesky restricted to a band of
/// bandwidth parameter 1 ("bw"), with A in LAPACK-style band storage
/// (paper Figure 15). Array 0 = A.
BenchSpec makeCholeskyBanded();

/// Symmetric rank-K update C += A * A^T (lower triangle): the other
/// BLAS-3 workhorse of blocked factorizations. Arrays: 0 = C, 1 = A.
BenchSpec makeSyrk();

/// Triangular matrix multiply B := L * B with unit-stride updates (L lower
/// triangular, in-place on B): TRMM, the third BLAS-3 kernel LAPACK-style
/// factorizations lean on. Arrays: 0 = B, 1 = L.
BenchSpec makeTrmm();

/// Matrix multiplication with all three matrices physically reshaped into
/// Tile x Tile block-major storage: the paper's Section 5.3 observation
/// that the blocking *map* is logical but may be composed with a physical
/// data transformation. Same iteration code as makeMatMul.
BenchSpec makeMatMulTiled(int64_t Tile);

/// In-place triangular solve of L y = b (Lower = true, forward
/// substitution) or U y = b (Lower = false, written with flipped indices so
/// the source iterates increasing loop variables while the data flows from
/// the bottom of b upward). Arrays: 0 = b (vector), 1 = the matrix.
/// The paper's Section 8 example: for the upper solve, walking the blocks
/// of b top-to-bottom is illegal but bottom-to-top (a Reversed plane set)
/// is legal — "this is similar to loop reversal".
BenchSpec makeTriangularSolve(bool Lower);

/// Triangular solve: block b into Bsz-element blocks through the stores.
ShackleChain triSolveShackle(const Program &P, int64_t Bsz, bool Reversed);

/// 1-D Gauss-Seidel relaxation: T sweeps of A[i] = (A[i-1]+A[i]+A[i+1])/3.
/// The paper's Section 8 example of a program where a single sweep over the
/// blocked array cannot be legal (every element eventually affects every
/// other); used by the multi-pass runtime. Parameters: 0 = N, 1 = T.
BenchSpec makeSeidel1D();

/// 2-D Gauss-Seidel: T five-point relaxation sweeps over an N x N grid
/// (in-place, so each sweep reads the current iterate's west/north
/// neighbours). Parameters: 0 = N, 1 = T. Array 0 = A.
BenchSpec makeSeidel2D();

//===----------------------------------------------------------------------===//
// Shackle configurations (Section 6.1 and Section 7 of the paper)
//===----------------------------------------------------------------------===//

/// MMM: block C with Bsz x Bsz blocks, shackle C[I,J] in the statement.
/// Produces the partially blocked code of Figure 6.
ShackleChain mmmShackleC(const Program &P, int64_t Bsz);

/// MMM: Cartesian product of the C and A shackles -> fully blocked code of
/// Figure 3.
ShackleChain mmmShackleCxA(const Program &P, int64_t Bsz);

/// MMM: two-level blocking ((C x A) at Outer) x ((C x A) at Inner), the
/// Figure 10 code. Outer must be a multiple of Inner for clean nesting.
ShackleChain mmmShackleTwoLevel(const Program &P, int64_t Outer,
                                int64_t Inner);

/// Cholesky (either variant): block A, shackle every statement through its
/// store ("writes" choice; one of the two legal single shackles).
ShackleChain choleskyShackleStores(const Program &P, int64_t Bsz);

/// Cholesky: the other legal choice, shackling the reads (A[J,J] in S1 and
/// S2, A[L,J] in S3).
ShackleChain choleskyShackleReads(const Program &P, int64_t Bsz);

/// Cholesky: product of the writes and reads shackles -> fully blocked code
/// (Section 6.1; order Writes x Reads gives right-looking, Reads x Writes
/// left-looking).
ShackleChain choleskyShackleProduct(const Program &P, int64_t Bsz,
                                    bool WritesFirst);

/// QR: block the columns of A (1-D blocking) and tie the update statements
/// to the column being updated -> lazy ("left-looking") blocked QR.
ShackleChain qrColumnShackle(const Program &P, int64_t Bsz);

/// ADI: block B with 1x1 blocks traversed in column-major order, shackling
/// B[i-1,k] in both statements -> loop fusion + interchange (Figure 14(ii)).
ShackleChain adiShackle(const Program &P);

/// ADI: two-level chain for hierarchical scheduling - an outer factor that
/// groups B's columns into ColGroup-wide panels (same shackled reference
/// B[i-1,k]) followed by the adiShackle factor, so outer tasks are column
/// panels whose 1x1 inner blocks replay serially. ColGroup must be >= 1.
ShackleChain adiShackleTwoLevel(const Program &P, int64_t ColGroup);

/// GMTRY: 2-D blocking of A through the stores, like Cholesky.
ShackleChain gmtryShackleStores(const Program &P, int64_t Bsz);

/// Seidel: block the 1-D array into Bsz-element blocks, shackling the
/// store A[i]. Illegal as a single-pass shackle; intended for the
/// multi-pass runtime (runMultiPassShackled).
ShackleChain seidelShackle(const Program &P, int64_t Bsz);

} // namespace shackle

#endif // SHACKLE_PROGRAMS_BENCHMARKS_H
