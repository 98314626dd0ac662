//===- Polyhedron.cpp - Integer polyhedra implementation ------------------===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "polyhedral/Polyhedron.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>

using namespace shackle;

Polyhedron::Polyhedron(unsigned NumVars) : NumVars(NumVars) {
  VarNames.reserve(NumVars);
  for (unsigned I = 0; I < NumVars; ++I)
    VarNames.push_back(std::string("x").append(std::to_string(I)));
}

Polyhedron::Polyhedron(std::vector<std::string> Names)
    : NumVars(Names.size()), VarNames(std::move(Names)) {}

void Polyhedron::setVarName(unsigned Var, std::string Name) {
  assert(Var < NumVars && "variable index out of range");
  VarNames[Var] = std::move(Name);
}

unsigned Polyhedron::appendVar(const std::string &Name) {
  VarNames.push_back(Name);
  for (ConstraintRow &Row : Equalities)
    Row.insert(Row.end() - 1, 0);
  for (ConstraintRow &Row : Inequalities)
    Row.insert(Row.end() - 1, 0);
  return NumVars++;
}

void Polyhedron::addEquality(ConstraintRow Row) {
  assert(Row.size() == NumVars + 1 && "constraint row has wrong arity");
  Equalities.push_back(std::move(Row));
}

void Polyhedron::addInequality(ConstraintRow Row) {
  assert(Row.size() == NumVars + 1 && "constraint row has wrong arity");
  Inequalities.push_back(std::move(Row));
}

static ConstraintRow
rowFromTerms(unsigned NumVars,
             const std::vector<std::pair<unsigned, int64_t>> &Terms,
             int64_t C) {
  ConstraintRow Row(NumVars + 1, 0);
  for (const auto &[Var, Coeff] : Terms) {
    assert(Var < NumVars && "term variable out of range");
    Row[Var] += Coeff;
  }
  Row[NumVars] = C;
  return Row;
}

void Polyhedron::addEqualityTerms(
    const std::vector<std::pair<unsigned, int64_t>> &Terms, int64_t C) {
  addEquality(rowFromTerms(NumVars, Terms, C));
}

void Polyhedron::addInequalityTerms(
    const std::vector<std::pair<unsigned, int64_t>> &Terms, int64_t C) {
  addInequality(rowFromTerms(NumVars, Terms, C));
}

void Polyhedron::addBounds(unsigned Var, int64_t Lo, int64_t Hi) {
  addInequalityTerms({{Var, 1}}, -Lo);
  addInequalityTerms({{Var, -1}}, Hi);
}

void Polyhedron::removeInequality(unsigned I) {
  assert(I < Inequalities.size());
  Inequalities.erase(Inequalities.begin() + I);
}

void Polyhedron::removeEquality(unsigned I) {
  assert(I < Equalities.size());
  Equalities.erase(Equalities.begin() + I);
}

void Polyhedron::clearConstraints() {
  Equalities.clear();
  Inequalities.clear();
  KnownEmpty = false;
}

/// Returns the gcd of the variable coefficients of \p Row (0 if all zero).
static int64_t coeffGcd(const ConstraintRow &Row) {
  int64_t G = 0;
  for (unsigned I = 0, E = Row.size() - 1; I < E; ++I)
    G = gcd64(G, Row[I]);
  return G;
}

bool Polyhedron::isObviouslyEmpty() const {
  if (KnownEmpty)
    return true;
  for (const ConstraintRow &Row : Equalities) {
    int64_t G = coeffGcd(Row);
    int64_t C = Row.back();
    if (G == 0 ? C != 0 : C % G != 0)
      return true;
  }
  for (const ConstraintRow &Row : Inequalities)
    if (coeffGcd(Row) == 0 && Row.back() < 0)
      return true;
  return false;
}

bool Polyhedron::normalize() {
  for (auto It = Equalities.begin(); It != Equalities.end();) {
    int64_t G = coeffGcd(*It);
    if (G == 0) {
      if (It->back() != 0)
        KnownEmpty = true;
      It = Equalities.erase(It);
      continue;
    }
    if (It->back() % G != 0) {
      // gcd does not divide the constant: no integer solutions.
      KnownEmpty = true;
      ++It;
      continue;
    }
    if (G > 1)
      for (int64_t &V : *It)
        V /= G;
    ++It;
  }

  for (auto It = Inequalities.begin(); It != Inequalities.end();) {
    int64_t G = coeffGcd(*It);
    if (G == 0) {
      if (It->back() < 0)
        KnownEmpty = true;
      It = Inequalities.erase(It);
      continue;
    }
    if (G > 1) {
      // e + c >= 0 with gcd G on e: divide and floor the constant; exact for
      // integer points.
      for (unsigned I = 0, E = It->size() - 1; I < E; ++I)
        (*It)[I] /= G;
      It->back() = floorDiv(It->back(), G);
    }
    ++It;
  }

  // Coalesce complementary inequality pairs (e >= 0 and -e >= 0) into
  // equalities; this lets downstream consumers (the Let substitution in the
  // code generator, equality elimination in the Omega test) see them.
  unsigned I = 0;
  while (I < Inequalities.size()) {
    ConstraintRow Neg(Inequalities[I].size());
    for (unsigned K = 0; K < Neg.size(); ++K)
      Neg[K] = -Inequalities[I][K];
    bool Coalesced = false;
    for (unsigned J = I + 1; J < Inequalities.size(); ++J) {
      if (Inequalities[J] != Neg)
        continue;
      Equalities.push_back(Inequalities[I]);
      Inequalities.erase(Inequalities.begin() + J);
      Inequalities.erase(Inequalities.begin() + I);
      Coalesced = true;
      break;
    }
    if (!Coalesced)
      ++I;
  }

  return !KnownEmpty;
}

void Polyhedron::removeDuplicateConstraints() {
  auto Dedup = [](std::vector<ConstraintRow> &Rows) {
    std::sort(Rows.begin(), Rows.end());
    Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
  };
  Dedup(Equalities);
  Dedup(Inequalities);
}

void Polyhedron::fourierMotzkinEliminate(unsigned Var) {
  assert(Var < NumVars && "variable index out of range");

  // First use an equality involving Var, if any, to substitute it away; this
  // is exact and avoids constraint blowup.
  for (unsigned I = 0, E = Equalities.size(); I < E; ++I) {
    int64_t A = Equalities[I][Var];
    if (A == 0)
      continue;
    if (A != 1 && A != -1)
      continue; // Handled below by pairing; unit case is the common one.
    ConstraintRow Def = Equalities[I];
    Equalities.erase(Equalities.begin() + I);
    // A * x + rest = 0  =>  x = -rest / A; with |A| == 1, x = -A * rest.
    ConstraintRow Subst(NumVars + 1, 0);
    for (unsigned J = 0; J <= NumVars; ++J)
      if (J != Var)
        Subst[J] = -A * Def[J];
    substitute(Var, Subst);
    return;
  }

  std::vector<ConstraintRow> Lowers, Uppers, Rest;
  for (ConstraintRow &Row : Inequalities) {
    if (Row[Var] > 0)
      Lowers.push_back(std::move(Row));
    else if (Row[Var] < 0)
      Uppers.push_back(std::move(Row));
    else
      Rest.push_back(std::move(Row));
  }

  // Non-unit equalities involving Var become a lower and an upper bound.
  for (auto It = Equalities.begin(); It != Equalities.end();) {
    if ((*It)[Var] == 0) {
      ++It;
      continue;
    }
    ConstraintRow Pos = *It, Neg = *It;
    if (Pos[Var] < 0)
      for (int64_t &V : Pos)
        V = -V;
    else
      for (int64_t &V : Neg)
        V = -V;
    Lowers.push_back(std::move(Pos));
    Uppers.push_back(std::move(Neg));
    It = Equalities.erase(It);
  }

  Inequalities = std::move(Rest);
  for (const ConstraintRow &L : Lowers) {
    for (const ConstraintRow &U : Uppers) {
      int64_t A = L[Var];       // A > 0:  A * x >= -l(rest)
      int64_t B = -U[Var];      // B > 0:  B * x <= u(rest)
      ConstraintRow Combined(NumVars + 1, 0);
      for (unsigned J = 0; J <= NumVars; ++J)
        Combined[J] =
            checkedAdd(checkedMul(A, U[J]), checkedMul(B, L[J]));
      Combined[Var] = 0;
      Inequalities.push_back(std::move(Combined));
    }
  }

  normalize();
  removeDuplicateConstraints();
}

Polyhedron Polyhedron::project(unsigned NumKeep) const {
  assert(NumKeep <= NumVars && "cannot keep more variables than exist");
  Polyhedron Result = *this;
  for (unsigned Var = NumVars; Var-- > NumKeep;)
    Result.fourierMotzkinEliminate(Var);

  Polyhedron Shrunk(std::vector<std::string>(VarNames.begin(),
                                             VarNames.begin() + NumKeep));
  if (Result.KnownEmpty)
    Shrunk.markKnownEmpty();
  for (const ConstraintRow &Row : Result.Equalities) {
    ConstraintRow Short(Row.begin(), Row.begin() + NumKeep);
    Short.push_back(Row.back());
    Shrunk.addEquality(std::move(Short));
  }
  for (const ConstraintRow &Row : Result.Inequalities) {
    ConstraintRow Short(Row.begin(), Row.begin() + NumKeep);
    Short.push_back(Row.back());
    Shrunk.addInequality(std::move(Short));
  }
  return Shrunk;
}

bool Polyhedron::involvesVar(unsigned Var) const {
  assert(Var < NumVars && "variable index out of range");
  for (const ConstraintRow &Row : Equalities)
    if (Row[Var] != 0)
      return true;
  for (const ConstraintRow &Row : Inequalities)
    if (Row[Var] != 0)
      return true;
  return false;
}

void Polyhedron::substitute(unsigned Var, const ConstraintRow &Def) {
  assert(Def.size() == NumVars + 1 && "definition row has wrong arity");
  assert(Def[Var] == 0 && "definition must not mention the variable");
  auto Apply = [&](ConstraintRow &Row) {
    int64_t A = Row[Var];
    if (A == 0)
      return;
    Row[Var] = 0;
    for (unsigned J = 0; J <= NumVars; ++J)
      Row[J] = checkedAdd(Row[J], checkedMul(A, Def[J]));
  };
  for (ConstraintRow &Row : Equalities)
    Apply(Row);
  for (ConstraintRow &Row : Inequalities)
    Apply(Row);
  normalize();
  removeDuplicateConstraints();
}

bool Polyhedron::substituteChecked(unsigned Var, const ConstraintRow &Def) {
  assert(Def.size() == NumVars + 1 && "definition row has wrong arity");
  assert(Def[Var] == 0 && "definition must not mention the variable");
  auto Apply = [&](ConstraintRow &Row) {
    int64_t A = Row[Var];
    if (A == 0)
      return true;
    Row[Var] = 0;
    for (unsigned J = 0; J <= NumVars; ++J) {
      int64_t Scaled;
      if (mulOverflow(A, Def[J], Scaled) ||
          addOverflow(Row[J], Scaled, Row[J]))
        return false;
    }
    return true;
  };
  for (ConstraintRow &Row : Equalities)
    if (!Apply(Row))
      return false;
  for (ConstraintRow &Row : Inequalities)
    if (!Apply(Row))
      return false;
  normalize();
  removeDuplicateConstraints();
  return true;
}

bool Polyhedron::containsPoint(const std::vector<int64_t> &Point) const {
  assert(Point.size() == NumVars && "point has wrong arity");
  if (KnownEmpty)
    return false;
  auto Eval = [&](const ConstraintRow &Row) {
    int64_t V = Row.back();
    for (unsigned I = 0; I < NumVars; ++I)
      V = checkedAdd(V, checkedMul(Row[I], Point[I]));
    return V;
  };
  for (const ConstraintRow &Row : Equalities)
    if (Eval(Row) != 0)
      return false;
  for (const ConstraintRow &Row : Inequalities)
    if (Eval(Row) < 0)
      return false;
  return true;
}

std::string Polyhedron::constraintStr(const ConstraintRow &Row,
                                      bool IsEq) const {
  std::string S;
  bool First = true;
  for (unsigned I = 0; I < NumVars; ++I) {
    int64_t C = Row[I];
    if (C == 0)
      continue;
    if (First) {
      if (C == -1)
        S += "-";
      else if (C != 1)
        S += std::to_string(C) + "*";
    } else {
      S += C > 0 ? " + " : " - ";
      int64_t A = C > 0 ? C : -C;
      if (A != 1)
        S += std::to_string(A) + "*";
    }
    S += VarNames[I];
    First = false;
  }
  int64_t K = Row.back();
  if (First)
    S += std::to_string(K);
  else if (K > 0)
    S += " + " + std::to_string(K);
  else if (K < 0)
    S += " - " + std::to_string(-K);
  S += IsEq ? " == 0" : " >= 0";
  return S;
}

std::string Polyhedron::str() const {
  std::string S;
  for (const ConstraintRow &Row : Equalities)
    S += constraintStr(Row, /*IsEq=*/true) + "\n";
  for (const ConstraintRow &Row : Inequalities)
    S += constraintStr(Row, /*IsEq=*/false) + "\n";
  return S;
}

Polyhedron shackle::intersect(const Polyhedron &A, const Polyhedron &B) {
  assert(A.getNumVars() == B.getNumVars() &&
         "intersection requires a common space");
  Polyhedron R = A;
  if (B.isKnownEmpty())
    R.markKnownEmpty();
  for (const ConstraintRow &Row : B.equalities())
    R.addEquality(Row);
  for (const ConstraintRow &Row : B.inequalities())
    R.addInequality(Row);
  R.normalize();
  R.removeDuplicateConstraints();
  return R;
}

ConstraintRow shackle::negateInequality(const ConstraintRow &Row) {
  ConstraintRow Neg(Row.size());
  for (unsigned I = 0; I < Row.size(); ++I)
    Neg[I] = -Row[I];
  Neg.back() -= 1;
  return Neg;
}
