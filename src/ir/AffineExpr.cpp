//===- AffineExpr.cpp - Affine expression printing ---------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "ir/AffineExpr.h"

using namespace shackle;

std::string AffineExpr::str(const std::vector<std::string> &Names) const {
  std::string S;
  bool First = true;
  for (unsigned I = 0; I < Coeffs.size(); ++I) {
    int64_t C = Coeffs[I];
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
    if (I < Names.size())
      S += Names[I];
    else
      S.append("v").append(std::to_string(I));
    First = false;
  }
  if (First)
    return std::to_string(Constant);
  if (Constant > 0)
    S += " + " + std::to_string(Constant);
  else if (Constant < 0)
    S += " - " + std::to_string(-Constant);
  return S;
}
