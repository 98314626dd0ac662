//===- Diagnostics.cpp - Structured recoverable diagnostics ------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

using namespace shackle;

const char *shackle::diagCodeName(DiagCode Code) {
  switch (Code) {
  case DiagCode::ParseError:
    return "parse-error";
  case DiagCode::IOError:
    return "io-error";
  case DiagCode::ShackleMismatch:
    return "shackle-mismatch";
  case DiagCode::SolverBudgetExceeded:
    return "solver-budget-exceeded";
  case DiagCode::ShackleIllegal:
    return "shackle-illegal";
  case DiagCode::LegalityUnknown:
    return "legality-unknown";
  case DiagCode::ScanFailed:
    return "scan-failed";
  case DiagCode::UsageError:
    return "usage-error";
  case DiagCode::ParallelFallback:
    return "parallel-fallback";
  case DiagCode::ParallelFault:
    return "parallel-fault";
  case DiagCode::ParallelDegrade:
    return "parallel-degrade";
  case DiagCode::ParallelPoison:
    return "parallel-poison";
  case DiagCode::NativeFallback:
    return "native-fallback";
  }
  return "unknown";
}

std::string SourceLoc::str() const {
  if (!isValid())
    return "";
  std::string S = "line " + std::to_string(Line);
  if (Col != 0)
    S += ", col " + std::to_string(Col);
  return S;
}

Diagnostic &Diagnostic::addNote(std::string Message, SourceLoc NoteLoc) {
  Notes.emplace_back(Code, std::move(Message), NoteLoc, Severity::Note);
  return *this;
}

static const char *severityName(Severity Sev) {
  switch (Sev) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "error";
}

std::string Diagnostic::str() const {
  std::string S = severityName(Sev);
  S += ": [";
  S += diagCodeName(Code);
  S += "]";
  if (Loc.isValid())
    S.append(" ").append(Loc.str()).append(":");
  S += " " + Message;
  for (const Diagnostic &N : Notes)
    S += "\n  note: " + (N.Loc.isValid() ? N.Loc.str() + ": " : "") + N.Message;
  return S;
}
