//===- Parser.cpp - A do-loop language front end --------------------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <vector>

using namespace shackle;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

enum class TokKind {
  Ident,
  Number,   // Integer literal.
  Float,    // Literal containing '.' or exponent.
  LBracket,
  RBracket,
  LParen,
  RParen,
  Comma,
  Colon,
  Assign,
  Plus,
  Minus,
  Star,
  Slash,
  Unknown,  // Unexpected character, or an out-of-range integer literal.
  Eof,
};

struct Token {
  TokKind Kind = TokKind::Eof;
  std::string Text;
  int64_t IntValue = 0;
  double FloatValue = 0;
  unsigned Line = 0;
  unsigned Col = 0;
  /// For Unknown tokens: set when the lexeme is a numeric literal that does
  /// not fit in int64 (as opposed to a stray character).
  bool IsOverflow = false;
};

class Lexer {
public:
  explicit Lexer(const std::string &Source) : Src(Source) { next(); }

  const Token &peek() const { return Cur; }

  Token take() {
    Token T = Cur;
    next();
    return T;
  }

  unsigned line() const { return Line; }

private:
  void next() {
    skipSpace();
    Cur = Token();
    Cur.Line = Line;
    Cur.Col = static_cast<unsigned>(Pos - LineStart) + 1;
    if (Pos >= Src.size()) {
      Cur.Kind = TokKind::Eof;
      return;
    }
    char C = Src[Pos];
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '_'))
        ++Pos;
      Cur.Kind = TokKind::Ident;
      Cur.Text = Src.substr(Start, Pos - Start);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = Pos;
      bool IsFloat = false;
      while (Pos < Src.size() &&
             (std::isdigit(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '.' || Src[Pos] == 'e' || Src[Pos] == 'E' ||
              ((Src[Pos] == '+' || Src[Pos] == '-') && Pos > Start &&
               (Src[Pos - 1] == 'e' || Src[Pos - 1] == 'E')))) {
        if (Src[Pos] == '.' || Src[Pos] == 'e' || Src[Pos] == 'E')
          IsFloat = true;
        ++Pos;
      }
      Cur.Text = Src.substr(Start, Pos - Start);
      if (IsFloat) {
        Cur.Kind = TokKind::Float;
        Cur.FloatValue = std::strtod(Cur.Text.c_str(), nullptr);
      } else {
        errno = 0;
        Cur.IntValue = std::strtoll(Cur.Text.c_str(), nullptr, 10);
        if (errno == ERANGE) {
          Cur.Kind = TokKind::Unknown;
          Cur.IsOverflow = true;
        } else {
          Cur.Kind = TokKind::Number;
        }
      }
      return;
    }
    ++Pos;
    switch (C) {
    case '[': Cur.Kind = TokKind::LBracket; return;
    case ']': Cur.Kind = TokKind::RBracket; return;
    case '(': Cur.Kind = TokKind::LParen; return;
    case ')': Cur.Kind = TokKind::RParen; return;
    case ',': Cur.Kind = TokKind::Comma; return;
    case ':': Cur.Kind = TokKind::Colon; return;
    case '=': Cur.Kind = TokKind::Assign; return;
    case '+': Cur.Kind = TokKind::Plus; return;
    case '-': Cur.Kind = TokKind::Minus; return;
    case '*': Cur.Kind = TokKind::Star; return;
    case '/': Cur.Kind = TokKind::Slash; return;
    default:
      Cur.Kind = TokKind::Unknown;
      Cur.Text = std::string(1, C);
      return;
    }
  }

  void skipSpace() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '#') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (C == '\n') {
        ++Line;
        ++Pos;
        LineStart = Pos;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
        continue;
      }
      break;
    }
  }

  const std::string &Src;
  size_t Pos = 0;
  size_t LineStart = 0;
  unsigned Line = 1;
  Token Cur;
};

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

class ParserImpl {
public:
  explicit ParserImpl(const std::string &Source) : Lex(Source) {}

  ParseResult run() {
    Prog = std::make_unique<Program>();
    parseTopLevel();
    if (HasErr) {
      ParseResult R;
      R.Error = (ErrDiag.Loc.isValid() ? ErrDiag.Loc.str() + ": " : "") +
                ErrDiag.Message;
      R.Diag = std::move(ErrDiag);
      return R;
    }
    Prog->finalize();
    ParseResult R;
    R.Prog = std::move(Prog);
    return R;
  }

private:
  [[nodiscard]] bool error(const std::string &Msg) {
    if (HasErr)
      return false;
    HasErr = true;
    const Token &T = Lex.peek();
    // A stray character (or an overflowing literal) is the root cause of
    // whatever the caller failed to parse; report it instead.
    std::string M = Msg;
    if (T.Kind == TokKind::Unknown)
      M = T.IsOverflow
              ? "integer literal '" + T.Text + "' does not fit in 64 bits"
              : "unexpected character '" + T.Text + "'";
    ErrDiag = Diagnostic(DiagCode::ParseError, std::move(M),
                         SourceLoc{T.Line, T.Col});
    return false;
  }

  bool expect(TokKind K, const char *What) {
    if (Lex.peek().Kind != K)
      return error(std::string("expected ") + What);
    Lex.take();
    return true;
  }

  bool isKeyword(const char *K) const {
    return Lex.peek().Kind == TokKind::Ident && Lex.peek().Text == K;
  }

  //--- Names ---------------------------------------------------------------

  int lookupVar(const std::string &Name) const {
    auto It = Vars.find(Name);
    return It == Vars.end() ? -1 : static_cast<int>(It->second);
  }

  int lookupArray(const std::string &Name) const {
    auto It = Arrays.find(Name);
    return It == Arrays.end() ? -1 : static_cast<int>(It->second);
  }

  //--- Affine expressions ---------------------------------------------------

  /// term := NUM | NUM '*' var | var | var '*' NUM | '(' affine ')'
  bool parseAffineTerm(AffineExpr &Out) {
    const Token &T = Lex.peek();
    if (T.Kind == TokKind::LParen) {
      Lex.take();
      if (!parseAffine(Out))
        return false;
      return expect(TokKind::RParen, "')'");
    }
    if (T.Kind == TokKind::Number) {
      int64_t C = Lex.take().IntValue;
      if (Lex.peek().Kind == TokKind::Star) {
        Lex.take();
        if (Lex.peek().Kind != TokKind::Ident)
          return error("expected a variable after '*'");
        int Var = lookupVar(Lex.take().Text);
        if (Var < 0)
          return error("unknown variable in affine expression");
        Out = Prog->v(Var) * C;
        return true;
      }
      Out = Prog->cst(C);
      return true;
    }
    if (T.Kind == TokKind::Ident) {
      int Var = lookupVar(T.Text);
      if (Var < 0)
        return error("unknown variable '" + T.Text + "'");
      Lex.take();
      AffineExpr E = Prog->v(Var);
      if (Lex.peek().Kind == TokKind::Star) {
        Lex.take();
        if (Lex.peek().Kind != TokKind::Number)
          return error("affine expressions allow only constant "
                       "coefficients");
        E = E * Lex.take().IntValue;
      }
      Out = E;
      return true;
    }
    return error("expected an affine term");
  }

  bool parseAffine(AffineExpr &Out) {
    bool Negate = false;
    if (Lex.peek().Kind == TokKind::Minus) {
      Lex.take();
      Negate = true;
    }
    if (!parseAffineTerm(Out))
      return false;
    if (Negate)
      Out = Out * -1;
    while (Lex.peek().Kind == TokKind::Plus ||
           Lex.peek().Kind == TokKind::Minus) {
      bool Sub = Lex.take().Kind == TokKind::Minus;
      AffineExpr T;
      if (!parseAffineTerm(T))
        return false;
      Out = Sub ? Out - T : Out + T;
    }
    return true;
  }

  /// bound := affine | ("min"|"max") '(' affine (',' affine)+ ')'
  bool parseBound(std::vector<AffineExpr> &Out, bool IsLower) {
    if (isKeyword("min") || isKeyword("max")) {
      bool IsMin = Lex.peek().Text == "min";
      if (IsMin == IsLower)
        return error(IsLower ? "lower bounds take max(...), not min"
                             : "upper bounds take min(...), not max");
      Lex.take();
      if (!expect(TokKind::LParen, "'('"))
        return false;
      do {
        AffineExpr E;
        if (!parseAffine(E))
          return false;
        Out.push_back(std::move(E));
      } while (Lex.peek().Kind == TokKind::Comma && (Lex.take(), true));
      return expect(TokKind::RParen, "')'");
    }
    AffineExpr E;
    if (!parseAffine(E))
      return false;
    Out.push_back(std::move(E));
    return true;
  }

  //--- References and scalar expressions ------------------------------------

  bool parseRef(ArrayRef &Out) {
    if (Lex.peek().Kind != TokKind::Ident)
      return error("expected an array name");
    std::string Name = Lex.take().Text;
    int Arr = lookupArray(Name);
    if (Arr < 0)
      return error("unknown array '" + Name + "'");
    Out.ArrayId = Arr;
    Out.Indices.clear();
    while (Lex.peek().Kind == TokKind::LBracket) {
      Lex.take();
      AffineExpr E;
      if (!parseAffine(E))
        return false;
      Out.Indices.push_back(std::move(E));
      if (!expect(TokKind::RBracket, "']'"))
        return false;
    }
    if (Out.Indices.size() != Prog->getArray(Arr).Extents.size())
      return error("wrong number of subscripts for '" + Name + "'");
    return true;
  }

  /// primary := NUM | FLOAT | ref | 'sqrt' '(' scalar ')' | '(' scalar ')'
  ///          | '-' primary
  bool parsePrimary(ScalarExpr::Ptr &Out) {
    const Token &T = Lex.peek();
    if (T.Kind == TokKind::Minus) {
      Lex.take();
      ScalarExpr::Ptr E;
      if (!parsePrimary(E))
        return false;
      Out = ScalarExpr::neg(std::move(E));
      return true;
    }
    if (T.Kind == TokKind::Number) {
      Out = ScalarExpr::number(static_cast<double>(Lex.take().IntValue));
      return true;
    }
    if (T.Kind == TokKind::Float) {
      Out = ScalarExpr::number(Lex.take().FloatValue);
      return true;
    }
    if (T.Kind == TokKind::LParen) {
      Lex.take();
      if (!parseScalar(Out))
        return false;
      return expect(TokKind::RParen, "')'");
    }
    if (T.Kind == TokKind::Ident && T.Text == "sqrt") {
      Lex.take();
      if (!expect(TokKind::LParen, "'('"))
        return false;
      ScalarExpr::Ptr E;
      if (!parseScalar(E))
        return false;
      if (!expect(TokKind::RParen, "')'"))
        return false;
      Out = ScalarExpr::sqrt(std::move(E));
      return true;
    }
    if (T.Kind == TokKind::Ident) {
      ArrayRef R;
      if (!parseRef(R))
        return false;
      Out = ScalarExpr::load(std::move(R));
      return true;
    }
    return error("expected a scalar expression");
  }

  bool parseMulDiv(ScalarExpr::Ptr &Out) {
    if (!parsePrimary(Out))
      return false;
    while (Lex.peek().Kind == TokKind::Star ||
           Lex.peek().Kind == TokKind::Slash) {
      bool IsDiv = Lex.take().Kind == TokKind::Slash;
      ScalarExpr::Ptr R;
      if (!parsePrimary(R))
        return false;
      Out = IsDiv ? ScalarExpr::div(std::move(Out), std::move(R))
                  : ScalarExpr::mul(std::move(Out), std::move(R));
    }
    return true;
  }

  bool parseScalar(ScalarExpr::Ptr &Out) {
    if (!parseMulDiv(Out))
      return false;
    while (Lex.peek().Kind == TokKind::Plus ||
           Lex.peek().Kind == TokKind::Minus) {
      bool IsSub = Lex.take().Kind == TokKind::Minus;
      ScalarExpr::Ptr R;
      if (!parseMulDiv(R))
        return false;
      Out = IsSub ? ScalarExpr::sub(std::move(Out), std::move(R))
                  : ScalarExpr::add(std::move(Out), std::move(R));
    }
    return true;
  }

  //--- Declarations and statements -------------------------------------------

  bool parseParam() {
    Lex.take(); // 'param'
    if (Lex.peek().Kind != TokKind::Ident)
      return error("expected a parameter name");
    std::string Name = Lex.take().Text;
    if (Vars.count(Name))
      return error("redefinition of '" + Name + "'");
    Vars[Name] = Prog->addParam(Name);
    return true;
  }

  bool parseArray() {
    Lex.take(); // 'array'
    if (Lex.peek().Kind != TokKind::Ident)
      return error("expected an array name");
    std::string Name = Lex.take().Text;
    if (Arrays.count(Name))
      return error("redefinition of array '" + Name + "'");
    std::vector<AffineExpr> Extents;
    while (Lex.peek().Kind == TokKind::LBracket) {
      Lex.take();
      AffineExpr E;
      if (!parseAffine(E))
        return false;
      Extents.push_back(std::move(E));
      if (!expect(TokKind::RBracket, "']'"))
        return false;
    }
    if (Extents.empty())
      return error("arrays need at least one extent");

    LayoutKind Layout = LayoutKind::RowMajor;
    unsigned BandParam = 0;
    int64_t TileR = 0, TileC = 0;
    if (isKeyword("rowmajor")) {
      Lex.take();
    } else if (isKeyword("colmajor")) {
      Lex.take();
      Layout = LayoutKind::ColMajor;
    } else if (isKeyword("band")) {
      Lex.take();
      if (!expect(TokKind::LParen, "'('"))
        return false;
      if (Lex.peek().Kind != TokKind::Ident)
        return error("band(...) takes a parameter name");
      int BP = lookupVar(Lex.take().Text);
      if (BP < 0 || Prog->getVarKind(BP) != VarKind::Param)
        return error("band(...) takes a parameter name");
      BandParam = BP;
      Layout = LayoutKind::BandLower;
      if (!expect(TokKind::RParen, "')'"))
        return false;
    } else if (isKeyword("tiled")) {
      Lex.take();
      if (!expect(TokKind::LParen, "'('"))
        return false;
      if (Lex.peek().Kind != TokKind::Number)
        return error("tiled(...) takes two integer tile sizes");
      TileR = Lex.take().IntValue;
      if (!expect(TokKind::Comma, "','"))
        return false;
      if (Lex.peek().Kind != TokKind::Number)
        return error("tiled(...) takes two integer tile sizes");
      TileC = Lex.take().IntValue;
      if (!expect(TokKind::RParen, "')'"))
        return false;
    }

    unsigned Id = Prog->addArray(Name, std::move(Extents), Layout, BandParam);
    if (TileR > 0)
      Prog->setTiledLayout(Id, TileR, TileC);
    Arrays[Name] = Id;
    return true;
  }

  bool parseLoop() {
    Lex.take(); // 'do'
    if (Lex.peek().Kind != TokKind::Ident)
      return error("expected a loop variable");
    std::string Name = Lex.take().Text;
    if (Vars.count(Name))
      return error("loop variable '" + Name + "' shadows an existing name");
    if (!expect(TokKind::Assign, "'='"))
      return false;
    std::vector<AffineExpr> Lbs, Ubs;
    if (!parseBound(Lbs, /*IsLower=*/true))
      return false;
    if (!expect(TokKind::Comma, "','"))
      return false;
    if (!parseBound(Ubs, /*IsLower=*/false))
      return false;

    Vars[Name] = Prog->beginLoopMulti(Name, std::move(Lbs), std::move(Ubs));
    while (!isKeyword("end") && Lex.peek().Kind != TokKind::Eof)
      if (!parseStmtOrLoop())
        return false;
    if (!isKeyword("end"))
      return error("expected 'end' to close loop '" + Name + "'");
    Lex.take();
    Prog->endLoop();
    Vars.erase(Name);
    return true;
  }

  bool parseAssign() {
    // Optional label: IDENT ':' (distinguished by the colon lookahead via
    // the array-subscript grammar: labels are never followed by '[').
    std::string Label;
    if (Lex.peek().Kind == TokKind::Ident &&
        lookupArray(Lex.peek().Text) < 0) {
      Label = Lex.take().Text;
      if (!expect(TokKind::Colon, "':' after statement label"))
        return false;
    }
    ArrayRef LHS;
    if (!parseRef(LHS))
      return false;
    if (!expect(TokKind::Assign, "'='"))
      return false;
    ScalarExpr::Ptr RHS;
    if (!parseScalar(RHS))
      return false;
    if (Label.empty())
      Label = std::string("S").append(std::to_string(Prog->getNumStmts() + 1));
    Prog->addStmt(Label, std::move(LHS), std::move(RHS));
    return true;
  }

  bool parseStmtOrLoop() {
    if (isKeyword("do"))
      return parseLoop();
    return parseAssign();
  }

  void parseTopLevel() {
    while (!HasErr && Lex.peek().Kind != TokKind::Eof) {
      if (isKeyword("param")) {
        if (!parseParam())
          return;
      } else if (isKeyword("array")) {
        if (!parseArray())
          return;
      } else if (!parseStmtOrLoop()) {
        return;
      }
    }
  }

  Lexer Lex;
  std::unique_ptr<Program> Prog;
  std::map<std::string, unsigned> Vars;   // Params + open loop vars.
  std::map<std::string, unsigned> Arrays;
  bool HasErr = false;
  Diagnostic ErrDiag;
};

} // namespace

ParseResult shackle::parseProgram(const std::string &Source) {
  return ParserImpl(Source).run();
}
