//===- Parser.cpp ---------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "datalog/Parser.h"

#include <cctype>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

using namespace jackee;
using namespace jackee::datalog;

namespace {

enum class TokenKind {
  Ident,      // foo, Method_Annotation
  String,     // "javax.servlet.Filter"
  Number,     // 42
  Decl,       // .decl
  LParen,
  RParen,
  Comma,
  Period,
  Semicolon,
  Colon,
  Turnstile,  // :-
  Bang,
  Equal,
  NotEqual,
  Underscore,
  End,
};

struct Token {
  TokenKind Kind;
  std::string Text;
  uint32_t Line;
};

class Lexer {
public:
  explicit Lexer(std::string_view Text) : Text(Text) {}

  /// Tokenizes the whole input. \returns false and sets \p Error on a lexing
  /// problem (unterminated string/comment, stray character).
  bool tokenize(std::vector<Token> &Out, std::string &Error) {
    while (true) {
      skipTrivia();
      if (!LexError.empty()) {
        Error = LexError;
        return false;
      }
      if (Pos >= Text.size())
        break;
      if (!lexToken(Out)) {
        Error = LexError;
        return false;
      }
    }
    Out.push_back({TokenKind::End, "", Line});
    return true;
  }

private:
  void skipTrivia() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == '/' && Pos + 1 < Text.size() && Text[Pos + 1] == '/') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
      } else if (C == '/' && Pos + 1 < Text.size() && Text[Pos + 1] == '*') {
        size_t End = Text.find("*/", Pos + 2);
        if (End == std::string_view::npos) {
          LexError = atLine("unterminated block comment");
          return;
        }
        for (size_t I = Pos; I < End; ++I)
          if (Text[I] == '\n')
            ++Line;
        Pos = End + 2;
      } else {
        return;
      }
    }
  }

  bool lexToken(std::vector<Token> &Out) {
    char C = Text[Pos];
    uint32_t TokLine = Line;

    auto push = [&](TokenKind Kind, std::string TokText, size_t Advance) {
      Out.push_back({Kind, std::move(TokText), TokLine});
      Pos += Advance;
      return true;
    };

    if (C == '(')
      return push(TokenKind::LParen, "(", 1);
    if (C == ')')
      return push(TokenKind::RParen, ")", 1);
    if (C == ',')
      return push(TokenKind::Comma, ",", 1);
    if (C == ';')
      return push(TokenKind::Semicolon, ";", 1);
    if (C == '=')
      return push(TokenKind::Equal, "=", 1);
    if (C == '!') {
      if (Pos + 1 < Text.size() && Text[Pos + 1] == '=')
        return push(TokenKind::NotEqual, "!=", 2);
      return push(TokenKind::Bang, "!", 1);
    }
    if (C == ':') {
      if (Pos + 1 < Text.size() && Text[Pos + 1] == '-')
        return push(TokenKind::Turnstile, ":-", 2);
      return push(TokenKind::Colon, ":", 1);
    }
    if (C == '.') {
      if (Text.substr(Pos, 5) == ".decl")
        return push(TokenKind::Decl, ".decl", 5);
      return push(TokenKind::Period, ".", 1);
    }
    if (C == '"') {
      std::string Value;
      size_t I = Pos + 1;
      while (I < Text.size() && Text[I] != '"') {
        if (Text[I] == '\\' && I + 1 < Text.size()) {
          ++I;
          Value.push_back(Text[I] == 'n' ? '\n' : Text[I]);
        } else {
          if (Text[I] == '\n')
            ++Line;
          Value.push_back(Text[I]);
        }
        ++I;
      }
      if (I >= Text.size()) {
        LexError = atLine("unterminated string literal");
        return false;
      }
      return push(TokenKind::String, std::move(Value), I + 1 - Pos);
    }
    if (C == '_' && (Pos + 1 >= Text.size() ||
                     !isIdentChar(Text[Pos + 1])))
      return push(TokenKind::Underscore, "_", 1);
    if (std::isdigit(static_cast<unsigned char>(C)) ||
        (C == '-' && Pos + 1 < Text.size() &&
         std::isdigit(static_cast<unsigned char>(Text[Pos + 1])))) {
      size_t I = Pos + 1;
      while (I < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[I])))
        ++I;
      return push(TokenKind::Number, std::string(Text.substr(Pos, I - Pos)),
                  I - Pos);
    }
    if (isIdentStart(C)) {
      size_t I = Pos;
      while (I < Text.size() && isIdentChar(Text[I]))
        ++I;
      return push(TokenKind::Ident, std::string(Text.substr(Pos, I - Pos)),
                  I - Pos);
    }
    LexError = atLine(std::string("unexpected character '") + C + "'");
    return false;
  }

  static bool isIdentStart(char C) {
    return std::isalpha(static_cast<unsigned char>(C)) || C == '_' ||
           C == '?' || C == '@' || C == '$';
  }
  static bool isIdentChar(char C) {
    return isIdentStart(C) || std::isdigit(static_cast<unsigned char>(C));
  }

  std::string atLine(std::string Message) const {
    return "line " + std::to_string(Line) + ": " + Message;
  }

  std::string_view Text;
  size_t Pos = 0;
  uint32_t Line = 1;
  std::string LexError;
};

/// Parsed (pre-desugaring) body item tree: a conjunction of atoms,
/// constraints and parenthesized disjunctions of conjunctions.
struct BodyConj;

struct BodyItem {
  enum class Kind { AtomItem, ConstraintItem, Disjunction };
  Kind ItemKind;
  Atom TheAtom;                              // AtomItem
  Constraint TheConstraint;                  // ConstraintItem
  std::vector<BodyConj> Alternatives;        // Disjunction
};

struct BodyConj {
  std::vector<BodyItem> Items;
};

class RuleParser {
public:
  RuleParser(Database &DB, RuleSet &Rules, std::string_view Origin)
      : DB(DB), Rules(Rules), Origin(Origin) {}

  ParserResult parse(std::string_view Text) {
    ParserResult Result;
    std::string LexError;
    if (!Lexer(Text).tokenize(Tokens, LexError)) {
      Result.Error = LexError;
      return Result;
    }

    while (peek().Kind != TokenKind::End) {
      bool Ok = peek().Kind == TokenKind::Decl ? parseDecl(Result)
                                               : parseRule(Result);
      if (!Ok) {
        Result.Error = Error;
        return Result;
      }
    }
    Result.Ok = true;
    return Result;
  }

private:
  const Token &peek(size_t Ahead = 0) const {
    size_t Index = std::min(Cursor + Ahead, Tokens.size() - 1);
    return Tokens[Index];
  }
  const Token &advance() { return Tokens[Cursor++]; }

  bool expect(TokenKind Kind, const char *What) {
    if (peek().Kind != Kind)
      return fail(std::string("expected ") + What + ", found '" +
                  peek().Text + "'");
    advance();
    return true;
  }

  bool fail(std::string Message) {
    if (Error.empty())
      Error = "line " + std::to_string(peek().Line) + ": " + Message +
              " (in " + std::string(Origin) + ")";
    return false;
  }

  // .decl Name(col: type, ...)
  bool parseDecl(ParserResult &Result) {
    advance(); // .decl
    if (peek().Kind != TokenKind::Ident)
      return fail("expected relation name after .decl");
    std::string Name = advance().Text;
    if (!expect(TokenKind::LParen, "'('"))
      return false;
    uint32_t Arity = 0;
    while (true) {
      if (peek().Kind != TokenKind::Ident)
        return fail("expected column name");
      advance();
      if (!expect(TokenKind::Colon, "':'"))
        return false;
      if (peek().Kind != TokenKind::Ident)
        return fail("expected column type");
      advance();
      ++Arity;
      if (peek().Kind == TokenKind::Comma) {
        advance();
        continue;
      }
      break;
    }
    if (!expect(TokenKind::RParen, "')'"))
      return false;
    RelationId Existing = DB.find(Name);
    if (Existing.isValid() && DB.relation(Existing).arity() != Arity)
      return fail("relation '" + Name + "' redeclared with arity " +
                  std::to_string(Arity));
    DB.declare(Name, Arity);
    ++Result.RelationsDeclared;
    return true;
  }

  // A term. Fresh names go into the per-rule variable map; `_` is always
  // fresh.
  bool parseTerm(Term &Out) {
    const Token &Tok = peek();
    switch (Tok.Kind) {
    case TokenKind::Ident:
      Out = Term::variable(variableIndex(Tok.Text));
      advance();
      return true;
    case TokenKind::Underscore:
      Out = Term::variable(freshVariable());
      advance();
      return true;
    case TokenKind::String:
    case TokenKind::Number:
      Out = Term::constant(DB.symbols().intern(Tok.Text));
      advance();
      return true;
    default:
      return fail("expected a term");
    }
  }

  uint32_t variableIndex(const std::string &Name) {
    auto It = VarIndexes.find(Name);
    if (It != VarIndexes.end())
      return It->second;
    uint32_t Index = VarCounter++;
    VarIndexes.emplace(Name, Index);
    return Index;
  }

  uint32_t freshVariable() { return VarCounter++; }

  // Name(t1, ..., tn) — Name must be a declared relation.
  bool parseAtom(Atom &Out) {
    if (peek().Kind != TokenKind::Ident)
      return fail("expected a relation name");
    std::string Name = advance().Text;
    RelationId Rel = DB.find(Name);
    if (!Rel.isValid())
      return fail("undeclared relation '" + Name + "'");
    Out.Rel = Rel;
    Out.Terms.clear();
    if (!expect(TokenKind::LParen, "'('"))
      return false;
    while (true) {
      Term T;
      if (!parseTerm(T))
        return false;
      Out.Terms.push_back(T);
      if (peek().Kind == TokenKind::Comma) {
        advance();
        continue;
      }
      break;
    }
    return expect(TokenKind::RParen, "')'");
  }

  // item := '!' atom | '(' disj ')' | atom | term (=|!=) term
  bool parseBodyItem(BodyItem &Out) {
    if (peek().Kind == TokenKind::Bang) {
      advance();
      Out.ItemKind = BodyItem::Kind::AtomItem;
      if (!parseAtom(Out.TheAtom))
        return false;
      Out.TheAtom.Negated = true;
      return true;
    }
    if (peek().Kind == TokenKind::LParen) {
      if (GroupDepth == MaxGroupDepth)
        return fail("parenthesized groups nest deeper than " +
                    std::to_string(MaxGroupDepth) + " levels");
      advance();
      ++GroupDepth;
      Out.ItemKind = BodyItem::Kind::Disjunction;
      while (true) {
        BodyConj Alt;
        if (!parseConjunction(Alt, /*InsideParens=*/true))
          return false;
        Out.Alternatives.push_back(std::move(Alt));
        if (peek().Kind == TokenKind::Semicolon) {
          advance();
          continue;
        }
        break;
      }
      --GroupDepth;
      return expect(TokenKind::RParen, "')'");
    }
    // Atom or constraint: atom iff an identifier is followed by '('.
    if (peek().Kind == TokenKind::Ident && peek(1).Kind == TokenKind::LParen) {
      Out.ItemKind = BodyItem::Kind::AtomItem;
      return parseAtom(Out.TheAtom);
    }
    Out.ItemKind = BodyItem::Kind::ConstraintItem;
    if (!parseTerm(Out.TheConstraint.Lhs))
      return false;
    if (peek().Kind == TokenKind::Equal)
      Out.TheConstraint.CompareKind = Constraint::Kind::Equal;
    else if (peek().Kind == TokenKind::NotEqual)
      Out.TheConstraint.CompareKind = Constraint::Kind::NotEqual;
    else
      return fail("expected '=' or '!=' in constraint");
    advance();
    return parseTerm(Out.TheConstraint.Rhs);
  }

  bool parseConjunction(BodyConj &Out, bool InsideParens) {
    while (true) {
      BodyItem Item;
      if (!parseBodyItem(Item))
        return false;
      Out.Items.push_back(std::move(Item));
      if (peek().Kind == TokenKind::Comma) {
        advance();
        continue;
      }
      if (InsideParens &&
          (peek().Kind == TokenKind::Semicolon ||
           peek().Kind == TokenKind::RParen))
        return true;
      if (!InsideParens && peek().Kind == TokenKind::Period)
        return true;
      return fail(InsideParens ? "expected ',', ';' or ')' in body group"
                               : "expected ',' or '.' in rule body");
    }
  }

  /// One desugared body: its atoms and constraints.
  using FlatBody = std::pair<std::vector<Atom>, std::vector<Constraint>>;

  /// Expands \p Conj into flat bodies — the cartesian product over its
  /// disjunctions, the earliest disjunction varying slowest. Atoms and
  /// constraints append in a loop; only a disjunction recurses, into its
  /// alternatives, so the depth is the group nesting `parseBodyItem`
  /// bounds.
  bool expandBody(const BodyConj &Conj, std::vector<FlatBody> &Out) {
    Out.assign(1, FlatBody());
    for (const BodyItem &Item : Conj.Items) {
      switch (Item.ItemKind) {
      case BodyItem::Kind::AtomItem:
        for (FlatBody &Body : Out)
          Body.first.push_back(Item.TheAtom);
        break;
      case BodyItem::Kind::ConstraintItem:
        for (FlatBody &Body : Out)
          Body.second.push_back(Item.TheConstraint);
        break;
      case BodyItem::Kind::Disjunction: {
        std::vector<FlatBody> Choices, AltBodies;
        for (const BodyConj &Alt : Item.Alternatives) {
          if (!expandBody(Alt, AltBodies))
            return false;
          if (Choices.size() + AltBodies.size() > MaxBodyAlternatives)
            return tooManyAlternatives();
          std::move(AltBodies.begin(), AltBodies.end(),
                    std::back_inserter(Choices));
        }
        if (Out.size() * Choices.size() > MaxBodyAlternatives)
          return tooManyAlternatives();
        std::vector<FlatBody> Product;
        Product.reserve(Out.size() * Choices.size());
        for (const FlatBody &Prefix : Out)
          for (const FlatBody &Choice : Choices) {
            FlatBody &Body = Product.emplace_back(Prefix);
            Body.first.insert(Body.first.end(), Choice.first.begin(),
                              Choice.first.end());
            Body.second.insert(Body.second.end(), Choice.second.begin(),
                               Choice.second.end());
          }
        Out = std::move(Product);
        break;
      }
      }
    }
    return true;
  }

  bool tooManyAlternatives() {
    return fail("rule body expands to more than " +
                std::to_string(MaxBodyAlternatives) + " alternatives");
  }

  // rule := head (',' head)* (':-' body)? '.'
  bool parseRule(ParserResult &Result) {
    VarIndexes.clear();
    VarCounter = 0;
    GroupDepth = 0;
    uint32_t RuleLine = peek().Line;

    std::vector<Atom> Heads;
    while (true) {
      Atom Head;
      if (!parseAtom(Head))
        return false;
      Heads.push_back(std::move(Head));
      if (peek().Kind == TokenKind::Comma) {
        advance();
        continue;
      }
      break;
    }

    std::vector<FlatBody> Alternatives;
    if (peek().Kind == TokenKind::Turnstile) {
      advance();
      BodyConj Body;
      if (!parseConjunction(Body, /*InsideParens=*/false) ||
          !expandBody(Body, Alternatives))
        return false;
    } else {
      Alternatives.emplace_back(); // fact: one empty body
    }
    if (!expect(TokenKind::Period, "'.' at end of rule"))
      return false;

    for (const Atom &Head : Heads)
      for (const auto &[Atoms, Constraints] : Alternatives) {
        Rule R;
        R.Head = Head;
        R.Body = Atoms;
        R.Constraints = Constraints;
        R.VariableCount = VarCounter;
        R.Origin =
            std::string(Origin) + ":" + std::to_string(RuleLine);
        std::string Err = Rules.add(DB, std::move(R));
        if (!Err.empty())
          return fail(Err);
        ++Result.RulesAdded;
      }
    return true;
  }

  Database &DB;
  RuleSet &Rules;
  std::string_view Origin;
  std::vector<Token> Tokens;
  size_t Cursor = 0;
  std::string Error;
  std::map<std::string, uint32_t> VarIndexes;
  uint32_t VarCounter = 0;
  uint32_t GroupDepth = 0; ///< open parenthesized groups in this rule
};

} // namespace

ParserResult jackee::datalog::parseRules(Database &DB, RuleSet &Rules,
                                         std::string_view Text,
                                         std::string_view Origin) {
  return RuleParser(DB, Rules, Origin).parse(Text);
}
