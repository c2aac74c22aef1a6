//===- Explain.cpp --------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "provenance/Explain.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

using namespace jackee;
using namespace jackee::datalog;
using namespace jackee::provenance;

std::string Explainer::renderAtom(uint32_t Rel, uint32_t TupleIdx) const {
  const Relation &R = DB.relation(RelationId(Rel));
  std::string Out = R.name();
  Out += '(';
  const Symbol *T = R.tuple(TupleIdx);
  for (uint32_t C = 0; C != R.arity(); ++C) {
    if (C)
      Out += ", ";
    Out += '"';
    Out += DB.symbols().text(T[C]);
    Out += '"';
  }
  Out += ')';
  return Out;
}

DerivationNode Explainer::explainImpl(uint32_t Rel, uint32_t TupleIdx,
                                      uint32_t Depth, uint32_t &Budget,
                                      std::vector<uint64_t> &Path) const {
  DerivationNode Node;
  Node.Rel = Rel;
  Node.TupleIdx = TupleIdx;
  Node.Atom = renderAtom(Rel, TupleIdx);

  const ProvenanceRecorder::Record *Rec =
      Recorder.derivationOf(Rel, TupleIdx);
  if (!Rec) {
    Node.IsBase = true;
    Node.Source = Recorder.epochOf(Rel, TupleIdx);
    return Node;
  }

  Node.RuleIdx = Rec->RuleIdx;
  const Rule &R = Rules.rules()[Rec->RuleIdx];
  Node.Source = R.Origin.empty()
                    ? "rule #" + std::to_string(Rec->RuleIdx)
                    : R.Origin;

  // Witness indexes always predate the derived tuple, so the store is
  // acyclic unless corrupted; the path guard turns corruption into a
  // flagged leaf instead of unbounded recursion.
  uint64_t Key = (uint64_t(Rel) << 32) | TupleIdx;
  if (std::find(Path.begin(), Path.end(), Key) != Path.end()) {
    Node.Cyclic = true;
    return Node;
  }
  if (Depth >= Options.MaxDepth || Budget == 0) {
    Node.Truncated = true;
    return Node;
  }

  Path.push_back(Key);
  std::span<const uint32_t> Refs = Recorder.refs(*Rec);
  size_t RefPos = 0;
  for (const Atom &A : R.Body) {
    if (A.Negated)
      continue;
    uint32_t WitnessIdx = Refs[RefPos++];
    if (Budget == 0) {
      Node.Truncated = true;
      break;
    }
    --Budget;
    Node.Children.push_back(
        explainImpl(A.Rel.index(), WitnessIdx, Depth + 1, Budget, Path));
  }
  Path.pop_back();
  return Node;
}

DerivationNode Explainer::explain(RelationId Rel, uint32_t TupleIdx) const {
  uint32_t Budget = Options.MaxNodes;
  std::vector<uint64_t> Path;
  return explainImpl(Rel.index(), TupleIdx, 0, Budget, Path);
}

namespace {

std::string_view trim(std::string_view S) {
  while (!S.empty() && (S.front() == ' ' || S.front() == '\t'))
    S.remove_prefix(1);
  while (!S.empty() && (S.back() == ' ' || S.back() == '\t'))
    S.remove_suffix(1);
  return S;
}

} // namespace

std::string_view Explainer::queryRelation(std::string_view Query) {
  std::string_view Rest = trim(Query);
  size_t NameEnd = 0;
  while (NameEnd < Rest.size() &&
         (std::isalnum(static_cast<unsigned char>(Rest[NameEnd])) ||
          Rest[NameEnd] == '_' || Rest[NameEnd] == '$' ||
          Rest[NameEnd] == '.'))
    ++NameEnd;
  return Rest.substr(0, NameEnd);
}

std::vector<DerivationNode>
Explainer::explainQuery(std::string_view Query, std::string &Error) const {
  Error.clear();
  std::vector<DerivationNode> Out;

  std::string_view Name = queryRelation(Query);
  if (Name.empty()) {
    Error = "expected a relation name";
    return Out;
  }
  std::string_view Rest = trim(trim(Query).substr(Name.size()));

  RelationId Id = DB.find(Name);
  if (!Id.isValid()) {
    Error = "unknown relation '" + std::string(Name) + "'";
    return Out;
  }
  const Relation &R = DB.relation(Id);

  // Parse the optional argument pattern. `HasValue[i]` false means `_`.
  std::vector<Symbol> Pattern;
  std::vector<bool> HasValue;
  bool AllTuples = Rest.empty();
  if (!AllTuples) {
    if (Rest.front() != '(' || Rest.back() != ')') {
      Error = "expected '(' args ')' after relation name";
      return Out;
    }
    std::string_view Args = Rest.substr(1, Rest.size() - 2);
    size_t Pos = 0;
    while (Pos <= Args.size()) {
      size_t Comma = Args.find(',', Pos);
      std::string_view Arg = trim(Args.substr(
          Pos, Comma == std::string_view::npos ? Comma : Comma - Pos));
      if (Arg.size() >= 2 && Arg.front() == '"' && Arg.back() == '"')
        Arg = Arg.substr(1, Arg.size() - 2);
      if (Arg == "_") {
        Pattern.push_back(Symbol::invalid());
        HasValue.push_back(false);
      } else {
        // A constant that was never interned cannot match any tuple; an
        // invalid symbol with HasValue set encodes that.
        Pattern.push_back(DB.symbols().lookup(Arg));
        HasValue.push_back(true);
      }
      if (Comma == std::string_view::npos)
        break;
      Pos = Comma + 1;
    }
    if (Pattern.size() != R.arity()) {
      Error = "relation '" + std::string(Name) + "' has arity " +
              std::to_string(R.arity()) + ", query has " +
              std::to_string(Pattern.size()) + " argument(s)";
      return Out;
    }
    for (size_t C = 0; C != Pattern.size(); ++C)
      if (HasValue[C] && !Pattern[C].isValid())
        return Out; // constant not in the symbol table: matches nothing
  }

  for (uint32_t I = 0, E = R.size(); I != E; ++I) {
    if (!R.isLive(I))
      continue; // tombstoned by an incremental update
    if (!AllTuples) {
      const Symbol *T = R.tuple(I);
      bool Match = true;
      for (uint32_t C = 0; C != R.arity() && Match; ++C)
        if (HasValue[C] && T[C] != Pattern[C])
          Match = false;
      if (!Match)
        continue;
    }
    Out.push_back(explain(Id, I));
  }
  return Out;
}

static void renderTextImpl(const DerivationNode &Node, unsigned Indent,
                           std::string &Out) {
  Out.append(size_t(Indent) * 2, ' ');
  Out += Node.Atom;
  if (Node.Cyclic)
    Out += "  [cycle detected]";
  else if (Node.IsBase)
    Out += "  [base fact: epoch \"" + Node.Source + "\"]";
  else
    Out += "  [rule: " + Node.Source + "]";
  if (Node.Truncated)
    Out += "  [truncated]";
  Out += '\n';
  for (const DerivationNode &Child : Node.Children)
    renderTextImpl(Child, Indent + 1, Out);
}

std::string Explainer::renderText(const DerivationNode &Node) {
  std::string Out;
  renderTextImpl(Node, 0, Out);
  return Out;
}

static void jsonEscape(std::string_view S, std::string &Out) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

static void renderJsonImpl(const DerivationNode &Node, std::string &Out) {
  Out += "{\"atom\": \"";
  jsonEscape(Node.Atom, Out);
  Out += "\", \"kind\": \"";
  Out += Node.Cyclic ? "cycle" : (Node.IsBase ? "base" : "rule");
  Out += "\", \"source\": \"";
  jsonEscape(Node.Source, Out);
  Out += '"';
  if (Node.Truncated)
    Out += ", \"truncated\": true";
  if (!Node.Children.empty()) {
    Out += ", \"children\": [";
    for (size_t I = 0; I != Node.Children.size(); ++I) {
      if (I)
        Out += ", ";
      renderJsonImpl(Node.Children[I], Out);
    }
    Out += ']';
  }
  Out += '}';
}

std::string Explainer::renderJson(const DerivationNode &Node) {
  std::string Out;
  renderJsonImpl(Node, Out);
  return Out;
}
