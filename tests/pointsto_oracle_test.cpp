//===- pointsto_oracle_test.cpp - Datalog oracle for the solver -----------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// An independent check of the points-to solver: Doop-style points-to rules
// written in the repo's own Datalog dialect, evaluated over the relations
// of paper Figure 2, must derive exactly the context-sensitive
// var-points-to, call-graph and reachability tuples the solver reaches, on
// seeded random plain-`main` programs (tests/ClientGenerator.h) in both
// collection models. The rules share nothing with the solver but the IR:
// no worklist, no sets, no interning, no propagation order.
//
// Contexts are fixed columns, so the rules need no functors: two sites for
// a method context and one for a heap context, left-padded with "*". ci
// and 2objH (K=2, H=1) differ only in the two rules that build contexts.
//
//===----------------------------------------------------------------------===//

#include "ClientGenerator.h"
#include "PointsToProjection.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"
#include "facts/Extractor.h"
#include "pointsto/Solver.h"

#include <gtest/gtest.h>

#include <charconv>
#include <sstream>
#include <string>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;

namespace {

/// Relations the extractor does not emit, and every derived relation.
const char *CommonRules = R"dl(
.decl EntryPoint(m: symbol)
.decl Alloc(v: symbol, s: symbol, m: symbol)
.decl HeapType(s: symbol, t: symbol)
.decl Move(to: symbol, from: symbol)
.decl Cast(to: symbol, t: symbol, from: symbol)
.decl Load(to: symbol, base: symbol, f: symbol)
.decl Store(base: symbol, f: symbol, from: symbol)
.decl ArrayLoad(to: symbol, base: symbol)
.decl ArrayStore(base: symbol, from: symbol)
.decl StaticLoad(to: symbol, f: symbol, m: symbol)
.decl StaticStore(f: symbol, from: symbol)
.decl VirtualCall(i: symbol, base: symbol, sig: symbol)
.decl SpecialCall(i: symbol, base: symbol, m: symbol)
.decl StaticCall(i: symbol, m: symbol)
.decl ThisVar(m: symbol, v: symbol)
.decl ReturnVar(m: symbol, v: symbol)
.decl Throw(m: symbol, v: symbol)
.decl CatchClause(m: symbol, n: symbol, t: symbol, v: symbol)
.decl ClauseFollows(m: symbol, prev: symbol, n: symbol)
.decl DirectSuperclass(t: symbol, sup: symbol)
.decl MethodDecl(t: symbol, sig: symbol, m: symbol)
.decl AbstractMethod(m: symbol)

.decl Reachable(m: symbol, c1: symbol, c2: symbol)
.decl VarPointsTo(v: symbol, c1: symbol, c2: symbol, s: symbol, h: symbol)
.decl FieldPointsTo(bs: symbol, bh: symbol, f: symbol, s: symbol, h: symbol)
.decl ArrayPointsTo(bs: symbol, bh: symbol, s: symbol, h: symbol)
.decl StaticPointsTo(f: symbol, s: symbol, h: symbol)
.decl CallGraphEdge(i: symbol, c1: symbol, c2: symbol, m: symbol, d1: symbol, d2: symbol)
.decl ReceiverCall(i: symbol, c1: symbol, c2: symbol, m: symbol, s: symbol, h: symbol)
.decl HeapCtx(c1: symbol, c2: symbol, h: symbol)
.decl CallCtx(s: symbol, h: symbol, d1: symbol, d2: symbol)
.decl DeclaresSig(t: symbol, sig: symbol)
.decl Dispatch(t: symbol, sig: symbol, m: symbol)
.decl Thrown(m: symbol, c1: symbol, c2: symbol, s: symbol, h: symbol)
.decl Escapes(m: symbol, c1: symbol, c2: symbol, s: symbol, h: symbol)
.decl ClauseCatches(m: symbol, n: symbol, t: symbol)
.decl EarlierClauseCatches(m: symbol, n: symbol, t: symbol)
.decl FirstCatch(m: symbol, t: symbol, n: symbol)
.decl Caught(m: symbol, t: symbol)

Reachable(m, "*", "*") :- EntryPoint(m).

// Allocation, moves, casts, fields, arrays, statics.
VarPointsTo(v, c1, c2, s, h) :-
  Reachable(m, c1, c2), Alloc(v, s, m), HeapCtx(c1, c2, h).
VarPointsTo(to, c1, c2, s, h) :- Move(to, from), VarPointsTo(from, c1, c2, s, h).
VarPointsTo(to, c1, c2, s, h) :-
  Cast(to, t, from), VarPointsTo(from, c1, c2, s, h),
  HeapType(s, st), SubtypeOf(st, t).
VarPointsTo(to, c1, c2, s, h) :-
  Load(to, base, f), VarPointsTo(base, c1, c2, bs, bh),
  FieldPointsTo(bs, bh, f, s, h).
FieldPointsTo(bs, bh, f, s, h) :-
  Store(base, f, from), VarPointsTo(from, c1, c2, s, h),
  VarPointsTo(base, c1, c2, bs, bh).
VarPointsTo(to, c1, c2, s, h) :-
  ArrayLoad(to, base), VarPointsTo(base, c1, c2, bs, bh),
  ArrayPointsTo(bs, bh, s, h).
ArrayPointsTo(bs, bh, s, h) :-
  ArrayStore(base, from), VarPointsTo(from, c1, c2, s, h),
  VarPointsTo(base, c1, c2, bs, bh).
StaticPointsTo(f, s, h) :- StaticStore(f, from), VarPointsTo(from, _, _, s, h).
VarPointsTo(to, c1, c2, s, h) :-
  StaticLoad(to, f, m), Reachable(m, c1, c2), StaticPointsTo(f, s, h).

// Dispatch up the superclass chain: a type's own non-static methods
// shadow inherited ones. An abstract result dispatches nowhere.
DeclaresSig(t, sig) :- MethodDecl(t, sig, _).
Dispatch(t, sig, m) :- MethodDecl(t, sig, m).
Dispatch(t, sig, m) :-
  DirectSuperclass(t, sup), Dispatch(sup, sig, m), !DeclaresSig(t, sig).

// Calls. A call on a receiver runs the callee under the receiver's
// context; a static call keeps the caller's. Abstract targets are never
// entered.
ReceiverCall(i, c1, c2, m, s, h) :-
  VirtualCall(i, base, sig), VarPointsTo(base, c1, c2, s, h),
  HeapType(s, t), Dispatch(t, sig, m), !AbstractMethod(m).
ReceiverCall(i, c1, c2, m, s, h) :-
  SpecialCall(i, base, m), VarPointsTo(base, c1, c2, s, h),
  !AbstractMethod(m).
CallGraphEdge(i, c1, c2, m, d1, d2) :-
  ReceiverCall(i, c1, c2, m, s, h), CallCtx(s, h, d1, d2).
VarPointsTo(this, d1, d2, s, h) :-
  ReceiverCall(_, _, _, m, s, h), CallCtx(s, h, d1, d2), ThisVar(m, this).
CallGraphEdge(i, c1, c2, m, c1, c2) :-
  StaticCall(i, m), Invocation_InMethod(i, caller), Reachable(caller, c1, c2),
  !AbstractMethod(m).
Reachable(m, d1, d2) :- CallGraphEdge(_, _, _, m, d1, d2).

VarPointsTo(formal, d1, d2, s, h) :-
  CallGraphEdge(i, c1, c2, m, d1, d2), ActualParam(n, i, actual),
  FormalParam(n, m, formal), VarPointsTo(actual, c1, c2, s, h).
VarPointsTo(dst, c1, c2, s, h) :-
  CallGraphEdge(i, c1, c2, m, d1, d2), AssignReturnValue(i, dst),
  ReturnVar(m, ret), VarPointsTo(ret, d1, d2, s, h).

// Exceptions. A thrown value goes to the first clause, in clause order,
// whose type it is a subtype of; otherwise it escapes to every caller.
// Which clause catches is a question over types only, so the negations
// sit below the recursion.
Thrown(m, c1, c2, s, h) :- Throw(m, v), VarPointsTo(v, c1, c2, s, h).
Thrown(m, c1, c2, s, h) :-
  CallGraphEdge(i, c1, c2, callee, d1, d2), Invocation_InMethod(i, m),
  Escapes(callee, d1, d2, s, h).
ClauseCatches(m, n, t) :-
  CatchClause(m, n, caught, _), HeapType(_, t), SubtypeOf(t, caught).
EarlierClauseCatches(m, n, t) :- ClauseFollows(m, k, n), ClauseCatches(m, k, t).
EarlierClauseCatches(m, n, t) :-
  ClauseFollows(m, k, n), EarlierClauseCatches(m, k, t).
FirstCatch(m, t, n) :-
  ClauseCatches(m, n, t), !EarlierClauseCatches(m, n, t).
Caught(m, t) :- ClauseCatches(m, _, t).
VarPointsTo(v, c1, c2, s, h) :-
  Thrown(m, c1, c2, s, h), HeapType(s, t), FirstCatch(m, t, n),
  CatchClause(m, n, _, v).
Escapes(m, c1, c2, s, h) :-
  Thrown(m, c1, c2, s, h), HeapType(s, t), !Caught(m, t).
)dl";

/// ci: every context is empty.
const char *CiContexts = R"dl(
HeapCtx(c1, c2, "*") :- Reachable(_, c1, c2).
CallCtx(s, h, "*", "*") :- VarPointsTo(_, _, _, s, h).
)dl";

/// 2objH: an allocation's heap context is the last site of its method's
/// context; a call on (site, heap context) runs under (heap context, site).
const char *TwoObjHContexts = R"dl(
HeapCtx(c1, c2, c2) :- Reachable(_, c1, c2).
CallCtx(s, h, h, s) :- VarPointsTo(_, _, _, s, h).
)dl";

/// Allocation sites as "H#<index>", beside the extractor's entity symbols.
std::string encodeSite(AllocSiteId S) {
  return "H#" + std::to_string(S.index());
}

/// A context column's site, or `NoSite` for the padding.
uint32_t decodeColumn(std::string_view Text) {
  if (Text == "*")
    return test::NoSite;
  uint32_t Index = test::NoSite;
  if (Text.size() > 2 && Text.substr(0, 2) == "H#")
    std::from_chars(Text.data() + 2, Text.data() + Text.size(), Index);
  return Index;
}

/// Emits the relations of paper Figure 2: the ones the extractor already
/// emits through it, the rest from the IR with its entity symbols.
void emitFacts(const Program &P, MethodId Main, datalog::Database &DB) {
  using facts::BaseRel;
  using facts::Extractor;
  facts::Demand Wanted;
  for (BaseRel R : {BaseRel::SubtypeOf, BaseRel::FormalParam,
                    BaseRel::ActualParam, BaseRel::AssignReturnValue,
                    BaseRel::Invocation_InMethod})
    Wanted.set(size_t(R));
  Extractor(DB, Wanted).extractProgram(P);

  SymbolTable &Symbols = DB.symbols();
  auto fact = [&DB](const char *Rel, std::initializer_list<Symbol> Tuple) {
    DB.relation(DB.find(Rel)).insert({Tuple.begin(), Tuple.size()});
  };
  auto sym = [&Symbols](const std::string &Text) {
    return Symbols.intern(Text);
  };
  auto var = [&](VarId V) { return sym(Extractor::encodeVar(V)); };
  auto method = [&](MethodId M) { return sym(Extractor::encodeMethod(M)); };
  auto field = [&](FieldId F) { return sym(Extractor::encodeField(F)); };
  auto invoke = [&](InvokeId I) { return sym(Extractor::encodeInvoke(I)); };
  auto type = [&](TypeId T) { return P.type(T).Name; };

  fact("EntryPoint", {method(Main)});
  for (uint32_t SI = 0; SI != P.allocSiteCount(); ++SI)
    fact("HeapType", {sym(encodeSite(AllocSiteId(SI))),
                      type(P.allocSite(AllocSiteId(SI)).ObjectType)});
  for (uint32_t TI = 0; TI != P.typeCount(); ++TI)
    if (P.type(TypeId(TI)).Superclass.isValid())
      fact("DirectSuperclass",
           {type(TypeId(TI)), type(P.type(TypeId(TI)).Superclass)});

  for (uint32_t MI = 0; MI != P.methodCount(); ++MI) {
    MethodId M(MI);
    const Method &Meth = P.method(M);
    if (!Meth.IsStatic)
      fact("MethodDecl", {type(Meth.DeclaringType), Meth.SignatureKey,
                          method(M)});
    if (Meth.IsAbstract)
      fact("AbstractMethod", {method(M)});
    if (Meth.This.isValid())
      fact("ThisVar", {method(M), var(Meth.This)});
    for (size_t N = 0; N != Meth.Catches.size(); ++N) {
      fact("CatchClause", {method(M), sym(std::to_string(N)),
                           type(Meth.Catches[N].CaughtType),
                           var(Meth.Catches[N].Var)});
      if (N != 0)
        fact("ClauseFollows",
             {method(M), sym(std::to_string(N - 1)), sym(std::to_string(N))});
    }
    for (const Statement &S : Meth.Statements) {
      switch (S.Op) {
      case Opcode::Alloc:
      case Opcode::StringConst:
        fact("Alloc", {var(S.Dst), sym(encodeSite(S.Site)), method(M)});
        break;
      case Opcode::Move:
        fact("Move", {var(S.Dst), var(S.Src)});
        break;
      case Opcode::Cast:
        fact("Cast", {var(S.Dst), type(S.TypeRef), var(S.Src)});
        break;
      case Opcode::Load:
        fact("Load", {var(S.Dst), var(S.Base), field(S.FieldRef)});
        break;
      case Opcode::Store:
        fact("Store", {var(S.Base), field(S.FieldRef), var(S.Src)});
        break;
      case Opcode::ArrayLoad:
        fact("ArrayLoad", {var(S.Dst), var(S.Base)});
        break;
      case Opcode::ArrayStore:
        fact("ArrayStore", {var(S.Base), var(S.Src)});
        break;
      case Opcode::StaticLoad:
        fact("StaticLoad", {var(S.Dst), field(S.FieldRef), method(M)});
        break;
      case Opcode::StaticStore:
        fact("StaticStore", {field(S.FieldRef), var(S.Src)});
        break;
      case Opcode::VirtualCall:
        fact("VirtualCall",
             {invoke(S.Invoke), var(S.Base), S.CalleeSignature});
        break;
      case Opcode::SpecialCall:
        fact("SpecialCall",
             {invoke(S.Invoke), var(S.Base), method(S.DirectCallee)});
        break;
      case Opcode::StaticCall:
        fact("StaticCall", {invoke(S.Invoke), method(S.DirectCallee)});
        break;
      case Opcode::Return:
        if (S.Src.isValid())
          fact("ReturnVar", {method(M), var(S.Src)});
        break;
      case Opcode::Throw:
        fact("Throw", {method(M), var(S.Src)});
        break;
      }
    }
  }
}

/// The oracle's tuples, decoded to the projection's columns.
test::PointsToProjection evaluateRules(test::GeneratedClient &Client,
                                       bool TwoObjH) {
  const Program &P = *Client.P;
  SymbolTable &Symbols = Client.Symbols;
  datalog::Database DB(Symbols);
  datalog::RuleSet Rules;
  facts::declareSchema(DB); // the rules read the extractor's relations
  for (const char *Text :
       {CommonRules, TwoObjH ? TwoObjHContexts : CiContexts}) {
    datalog::ParserResult Parsed =
        datalog::parseRules(DB, Rules, Text, "pointsto-oracle.dl");
    EXPECT_TRUE(Parsed.Ok) << Parsed.Error;
  }
  emitFacts(P, Client.Main, DB);
  datalog::Evaluator Eval(DB, Rules);
  EXPECT_EQ(Eval.validate(), "");
  Eval.run();

  test::PointsToProjection Out;
  auto column = [&](Symbol S) { return decodeColumn(Symbols.text(S)); };
  auto decoded = [&Symbols](auto Decode, Symbol S) {
    return Decode(Symbols.text(S)).rawValue();
  };
  const datalog::Relation &Vpt = DB.relation(DB.find("VarPointsTo"));
  for (uint32_t T = 0; T != Vpt.size(); ++T) {
    const Symbol *Tup = Vpt.tuple(T);
    Out.VarPointsTo.push_back({decoded(facts::Extractor::decodeVar, Tup[0]),
                               column(Tup[1]), column(Tup[2]),
                               column(Tup[3]), column(Tup[4])});
  }
  const datalog::Relation &Cg = DB.relation(DB.find("CallGraphEdge"));
  for (uint32_t T = 0; T != Cg.size(); ++T) {
    const Symbol *Tup = Cg.tuple(T);
    Out.CallGraph.push_back(
        {decoded(facts::Extractor::decodeInvoke, Tup[0]), column(Tup[1]),
         column(Tup[2]), decoded(facts::Extractor::decodeMethod, Tup[3]),
         column(Tup[4]), column(Tup[5])});
  }
  const datalog::Relation &Reach = DB.relation(DB.find("Reachable"));
  for (uint32_t T = 0; T != Reach.size(); ++T) {
    const Symbol *Tup = Reach.tuple(T);
    Out.Reachable.push_back(
        {decoded(facts::Extractor::decodeMethod, Tup[0]), column(Tup[1]),
         column(Tup[2])});
  }
  test::sortUnique(Out.VarPointsTo);
  test::sortUnique(Out.CallGraph);
  test::sortUnique(Out.Reachable);
  return Out;
}

/// Up to \p Limit tuples of \p A missing from \p B, for diagnostics.
template <typename Tuple>
std::string missing(const std::vector<Tuple> &A, const std::vector<Tuple> &B,
                    size_t Limit = 5) {
  std::vector<Tuple> Diff;
  std::set_difference(A.begin(), A.end(), B.begin(), B.end(),
                      std::back_inserter(Diff));
  std::ostringstream OS;
  OS << Diff.size() << " tuple(s)";
  for (size_t I = 0; I != std::min(Diff.size(), Limit); ++I) {
    OS << "\n  (";
    for (size_t C = 0; C != Diff[I].size(); ++C)
      OS << (C ? ", " : "") << static_cast<int64_t>(int32_t(Diff[I][C]));
    OS << ")";
  }
  return OS.str();
}

/// What one seed reached, for the coverage checks.
struct SeedResult {
  size_t LargestSet = 0;
  uint64_t WordUnions = 0;
};

/// Solves one generated program with the solver and with the rules, and
/// compares the tuple sets in both directions.
SeedResult checkSeed(uint32_t Seed, bool SoundModulo, bool TwoObjH,
                     test::ClientScale Scale) {
  auto Client = test::generate(Seed, SoundModulo, Scale);
  const Program &P = *Client->P;
  SolverConfig Config = TwoObjH ? SolverConfig{2, 1} : SolverConfig{0, 0};
  Solver S(P, Config);
  S.makeReachable(Client->Main, S.contexts().empty());
  S.solve();

  bool Fits = false;
  test::PointsToProjection Got = test::projectSolver(S, Fits);
  EXPECT_TRUE(Fits) << "a context deeper than the oracle's columns";
  test::PointsToProjection Want = evaluateRules(*Client, TwoObjH);

  EXPECT_EQ(Got.VarPointsTo, Want.VarPointsTo)
      << "solver only: " << missing(Got.VarPointsTo, Want.VarPointsTo)
      << "\noracle only: " << missing(Want.VarPointsTo, Got.VarPointsTo);
  EXPECT_EQ(Got.CallGraph, Want.CallGraph)
      << "solver only: " << missing(Got.CallGraph, Want.CallGraph)
      << "\noracle only: " << missing(Want.CallGraph, Got.CallGraph);
  EXPECT_EQ(Got.Reachable, Want.Reachable)
      << "solver only: " << missing(Got.Reachable, Want.Reachable)
      << "\noracle only: " << missing(Want.Reachable, Got.Reachable);

  // The solver's own context-insensitive call graph is the oracle's,
  // projected.
  std::vector<uint64_t> Recorded = S.callGraphEdges(), Projected;
  for (const test::CallEdgeTuple &E : Want.CallGraph)
    Projected.push_back(packPair(E[0], E[3]));
  test::sortUnique(Recorded);
  test::sortUnique(Projected);
  EXPECT_EQ(Recorded, Projected);

  SeedResult R;
  R.WordUnions = S.stats().WordUnions;
  for (uint32_t VI = 0; VI != P.variableCount(); ++VI)
    for (NodeId N : S.varInstances(VarId(VI)))
      R.LargestSet = std::max(R.LargestSet, S.pointsTo(N).size());
  return R;
}

/// One ctest case: a run of seeds of one configuration.
struct OracleCase {
  bool TwoObjH;
  bool SoundModulo;
  bool Scaled;
  uint32_t FirstSeed, Seeds;
};

std::string caseName(const ::testing::TestParamInfo<OracleCase> &Info) {
  const OracleCase &C = Info.param;
  return std::string(C.TwoObjH ? "TwoObjH" : "Ci") +
         (C.SoundModulo ? "SoundModulo" : "Original") +
         (C.Scaled ? "Scaled" : "") + "Seeds" + std::to_string(C.FirstSeed) +
         "To" + std::to_string(C.FirstSeed + C.Seeds - 1);
}

class PointsToOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(PointsToOracle, SolverMatchesDatalogRules) {
  const OracleCase C = GetParam();
  test::ClientScale Scale =
      C.Scaled ? test::ClientScale::scaled() : test::ClientScale::defaultScale();
  size_t Largest = 0;
  uint64_t WordUnions = 0;
  for (uint32_t Seed = C.FirstSeed; Seed != C.FirstSeed + C.Seeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    SeedResult R = checkSeed(Seed, C.SoundModulo, C.TwoObjH, Scale);
    Largest = std::max(Largest, R.LargestSet);
    WordUnions += R.WordUnions;
    if (HasFailure())
      return;
  }
  // The scaled programs exist to grow sets past the scan-to-bitset switch
  // and to send deltas wide enough for the word-wise union.
  if (C.Scaled) {
    EXPECT_GT(Largest, InsertOrderSet::ScanLimit);
    EXPECT_GT(WordUnions, 0u);
  }
}

/// 200 seeds of each configuration and model, in runs of 25 so ctest can
/// run them in parallel, plus 40 scaled seeds each in runs of 10.
std::vector<OracleCase> makeCases() {
  std::vector<OracleCase> Cases;
  for (bool TwoObjH : {false, true})
    for (bool SoundModulo : {false, true}) {
      for (uint32_t First = 1; First <= 200; First += 25)
        Cases.push_back({TwoObjH, SoundModulo, false, First, 25});
      for (uint32_t First = 1; First <= 40; First += 10)
        Cases.push_back({TwoObjH, SoundModulo, true, First, 10});
    }
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointsToOracle,
                         ::testing::ValuesIn(makeCases()), caseName);

} // namespace
