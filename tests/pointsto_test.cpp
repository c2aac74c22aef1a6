//===- pointsto_test.cpp - Points-to solver semantics tests ---------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "pointsto/Solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <vector>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;

namespace {

/// Fixture with a fresh program containing Object/String/Throwable roots.
class SolverTest : public ::testing::Test {
protected:
  SolverTest() : P(Symbols) {
    Object = P.addClass("java.lang.Object", TypeKind::Class,
                        TypeId::invalid());
    StringTy = P.addClass("java.lang.String", TypeKind::Class, Object);
    Throwable = P.addClass("java.lang.Throwable", TypeKind::Class, Object);
    Exception = P.addClass("java.lang.Exception", TypeKind::Class, Throwable);
    Runtime =
        P.addClass("java.lang.RuntimeException", TypeKind::Class, Exception);
  }

  /// Runs an analysis with `main` as the sole entry point.
  std::unique_ptr<Solver> analyze(MethodId Main, uint32_t K, uint32_t H) {
    P.finalize();
    auto S = std::make_unique<Solver>(P, SolverConfig{K, H});
    S->makeReachable(Main, S->contexts().empty());
    S->solve();
    return S;
  }

  /// Context-insensitively projected points-to of \p V as a set of alloc
  /// site labels.
  static std::vector<std::string> sitesOf(const Solver &S, VarId V) {
    std::vector<std::string> Labels;
    for (AllocSiteId Site : S.varPointsToSites(V))
      Labels.push_back(
          S.program().symbols().text(S.program().allocSite(Site).Label));
    std::sort(Labels.begin(), Labels.end());
    return Labels;
  }

  static size_t siteCount(const Solver &S, VarId V) {
    return S.varPointsToSites(V).size();
  }

  SymbolTable Symbols;
  Program P;
  TypeId Object, StringTy, Throwable, Exception, Runtime;
};

TEST_F(SolverTest, AllocAndMove) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Main =
      P.addMethod(A, "main", {}, TypeId::invalid(), /*IsStatic=*/true);
  VarId X = Main.local("x", Object);
  VarId Y = Main.local("y", Object);
  Main.alloc(X, A).move(Y, X);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(siteCount(*S, X), 1u);
  EXPECT_EQ(siteCount(*S, Y), 1u);
  EXPECT_EQ(S->varPointsToSites(X), S->varPointsToSites(Y));
}

TEST_F(SolverTest, FieldStoreLoadIsObjectSensitive) {
  // Two distinct A objects, each storing a different payload; loads must not
  // conflate (field sensitivity on abstract objects).
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId F = P.addField(A, "f", Object);

  MethodBuilder Main =
      P.addMethod(A, "main", {}, TypeId::invalid(), /*IsStatic=*/true);
  VarId A1 = Main.local("a1", A), A2 = Main.local("a2", A);
  VarId P1 = Main.local("p1", Pay), P2 = Main.local("p2", Pay);
  VarId R1 = Main.local("r1", Object), R2 = Main.local("r2", Object);
  Main.alloc(A1, A)
      .alloc(A2, A)
      .alloc(P1, Pay)
      .alloc(P2, Pay)
      .store(A1, F, P1)
      .store(A2, F, P2)
      .load(R1, A1, F)
      .load(R2, A2, F);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(siteCount(*S, R1), 1u);
  EXPECT_EQ(siteCount(*S, R2), 1u);
  EXPECT_NE(S->varPointsToSites(R1), S->varPointsToSites(R2));
}

TEST_F(SolverTest, VirtualDispatchSelectsOverride) {
  TypeId Base = P.addClass("Base", TypeKind::Class, Object);
  TypeId Der = P.addClass("Der", TypeKind::Class, Base);
  TypeId RA = P.addClass("RA", TypeKind::Class, Object);
  TypeId RB = P.addClass("RB", TypeKind::Class, Object);

  MethodBuilder BaseM = P.addMethod(Base, "mk", {}, Object);
  VarId BV = BaseM.local("v", RA);
  BaseM.alloc(BV, RA).ret(BV);
  MethodBuilder DerM = P.addMethod(Der, "mk", {}, Object);
  VarId DV = DerM.local("v", RB);
  DerM.alloc(DV, RB).ret(DV);

  MethodBuilder Main =
      P.addMethod(Base, "main", {}, TypeId::invalid(), true);
  VarId O = Main.local("o", Base);
  VarId R = Main.local("r", Object);
  Main.alloc(O, Der).virtualCall(R, O, "mk", {}, {});

  auto S = analyze(Main.id(), 0, 0);
  // Receiver is dynamically Der, so only Der.mk runs: result is RB only.
  ASSERT_EQ(siteCount(*S, R), 1u);
  EXPECT_EQ(S->program().allocSite(S->varPointsToSites(R)[0]).ObjectType, RB);
  EXPECT_TRUE(S->isMethodReachable(DerM.id()));
  EXPECT_FALSE(S->isMethodReachable(BaseM.id()));
}

TEST_F(SolverTest, ArgumentAndReturnFlow) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  // Object id(Object o) { return o; }
  MethodBuilder IdM = P.addMethod(A, "id", {Object}, Object);
  IdM.ret(IdM.param(0));

  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Recv = Main.local("recv", A);
  VarId Arg = Main.local("arg", A);
  VarId Ret = Main.local("ret", Object);
  Main.alloc(Recv, A).alloc(Arg, A).virtualCall(Ret, Recv, "id", {Object},
                                                {Arg});

  auto S = analyze(Main.id(), 0, 0);
  ASSERT_EQ(siteCount(*S, Ret), 1u);
  EXPECT_EQ(S->varPointsToSites(Ret), S->varPointsToSites(Arg));
}

TEST_F(SolverTest, ContextInsensitiveConflatesReceivers) {
  // c1.set(p1); c2.set(p2); under ci the parameter conflates, so c1.get()
  // sees both payloads. Under 1objH the receivers split the contexts.
  TypeId C = P.addClass("C", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId F = P.addField(C, "f", Object);

  MethodBuilder SetM = P.addMethod(C, "set", {Object}, TypeId::invalid());
  SetM.store(SetM.thisVar(), F, SetM.param(0));
  MethodBuilder GetM = P.addMethod(C, "get", {}, Object);
  VarId GTmp = GetM.local("t", Object);
  GetM.load(GTmp, GetM.thisVar(), F).ret(GTmp);

  MethodBuilder Main = P.addMethod(C, "main", {}, TypeId::invalid(), true);
  VarId C1 = Main.local("c1", C), C2 = Main.local("c2", C);
  VarId P1 = Main.local("p1", Pay), P2 = Main.local("p2", Pay);
  VarId X = Main.local("x", Object), Y = Main.local("y", Object);
  Main.alloc(C1, C)
      .alloc(C2, C)
      .alloc(P1, Pay)
      .alloc(P2, Pay)
      .virtualCall(VarId::invalid(), C1, "set", {Object}, {P1})
      .virtualCall(VarId::invalid(), C2, "set", {Object}, {P2})
      .virtualCall(X, C1, "get", {}, {})
      .virtualCall(Y, C2, "get", {}, {});

  {
    auto S = analyze(Main.id(), 0, 0);
    EXPECT_EQ(siteCount(*S, X), 2u) << "ci must conflate";
    EXPECT_EQ(siteCount(*S, Y), 2u);
  }
  {
    auto S = analyze(Main.id(), 1, 1);
    EXPECT_EQ(siteCount(*S, X), 1u) << "1objH must distinguish receivers";
    EXPECT_EQ(siteCount(*S, Y), 1u);
  }
}

TEST_F(SolverTest, HeapContextDistinguishesInternalAllocations) {
  // Each Outer allocates its own Inner at one site; with a context-sensitive
  // heap (H=1) the two Inner objects are distinct abstract objects, so their
  // fields do not conflate. With H=0 they merge.
  TypeId Outer = P.addClass("Outer", TypeKind::Class, Object);
  TypeId Inner = P.addClass("Inner", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId InnerF = P.addField(Outer, "inner", Inner);
  FieldId PayF = P.addField(Inner, "pay", Object);

  MethodBuilder Init = P.addMethod(Outer, "<init>", {}, TypeId::invalid());
  VarId IV = Init.local("i", Inner);
  Init.alloc(IV, Inner).store(Init.thisVar(), InnerF, IV);

  MethodBuilder SetM = P.addMethod(Outer, "set", {Object}, TypeId::invalid());
  VarId SI = SetM.local("i", Inner);
  SetM.load(SI, SetM.thisVar(), InnerF).store(SI, PayF, SetM.param(0));

  MethodBuilder GetM = P.addMethod(Outer, "get", {}, Object);
  VarId GI = GetM.local("i", Inner);
  VarId GT = GetM.local("t", Object);
  GetM.load(GI, GetM.thisVar(), InnerF).load(GT, GI, PayF).ret(GT);

  MethodBuilder Main = P.addMethod(Outer, "main", {}, TypeId::invalid(), true);
  VarId O1 = Main.local("o1", Outer), O2 = Main.local("o2", Outer);
  VarId P1 = Main.local("p1", Pay), P2 = Main.local("p2", Pay);
  VarId X = Main.local("x", Object), Y = Main.local("y", Object);
  Main.alloc(O1, Outer)
      .specialCall(VarId::invalid(), O1, Init.id(), {})
      .alloc(O2, Outer)
      .specialCall(VarId::invalid(), O2, Init.id(), {})
      .alloc(P1, Pay)
      .alloc(P2, Pay)
      .virtualCall(VarId::invalid(), O1, "set", {Object}, {P1})
      .virtualCall(VarId::invalid(), O2, "set", {Object}, {P2})
      .virtualCall(X, O1, "get", {}, {})
      .virtualCall(Y, O2, "get", {}, {});

  {
    auto S = analyze(Main.id(), 1, 0); // context-insensitive heap
    EXPECT_EQ(siteCount(*S, X), 2u) << "H=0 merges the Inner objects";
  }
  {
    auto S = analyze(Main.id(), 1, 1);
    EXPECT_EQ(siteCount(*S, X), 1u) << "H=1 splits the Inner objects";
    EXPECT_EQ(siteCount(*S, Y), 1u);
  }
}

TEST_F(SolverTest, CastFiltersValues) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId B = P.addClass("B", TypeKind::Class, Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", Object);
  VarId Y = Main.local("y", A);
  Main.alloc(X, A).stringConst(X, "s").cast(Y, A, X);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(siteCount(*S, X), 2u);
  ASSERT_EQ(siteCount(*S, Y), 1u) << "only the A object passes the cast";
  EXPECT_EQ(S->program().allocSite(S->varPointsToSites(Y)[0]).ObjectType, A);

  // The cast is recorded and may fail (the String does not conform).
  ASSERT_EQ(S->castRecords().size(), 1u);
  const auto &Rec = S->castRecords()[0];
  bool MayFail = false;
  for (NodeId N : Rec.SourceNodes)
    for (uint32_t Raw : S->pointsTo(N))
      if (!S->program().isSubtype(S->valueType(ValueId(Raw)),
                                  Rec.TargetType))
        MayFail = true;
  EXPECT_TRUE(MayFail);
  (void)B;
}

TEST_F(SolverTest, ExceptionCaughtByMatchingClause) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  // callee: throw new RuntimeException()
  MethodBuilder Callee = P.addMethod(A, "boom", {}, TypeId::invalid());
  VarId EV = Callee.local("e", Runtime);
  Callee.alloc(EV, Runtime).throwStmt(EV);

  // caller: try { this.boom() } catch (Exception c) {}
  MethodBuilder Caller = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Recv = Caller.local("r", A);
  VarId CaughtVar = Caller.local("c", Exception);
  Caller.alloc(Recv, A)
      .virtualCall(VarId::invalid(), Recv, "boom", {}, {})
      .catchClause(Exception, CaughtVar);

  auto S = analyze(Caller.id(), 0, 0);
  ASSERT_EQ(siteCount(*S, CaughtVar), 1u);
  EXPECT_EQ(
      S->program().allocSite(S->varPointsToSites(CaughtVar)[0]).ObjectType,
      Runtime);
}

TEST_F(SolverTest, ExceptionEscapesNonMatchingClauseTwoLevels) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId Other =
      P.addClass("app.OtherException", TypeKind::Class, Throwable);

  MethodBuilder Inner = P.addMethod(A, "inner", {}, TypeId::invalid());
  VarId EV = Inner.local("e", Runtime);
  Inner.alloc(EV, Runtime).throwStmt(EV);

  // mid catches only app.OtherException: the RuntimeException passes through.
  MethodBuilder Mid = P.addMethod(A, "mid", {}, TypeId::invalid());
  VarId MC = Mid.local("c", Other);
  Mid.virtualCall(VarId::invalid(), Mid.thisVar(), "inner", {}, {})
      .catchClause(Other, MC);

  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Recv = Main.local("r", A);
  VarId Caught = Main.local("c", Throwable);
  Main.alloc(Recv, A)
      .virtualCall(VarId::invalid(), Recv, "mid", {}, {})
      .catchClause(Throwable, Caught);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(siteCount(*S, MC), 0u);
  ASSERT_EQ(siteCount(*S, Caught), 1u);
}

TEST_F(SolverTest, FirstMatchingCatchWins) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId EV = Main.local("e", Runtime);
  VarId C1 = Main.local("c1", Exception);
  VarId C2 = Main.local("c2", Throwable);
  Main.alloc(EV, Runtime)
      .throwStmt(EV)
      .catchClause(Exception, C1)   // matches first
      .catchClause(Throwable, C2);  // shadowed for RuntimeException

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(siteCount(*S, C1), 1u);
  EXPECT_EQ(siteCount(*S, C2), 0u);
}

TEST_F(SolverTest, ArrayStoreLoad) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId ArrTy = P.addArrayType(Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Arr = Main.local("arr", ArrTy);
  VarId X = Main.local("x", A);
  VarId Y = Main.local("y", Object);
  Main.alloc(Arr, ArrTy).alloc(X, A).arrayStore(Arr, X).arrayLoad(Y, Arr);

  auto S = analyze(Main.id(), 0, 0);
  ASSERT_EQ(siteCount(*S, Y), 1u);
  EXPECT_EQ(S->varPointsToSites(Y), S->varPointsToSites(X));
}

TEST_F(SolverTest, StaticFieldFlow) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  FieldId F = P.addField(A, "instance", A, /*IsStatic=*/true);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", A);
  VarId Y = Main.local("y", A);
  Main.alloc(X, A).staticStore(F, X).staticLoad(Y, F);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(S->varPointsToSites(Y), S->varPointsToSites(X));
}

TEST_F(SolverTest, StringConstantsAreDistinctValues) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", StringTy);
  VarId Y = Main.local("y", StringTy);
  Main.stringConst(X, "userService").stringConst(Y, "mailService");

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(sitesOf(*S, X), (std::vector<std::string>{"userService"}));
  EXPECT_EQ(sitesOf(*S, Y), (std::vector<std::string>{"mailService"}));
}

TEST_F(SolverTest, RecursionTerminates) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Rec = P.addMethod(A, "rec", {Object}, Object);
  VarId RT = Rec.local("t", Object);
  Rec.virtualCall(RT, Rec.thisVar(), "rec", {Object}, {Rec.param(0)})
      .ret(RT)
      .ret(Rec.param(0)); // base case (flow-insensitive: both returns)

  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Recv = Main.local("r", A);
  VarId Arg = Main.local("a", A);
  VarId Out = Main.local("o", Object);
  Main.alloc(Recv, A).alloc(Arg, A).virtualCall(Out, Recv, "rec", {Object},
                                                {Arg});

  auto S = analyze(Main.id(), 2, 1);
  EXPECT_TRUE(S->isMethodReachable(Rec.id()));
  EXPECT_EQ(siteCount(*S, Out), 1u);
}

TEST_F(SolverTest, CallGraphEdgesRecorded) {
  TypeId Base = P.addClass("Base", TypeKind::Class, Object);
  TypeId D1 = P.addClass("D1", TypeKind::Class, Base);
  TypeId D2 = P.addClass("D2", TypeKind::Class, Base);
  P.addMethod(D1, "go", {}, TypeId::invalid());
  P.addMethod(D2, "go", {}, TypeId::invalid());

  MethodBuilder Main = P.addMethod(Base, "main", {}, TypeId::invalid(), true);
  VarId O = Main.local("o", Base);
  // o may be D1 or D2: the virtual call has two targets (a poly v-call).
  Main.alloc(O, D1).alloc(O, D2).virtualCall(VarId::invalid(), O, "go", {},
                                             {});

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(S->callGraphEdges().size(), 2u);
}

TEST_F(SolverTest, SeedObjectFieldModelsInjection) {
  // Simulates bean field injection: no store statement exists, the
  // framework seeds the field directly (paper Section 3.5).
  TypeId Ctl = P.addClass("Ctl", TypeKind::Class, Object);
  TypeId Svc = P.addClass("Svc", TypeKind::Class, Object);
  FieldId Dep = P.addField(Ctl, "svc", Svc);

  MethodBuilder Handler = P.addMethod(Ctl, "handle", {}, Object);
  VarId HT = Handler.local("t", Svc);
  Handler.load(HT, Handler.thisVar(), Dep).ret(HT);

  P.finalize();
  AllocSiteId CtlSite =
      P.addSyntheticObject(Ctl, AllocKind::Generated, "<bean Ctl>");
  AllocSiteId SvcSite =
      P.addSyntheticObject(Svc, AllocKind::Generated, "<bean Svc>");

  Solver S(P, SolverConfig{0, 0});
  CtxId Empty = S.contexts().empty();
  ValueId CtlVal = S.internValue(CtlSite, Empty);
  ValueId SvcVal = S.internValue(SvcSite, Empty);
  S.makeReachable(Handler.id(), Empty);
  S.seedVar(P.method(Handler.id()).This, Empty, CtlVal);
  S.seedObjectField(CtlVal, Dep, SvcVal);
  S.solve();

  EXPECT_EQ(S.varPointsToSites(HT),
            (std::vector<AllocSiteId>{SvcSite}));
}

namespace plugintest {

/// Plugin that injects a seed exactly once, at the first fixpoint.
class OneShotSeed : public Plugin {
public:
  OneShotSeed(VarId Var, ValueId V) : Var(Var), V(V) {}
  bool onFixpoint(Solver &S) override {
    if (Done)
      return false;
    Done = true;
    S.seedVarAllContexts(Var, V);
    return true;
  }

private:
  VarId Var;
  ValueId V;
  bool Done = false;
};

} // namespace plugintest

TEST_F(SolverTest, PluginRoundsReSolve) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId F = P.addField(A, "f", Object);

  // main: x is never assigned by code; a plugin injects into it after the
  // first fixpoint, and the store must then re-propagate.
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId Holder = Main.local("h", A);
  VarId X = Main.local("x", Object);
  VarId Out = Main.local("out", Object);
  Main.alloc(Holder, A).store(Holder, F, X).load(Out, Holder, F);

  P.finalize();
  AllocSiteId PaySite =
      P.addSyntheticObject(Pay, AllocKind::Generated, "<injected>");

  Solver S(P, SolverConfig{0, 0});
  ValueId PayVal = S.internValue(PaySite, S.contexts().empty());
  plugintest::OneShotSeed Seed(X, PayVal);
  S.addPlugin(&Seed);
  S.makeReachable(Main.id(), S.contexts().empty());
  S.solve();

  EXPECT_EQ(S.varPointsToSites(Out),
            (std::vector<AllocSiteId>{PaySite}));
  EXPECT_GE(S.stats().PluginRounds, 2u);
}

TEST_F(SolverTest, UnreachableCodeStaysUnanalyzed) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Dead = P.addMethod(A, "dead", {}, TypeId::invalid());
  VarId DV = Dead.local("d", A);
  Dead.alloc(DV, A);

  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", A);
  Main.alloc(X, A);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_FALSE(S->isMethodReachable(Dead.id()));
  EXPECT_EQ(siteCount(*S, DV), 0u);
}

/// The paper's central precision observation, reduced to its skeleton: a
/// "double dispatch" through an internally allocated helper drops one
/// context element. We verify the context machinery itself: K=2 keeps two
/// distinct client objects' data apart when the helper is the receiver the
/// client allocated, and conflates when dispatching through an
/// internally-allocated singleton-site helper.
TEST_F(SolverTest, InternalReceiverWeakensContext) {
  TypeId Map = P.addClass("MiniMap", TypeKind::Class, Object);
  TypeId Node = P.addClass("MiniNode", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId NodeF = P.addField(Map, "node", Node);
  FieldId ValF = P.addField(Node, "val", Object);

  // MiniMap() { this.node = new MiniNode(); }
  MethodBuilder Init = P.addMethod(Map, "<init>", {}, TypeId::invalid());
  VarId NV = Init.local("n", Node);
  Init.alloc(NV, Node).store(Init.thisVar(), NodeF, NV);

  // MiniNode.putVal(Object v) { this.val = v; }  -- the "double dispatch"
  MethodBuilder PutVal = P.addMethod(Node, "putVal", {Object},
                                     TypeId::invalid());
  PutVal.store(PutVal.thisVar(), ValF, PutVal.param(0));

  // MiniMap.put(Object v) { this.node.putVal(v); }
  MethodBuilder Put = P.addMethod(Map, "put", {Object}, TypeId::invalid());
  VarId PN = Put.local("n", Node);
  Put.load(PN, Put.thisVar(), NodeF)
      .virtualCall(VarId::invalid(), PN, "putVal", {Object}, {Put.param(0)});

  // MiniMap.get() { return this.node.val; }
  MethodBuilder Get = P.addMethod(Map, "get", {}, Object);
  VarId GN = Get.local("n", Node);
  VarId GV = Get.local("v", Object);
  Get.load(GN, Get.thisVar(), NodeF).load(GV, GN, ValF).ret(GV);

  MethodBuilder Main = P.addMethod(Map, "main", {}, TypeId::invalid(), true);
  VarId M1 = Main.local("m1", Map), M2 = Main.local("m2", Map);
  VarId P1 = Main.local("p1", Pay), P2 = Main.local("p2", Pay);
  VarId X = Main.local("x", Object), Y = Main.local("y", Object);
  Main.alloc(M1, Map)
      .specialCall(VarId::invalid(), M1, Init.id(), {})
      .alloc(M2, Map)
      .specialCall(VarId::invalid(), M2, Init.id(), {})
      .alloc(P1, Pay)
      .alloc(P2, Pay)
      .virtualCall(VarId::invalid(), M1, "put", {Object}, {P1})
      .virtualCall(VarId::invalid(), M2, "put", {Object}, {P2})
      .virtualCall(X, M1, "get", {}, {})
      .virtualCall(Y, M2, "get", {}, {});

  // With H=1 the internal MiniNode is split per map, and 2objH keeps the
  // two maps' payloads apart end to end.
  auto S = analyze(Main.id(), 2, 1);
  EXPECT_EQ(siteCount(*S, X), 1u);
  EXPECT_EQ(siteCount(*S, Y), 1u);

  // With a context-insensitive heap the internal receiver is a single
  // abstract object: putVal's context is the same for both maps and the
  // payloads conflate — the degradation mechanism behind the paper's
  // TreeNode finding.
  auto S0 = analyze(Main.id(), 2, 0);
  EXPECT_EQ(siteCount(*S0, X), 2u);
  EXPECT_EQ(siteCount(*S0, Y), 2u);
}

/// A statement may name a variable another method declares (the builders
/// never make one; a decoded image may). The variable keeps one node per
/// context, which the declaring method's own statements share.
TEST_F(SolverTest, ForeignVariableSharesItsOwnersNode) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  // static Object get() { return h; }  -- h is only ever written by main.
  MethodBuilder Get =
      P.addMethod(A, "get", {}, Object, /*IsStatic=*/true);
  VarId H = Get.local("h", Object);
  Get.ret(H);
  // x = new A; h = x; r = get();
  MethodBuilder Main =
      P.addMethod(A, "main", {}, TypeId::invalid(), /*IsStatic=*/true);
  VarId X = Main.local("x", A), R = Main.local("r", Object);
  Main.alloc(X, A).move(H, X).staticCall(R, Get.id(), {});

  auto S = analyze(Main.id(), 2, 1);
  EXPECT_EQ(S->varInstances(H).size(), 1u);
  EXPECT_EQ(sitesOf(*S, H), std::vector<std::string>{"A.main/new0"});
  EXPECT_EQ(sitesOf(*S, R), std::vector<std::string>{"A.main/new0"});
}

/// A reaction fires once per (reaction, value) pair: `addReaction` fires
/// it for its base's visited prefix (the replay), and the base's later
/// visits fire it for the rest. `ReactionsRun` counts both, so it equals
/// the number of pairs whatever the visit order.
class SolverReplay : public SolverTest {
protected:
  /// The labels of \p V's objects, sorted; \p V has one context instance.
  static std::vector<std::string> exactSitesOf(const Solver &S, VarId V) {
    std::vector<std::string> Labels;
    const std::vector<NodeId> &Instances = S.varInstances(V);
    EXPECT_EQ(Instances.size(), 1u);
    if (Instances.empty())
      return Labels;
    for (uint32_t Raw : S.pointsTo(Instances.front()))
      Labels.push_back(
          S.program().symbols().text(S.valueSite(ValueId(Raw)).Label));
    std::sort(Labels.begin(), Labels.end());
    return Labels;
  }

  /// Every pair fired once: \p Bases lists each reaction's base variable,
  /// one entry per reaction, and each has one context instance.
  static void expectEachPairFiredOnce(const Solver &S,
                                      std::initializer_list<VarId> Bases) {
    uint64_t Pairs = 0;
    for (VarId Base : Bases)
      Pairs += S.pointsTo(S.varInstances(Base).front()).size();
    EXPECT_EQ(S.stats().ReactionsRun, Pairs);
  }
};

/// `x` holds its object when the call's reaction is added, but has not
/// been visited, so its first visit fires the reaction.
TEST_F(SolverReplay, UnvisitedValueFiresAtTheVisit) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  // Object get() { p = new Pay; return p; }
  MethodBuilder Get = P.addMethod(A, "get", {}, Object);
  VarId PV = Get.local("p", Pay);
  Get.alloc(PV, Pay).ret(PV);
  // x = new A; r = x.get();
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", A), R = Main.local("r", Object);
  Main.alloc(X, A).virtualCall(R, X, "get", {}, {});

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(exactSitesOf(*S, X), std::vector<std::string>{"A.main/new0"});
  EXPECT_EQ(exactSitesOf(*S, R), std::vector<std::string>{"A.get/new0"});
  EXPECT_EQ(S->callGraphEdges().size(), 1u);
  expectEachPairFiredOnce(*S, {X});
}

TEST_F(SolverReplay, LaterValueFiresAtTheVisit) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  MethodBuilder Get = P.addMethod(A, "get", {}, Object);
  VarId PV = Get.local("p", Pay);
  Get.alloc(PV, Pay).ret(PV);
  // r = x.get(); x = new A;  -- the reaction is added on an empty set.
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", A), R = Main.local("r", Object);
  Main.virtualCall(R, X, "get", {}, {}).alloc(X, A);

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(exactSitesOf(*S, X), std::vector<std::string>{"A.main/new1"});
  EXPECT_EQ(exactSitesOf(*S, R), std::vector<std::string>{"A.get/new0"});
  EXPECT_EQ(S->callGraphEdges().size(), 1u);
  expectEachPairFiredOnce(*S, {X});
}

/// Firing `x = x.next()` wires a callee that returns new objects into `x`
/// itself. They land past the delta being fired, so `x`'s next visit
/// fires the reaction for them.
TEST_F(SolverReplay, ValueArrivingWhileFiringFiresAtTheNextVisit) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId B = P.addClass("B", TypeKind::Class, A);
  TypeId C = P.addClass("C", TypeKind::Class, A);
  // A.next() { t = new B; return t; }
  MethodBuilder NextA = P.addMethod(A, "next", {}, A);
  VarId T = NextA.local("t", B);
  NextA.alloc(T, B).ret(T);
  // B.next() { u = new C; return u; }  -- C inherits A.next.
  MethodBuilder NextB = P.addMethod(B, "next", {}, A);
  VarId U = NextB.local("u", C);
  NextB.alloc(U, C).ret(U);
  // x = new A; x = x.next();
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", A);
  Main.alloc(X, A).virtualCall(X, X, "next", {}, {});

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(exactSitesOf(*S, X),
            (std::vector<std::string>{"A.main/new0", "A.next/new0",
                                      "B.next/new0"}));
  EXPECT_EQ(exactSitesOf(*S, NextA.thisVar()),
            (std::vector<std::string>{"A.main/new0", "B.next/new0"}));
  EXPECT_EQ(exactSitesOf(*S, NextB.thisVar()),
            std::vector<std::string>{"A.next/new0"});
  EXPECT_EQ(S->callGraphEdges().size(), 2u);
  expectEachPairFiredOnce(*S, {X});
}

/// A statement that names another method's variable adds its reaction to
/// that variable's node, which may have been visited already: `y.run()`
/// fires after `x`'s visit, and `B.run`'s body adds `x.get()`, which
/// replays `x`'s visited prefix. Nothing queues `x` again, so without the
/// replay `get` would never be wired.
TEST_F(SolverReplay, ReactionAddedAfterTheVisitReplaysTheVisitedPrefix) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  TypeId B = P.addClass("B", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  MethodBuilder Get = P.addMethod(A, "get", {}, Object);
  VarId PV = Get.local("p", Pay);
  Get.alloc(PV, Pay).ret(PV);
  // x = new A; y = new B; y.run();
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", A), Y = Main.local("y", B);
  // B.run() { r = x.get(); }  -- x is main's.
  MethodBuilder Run = P.addMethod(B, "run", {}, TypeId::invalid());
  VarId R = Run.local("r", Object);
  Run.virtualCall(R, X, "get", {}, {});
  Main.alloc(X, A).alloc(Y, B).virtualCall(VarId::invalid(), Y, "run", {},
                                           {});

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(exactSitesOf(*S, R), std::vector<std::string>{"A.get/new0"});
  EXPECT_EQ(S->callGraphEdges().size(), 2u);
  expectEachPairFiredOnce(*S, {Y, X});
}

/// A reaction added while its base's own delta fires: `x.foo()` fires on
/// `x`'s first visit and wires `A.foo`, whose body adds `x.bar()` to main's
/// `x`. That reaction replays the whole delta in `addReaction`, so the
/// visit's firing loop must not fire it again.
TEST_F(SolverReplay, ReactionAddedDuringTheVisitFiresOnce) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", A);
  P.addMethod(A, "bar", {}, TypeId::invalid());
  // A.foo() { x.bar(); }  -- x is main's.
  MethodBuilder Foo = P.addMethod(A, "foo", {}, TypeId::invalid());
  Foo.virtualCall(VarId::invalid(), X, "bar", {}, {});
  // x = new A; x.foo();
  Main.alloc(X, A).virtualCall(VarId::invalid(), X, "foo", {}, {});

  auto S = analyze(Main.id(), 0, 0);
  EXPECT_EQ(S->callGraphEdges().size(), 2u);
  EXPECT_EQ(S->stats().ReactionsRun, 2u);
  expectEachPairFiredOnce(*S, {X, X});
}

/// A source past the scan limit replays through a new unfiltered edge as
/// one word-wise union, appending in id order; its visit then sends the
/// same values again, and they are refused.
TEST_F(SolverReplay, WideSourceReplaysWordByWord) {
  TypeId A = P.addClass("A", TypeKind::Class, Object);
  MethodBuilder Main = P.addMethod(A, "main", {}, TypeId::invalid(), true);
  VarId X = Main.local("x", A), Y = Main.local("y", A), Z = Main.local("z", A);
  const uint32_t Objects = InsertOrderSet::ScanLimit + 4;
  for (uint32_t I = 0; I != Objects; ++I)
    Main.alloc(X, A);
  // y = x;  -- added after x holds every object.  z = (A) y;  -- filtered.
  Main.move(Y, X).cast(Z, A, Y);

  auto S = analyze(Main.id(), 0, 0);
  const InsertOrderSet &XSet = S->pointsTo(S->varInstances(X).front());
  const InsertOrderSet &YSet = S->pointsTo(S->varInstances(Y).front());
  const InsertOrderSet &ZSet = S->pointsTo(S->varInstances(Z).front());
  EXPECT_EQ(XSet.size(), Objects);
  EXPECT_TRUE(std::equal(XSet.begin(), XSet.end(), YSet.begin(), YSet.end()));
  EXPECT_TRUE(std::is_sorted(YSet.begin(), YSet.end()));
  EXPECT_EQ(ZSet.size(), Objects);
  EXPECT_EQ(exactSitesOf(*S, Z), exactSitesOf(*S, X));
  // The move's replay; x's visit over the move; y's visit over nothing
  // wide (the cast goes value by value).
  EXPECT_EQ(S->stats().WordUnions, 2u);
  EXPECT_EQ(S->stats().WorkItems, 3 * Objects);
}

/// Property sweep: deeper contexts are never less precise on this family of
/// programs (N independent container objects exchanging payloads).
class ContextDepthSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ContextDepthSweep, PrecisionOrder) {
  auto [NumBoxes, K] = GetParam();
  SymbolTable Symbols;
  Program P(Symbols);
  TypeId Object =
      P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  P.addClass("java.lang.String", TypeKind::Class, Object);
  TypeId Box = P.addClass("Box", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId F = P.addField(Box, "f", Object);

  MethodBuilder SetM = P.addMethod(Box, "set", {Object}, TypeId::invalid());
  SetM.store(SetM.thisVar(), F, SetM.param(0));
  MethodBuilder GetM = P.addMethod(Box, "get", {}, Object);
  VarId GT = GetM.local("t", Object);
  GetM.load(GT, GetM.thisVar(), F).ret(GT);

  MethodBuilder Main = P.addMethod(Box, "main", {}, TypeId::invalid(), true);
  std::vector<VarId> Outs;
  for (int I = 0; I != NumBoxes; ++I) {
    VarId B = Main.local("b" + std::to_string(I), Box);
    VarId Pv = Main.local("p" + std::to_string(I), Pay);
    VarId O = Main.local("o" + std::to_string(I), Object);
    Main.alloc(B, Box)
        .alloc(Pv, Pay)
        .virtualCall(VarId::invalid(), B, "set", {Object}, {Pv})
        .virtualCall(O, B, "get", {}, {});
    Outs.push_back(O);
  }
  P.finalize();

  Solver S(P, SolverConfig{static_cast<uint32_t>(K),
                           static_cast<uint32_t>(K > 0 ? 1 : 0)});
  S.makeReachable(Main.id(), S.contexts().empty());
  S.solve();

  for (VarId O : Outs) {
    size_t Count = S.varPointsToSites(O).size();
    if (K == 0)
      EXPECT_EQ(Count, static_cast<size_t>(NumBoxes));
    else
      EXPECT_EQ(Count, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContextDepthSweep,
    ::testing::Combine(::testing::Values(2, 3, 6),
                       ::testing::Values(0, 1, 2)));

} // namespace
