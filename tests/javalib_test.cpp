//===- javalib_test.cpp - Library model tests ------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Validates the paper's Section 4 claims on our models:
//  - sound-modulo-analysis parity: every client-visible flow (values out of
//    get/iterators/forEach, exceptions) that the original model produces is
//    also produced by the simplified model;
//  - the original model is never more precise and is strictly less precise /
//    more expensive in layered (cache-like) scenarios.
//
//===----------------------------------------------------------------------===//

#include "javalib/JavaLibrary.h"
#include "pointsto/Solver.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::javalib;
using namespace jackee::pointsto;

namespace {

/// Which map class a scenario exercises.
enum class MapKind { HashMap, LinkedHashMap, ConcurrentHashMap };

struct Scenario {
  SymbolTable Symbols;
  std::unique_ptr<Program> P;
  JavaLib L;
  MethodId Main;
  // Interesting variables, filled by builders below.
  VarId GetResult, IterKey, IterValue, EntryValue, CaughtVar, CifResult;
  MethodId ConsumerAccept;
  VarId ConsumerParam;

  std::unique_ptr<Solver> run(uint32_t K, uint32_t H) {
    P->finalize();
    auto S = std::make_unique<Solver>(*P, SolverConfig{K, H});
    S->makeReachable(Main, S->contexts().empty());
    S->solve();
    return S;
  }
};

TypeId mapType(const JavaLib &L, MapKind Kind) {
  switch (Kind) {
  case MapKind::HashMap:
    return L.HashMap;
  case MapKind::LinkedHashMap:
    return L.LinkedHashMap;
  case MapKind::ConcurrentHashMap:
    return L.ConcurrentHashMap;
  }
  return L.HashMap;
}

MethodId mapInit(const JavaLib &L, MapKind Kind) {
  switch (Kind) {
  case MapKind::HashMap:
    return L.HashMapInit;
  case MapKind::LinkedHashMap:
    return L.LinkedHashMapInit;
  case MapKind::ConcurrentHashMap:
    return L.ConcurrentHashMapInit;
  }
  return L.HashMapInit;
}

/// Builds: one map, one put(k, v), then every read idiom the tests check.
std::unique_ptr<Scenario> buildClientScenario(bool SoundModulo,
                                              MapKind Kind) {
  auto Sc = std::make_unique<Scenario>();
  Sc->P = std::make_unique<Program>(Sc->Symbols);
  Program &P = *Sc->P;
  Sc->L = buildJavaLibrary(P, SoundModulo ? CollectionModel::SoundModulo
                                        : CollectionModel::OriginalJdk8);
  const JavaLib &L = Sc->L;

  TypeId Key = P.addClass("app.Key", TypeKind::Class, L.Object, {}, false,
                          /*IsApplication=*/true);
  TypeId Val = P.addClass("app.Val", TypeKind::Class, L.Object, {}, false,
                          true);

  // app.PrintConsumer implements Consumer: accept(o) records its argument.
  TypeId ConsTy = P.addClass("app.PrintConsumer", TypeKind::Class, L.Object,
                             {L.Consumer}, false, true);
  MethodId ConsInit = P.addMethod(ConsTy, "<init>", {}, TypeId::invalid()).id();
  {
    MethodBuilder MB =
        P.addMethod(ConsTy, "accept", {L.Object}, TypeId::invalid());
    Sc->ConsumerAccept = MB.id();
    Sc->ConsumerParam = MB.param(0);
  }

  // app.ValueFactory implements Function: apply(o) returns a fresh Val.
  TypeId FacTy = P.addClass("app.ValueFactory", TypeKind::Class, L.Object,
                            {L.Function}, false, true);
  MethodId FacInit = P.addMethod(FacTy, "<init>", {}, TypeId::invalid()).id();
  {
    MethodBuilder MB = P.addMethod(FacTy, "apply", {L.Object}, L.Object);
    VarId V = MB.local("v", Val);
    MB.alloc(V, Val).ret(V);
  }

  TypeId MapTy = mapType(L, Kind);
  TypeId AppTy = P.addClass("app.Main", TypeKind::Class, L.Object, {}, false,
                            true);
  MethodBuilder MB =
      P.addMethod(AppTy, "main", {}, TypeId::invalid(), /*IsStatic=*/true);
  Sc->Main = MB.id();

  VarId M = MB.local("m", MapTy);
  VarId K = MB.local("k", Key);
  VarId V = MB.local("v", Val);
  MB.alloc(M, MapTy)
      .specialCall(VarId::invalid(), M, mapInit(L, Kind), {})
      .alloc(K, Key)
      .alloc(V, Val)
      .virtualCall(VarId::invalid(), M, "put", {L.Object, L.Object}, {K, V});

  // get
  Sc->GetResult = MB.local("got", L.Object);
  MB.virtualCall(Sc->GetResult, M, "get", {L.Object}, {K});

  // keySet iterator
  VarId Ks = MB.local("ks", L.Set);
  VarId KIt = MB.local("kit", L.Iterator);
  Sc->IterKey = MB.local("ikey", L.Object);
  MB.virtualCall(Ks, M, "keySet", {}, {})
      .virtualCall(KIt, Ks, "iterator", {}, {})
      .virtualCall(Sc->IterKey, KIt, "next", {}, {});

  // values iterator
  VarId Vs = MB.local("vs", L.Collection);
  VarId VIt = MB.local("vit", L.Iterator);
  Sc->IterValue = MB.local("ival", L.Object);
  MB.virtualCall(Vs, M, "values", {}, {})
      .virtualCall(VIt, Vs, "iterator", {}, {})
      .virtualCall(Sc->IterValue, VIt, "next", {}, {});

  // entrySet iterator -> Map$Entry.getValue()
  VarId Es = MB.local("es", L.Set);
  VarId EIt = MB.local("eit", L.Iterator);
  VarId Entry = MB.local("entry", L.Object);
  VarId EntryCast = MB.local("entryCast", L.MapEntry);
  Sc->EntryValue = MB.local("eval", L.Object);
  MB.virtualCall(Es, M, "entrySet", {}, {})
      .virtualCall(EIt, Es, "iterator", {}, {})
      .virtualCall(Entry, EIt, "next", {}, {})
      .cast(EntryCast, L.MapEntry, Entry)
      .virtualCall(Sc->EntryValue, EntryCast, "getValue", {}, {});

  // keySet().forEach(consumer)
  VarId Cons = MB.local("cons", ConsTy);
  MB.alloc(Cons, ConsTy)
      .specialCall(VarId::invalid(), Cons, ConsInit, {})
      .virtualCall(VarId::invalid(), Ks, "forEach", {L.Consumer}, {Cons});

  // computeIfAbsent with a factory
  VarId Fac = MB.local("fac", FacTy);
  Sc->CifResult = MB.local("cif", L.Object);
  MB.alloc(Fac, FacTy)
      .specialCall(VarId::invalid(), Fac, FacInit, {})
      .virtualCall(Sc->CifResult, M, "computeIfAbsent", {L.Object, L.Function},
                   {K, Fac});

  // The exceptions thrown inside the library escape to main's catch.
  Sc->CaughtVar = MB.local("caught", L.RuntimeException);
  MB.catchClause(L.RuntimeException, Sc->CaughtVar);

  return Sc;
}

/// Distinct types pointed to by \p V, as names.
std::vector<std::string> typeNamesOf(const Solver &S, VarId V) {
  InsertOrderSet Types;
  for (AllocSiteId Site : S.varPointsToSites(V))
    Types.insert(S.program().allocSite(Site).ObjectType.rawValue());
  std::vector<std::string> Names;
  for (uint32_t Raw : Types)
    Names.push_back(
        S.program().symbols().text(S.program().type(TypeId(Raw)).Name));
  std::sort(Names.begin(), Names.end());
  return Names;
}

bool pointsToType(const Solver &S, VarId V, std::string_view TypeName) {
  for (const std::string &Name : typeNamesOf(S, V))
    if (Name == TypeName)
      return true;
  return false;
}

/// Sweep over {mode} x {map kind} x {context config}.
struct ClientCase {
  bool SoundModulo;
  MapKind Kind;
  uint32_t K, H;
};

/// Names the case for gtest and ctest, which would otherwise print its raw
/// bytes, padding included.
void PrintTo(const ClientCase &C, std::ostream *OS) {
  static const char *const KindNames[] = {"HashMap", "LinkedHashMap",
                                          "ConcurrentHashMap"};
  *OS << (C.SoundModulo ? "SoundModulo" : "Original")
      << KindNames[static_cast<int>(C.Kind)] << "K" << C.K << "H" << C.H;
}

class MapClientTest : public ::testing::TestWithParam<ClientCase> {};

TEST_P(MapClientTest, ClientVisibleFlowsPresent) {
  ClientCase C = GetParam();
  auto Sc = buildClientScenario(C.SoundModulo, C.Kind);
  auto S = Sc->run(C.K, C.H);

  // get / values-iterator / entry.getValue / computeIfAbsent see the value.
  EXPECT_TRUE(pointsToType(*S, Sc->GetResult, "app.Val"));
  EXPECT_TRUE(pointsToType(*S, Sc->IterValue, "app.Val"));
  EXPECT_TRUE(pointsToType(*S, Sc->EntryValue, "app.Val"));
  EXPECT_TRUE(pointsToType(*S, Sc->CifResult, "app.Val"));

  // keySet iterator sees the key.
  EXPECT_TRUE(pointsToType(*S, Sc->IterKey, "app.Key"));

  // forEach reaches the application consumer with the key.
  EXPECT_TRUE(S->isMethodReachable(Sc->ConsumerAccept));
  EXPECT_TRUE(pointsToType(*S, Sc->ConsumerParam, "app.Key"));

  // Library exceptions escape to the caller: both the iteration guard and
  // the argument guard of forEach (paper: models preserve all exceptions).
  EXPECT_TRUE(pointsToType(*S, Sc->CaughtVar,
                           "java.util.ConcurrentModificationException"));
  EXPECT_TRUE(
      pointsToType(*S, Sc->CaughtVar, "java.lang.NullPointerException"));
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, MapClientTest,
    ::testing::Values(
        ClientCase{false, MapKind::HashMap, 0, 0},
        ClientCase{false, MapKind::HashMap, 2, 1},
        ClientCase{true, MapKind::HashMap, 0, 0},
        ClientCase{true, MapKind::HashMap, 2, 1},
        ClientCase{false, MapKind::LinkedHashMap, 2, 1},
        ClientCase{true, MapKind::LinkedHashMap, 2, 1},
        ClientCase{false, MapKind::ConcurrentHashMap, 2, 1},
        ClientCase{true, MapKind::ConcurrentHashMap, 2, 1}));

TEST(JavaLibTest, TreeNodeExistsOnlyInOriginal) {
  {
    SymbolTable Symbols;
    Program P(Symbols);
    buildJavaLibrary(P, CollectionModel::OriginalJdk8);
    EXPECT_TRUE(P.findType("java.util.HashMap$TreeNode").isValid());
    EXPECT_TRUE(
        P.findType("java.util.concurrent.ConcurrentHashMap$TreeBin")
            .isValid());
    EXPECT_TRUE(P.findType("java.util.HashMap$Node[]").isValid());
  }
  {
    SymbolTable Symbols;
    Program P(Symbols);
    buildJavaLibrary(P, CollectionModel::SoundModulo);
    EXPECT_FALSE(P.findType("java.util.HashMap$TreeNode").isValid());
    EXPECT_FALSE(
        P.findType("java.util.concurrent.ConcurrentHashMap$TreeBin")
            .isValid());
    EXPECT_FALSE(P.findType("java.util.HashMap$Node[]").isValid());
    // But the structure survives.
    EXPECT_TRUE(P.findType("java.util.HashMap$Node").isValid());
    EXPECT_TRUE(P.findType("java.util.HashMap$KeySet").isValid());
  }
}

TEST(JavaLibTest, LinkedHashMapIsAHashMap) {
  SymbolTable Symbols;
  Program P(Symbols);
  JavaLib L = buildJavaLibrary(P, CollectionModel::OriginalJdk8);
  P.finalize();
  EXPECT_TRUE(P.isSubtype(L.LinkedHashMap, L.HashMap));
  EXPECT_TRUE(P.isSubtype(L.LinkedHashMap, L.Map));
  EXPECT_TRUE(P.isSubtype(L.ConcurrentHashMap, L.Map));
  EXPECT_TRUE(P.isSubtype(L.ArrayList, L.List));
  EXPECT_TRUE(P.isSubtype(L.ArrayList, L.Collection));
  EXPECT_TRUE(P.isSubtype(L.ArrayList, L.Iterable));
}

TEST(JavaLibTest, ArrayListRoundTrip) {
  SymbolTable Symbols;
  Program P(Symbols);
  JavaLib L = buildJavaLibrary(P, CollectionModel::SoundModulo);
  TypeId Item = P.addClass("app.Item", TypeKind::Class, L.Object, {}, false,
                           true);
  TypeId AppTy =
      P.addClass("app.Main", TypeKind::Class, L.Object, {}, false, true);
  TypeId IntTy = P.findType("int");
  MethodBuilder MB = P.addMethod(AppTy, "main", {}, TypeId::invalid(), true);
  VarId Lst = MB.local("lst", L.ArrayList);
  VarId It = MB.local("it", L.Iterator);
  VarId X = MB.local("x", Item);
  VarId ByGet = MB.local("g", L.Object);
  VarId ByIter = MB.local("i", L.Object);
  MB.alloc(Lst, L.ArrayList)
      .specialCall(VarId::invalid(), Lst, L.ArrayListInit, {})
      .alloc(X, Item)
      .virtualCall(VarId::invalid(), Lst, "add", {L.Object}, {X})
      .virtualCall(ByGet, Lst, "get", {IntTy}, {VarId::invalid()})
      .virtualCall(It, Lst, "iterator", {}, {})
      .virtualCall(ByIter, It, "next", {}, {});
  P.finalize();

  Solver S(P, SolverConfig{2, 1});
  S.makeReachable(MB.id(), S.contexts().empty());
  S.solve();
  EXPECT_TRUE(pointsToType(S, ByGet, "app.Item"));
  EXPECT_TRUE(pointsToType(S, ByIter, "app.Item"));
}

/// Layered "cache" scenario: maps are allocated one level deep (inside an
/// application Cache class), which is where the TreeNode double dispatch
/// starts dropping client-distinguishing context (paper Section 4).
struct LayeredScenario {
  SymbolTable Symbols;
  std::unique_ptr<Program> P;
  JavaLib L;
  MethodId Main;
  VarId X1, X2; ///< get results of the two caches
};

std::unique_ptr<LayeredScenario> buildLayered(bool SoundModulo) {
  auto Sc = std::make_unique<LayeredScenario>();
  Sc->P = std::make_unique<Program>(Sc->Symbols);
  Program &P = *Sc->P;
  Sc->L = buildJavaLibrary(P, SoundModulo ? CollectionModel::SoundModulo
                                        : CollectionModel::OriginalJdk8);
  const JavaLib &L = Sc->L;

  TypeId V1 = P.addClass("app.V1", TypeKind::Class, L.Object, {}, false, true);
  TypeId V2 = P.addClass("app.V2", TypeKind::Class, L.Object, {}, false, true);

  TypeId Cache =
      P.addClass("app.Cache", TypeKind::Class, L.Object, {}, false, true);
  FieldId MapF = P.addField(Cache, "m", L.Map);
  MethodBuilder Init = P.addMethod(Cache, "<init>", {}, TypeId::invalid());
  {
    VarId M = Init.local("m", L.HashMap);
    Init.alloc(M, L.HashMap)
        .specialCall(VarId::invalid(), M, L.HashMapInit, {})
        .store(Init.thisVar(), MapF, M);
  }
  MethodBuilder PutM =
      P.addMethod(Cache, "put", {L.Object, L.Object}, TypeId::invalid());
  {
    VarId M = PutM.local("m", L.Map);
    PutM.load(M, PutM.thisVar(), MapF)
        .virtualCall(VarId::invalid(), M, "put", {L.Object, L.Object},
                     {PutM.param(0), PutM.param(1)});
  }
  MethodBuilder GetM = P.addMethod(Cache, "get", {L.Object}, L.Object);
  {
    VarId M = GetM.local("m", L.Map);
    VarId R = GetM.local("r", L.Object);
    GetM.load(M, GetM.thisVar(), MapF)
        .virtualCall(R, M, "get", {L.Object}, {GetM.param(0)})
        .ret(R);
  }

  TypeId AppTy =
      P.addClass("app.Main", TypeKind::Class, L.Object, {}, false, true);
  MethodBuilder MB = P.addMethod(AppTy, "main", {}, TypeId::invalid(), true);
  Sc->Main = MB.id();
  VarId C1 = MB.local("c1", Cache), C2 = MB.local("c2", Cache);
  VarId K1 = MB.local("k1", L.Object), K2 = MB.local("k2", L.Object);
  VarId P1 = MB.local("p1", V1), P2 = MB.local("p2", V2);
  Sc->X1 = MB.local("x1", L.Object);
  Sc->X2 = MB.local("x2", L.Object);
  MB.alloc(C1, Cache)
      .specialCall(VarId::invalid(), C1, Init.id(), {})
      .alloc(C2, Cache)
      .specialCall(VarId::invalid(), C2, Init.id(), {})
      .alloc(K1, L.Object)
      .alloc(K2, L.Object)
      .alloc(P1, V1)
      .alloc(P2, V2)
      .virtualCall(VarId::invalid(), C1, "put", {L.Object, L.Object},
                   {K1, P1})
      .virtualCall(VarId::invalid(), C2, "put", {L.Object, L.Object},
                   {K2, P2})
      .virtualCall(Sc->X1, C1, "get", {L.Object}, {K1})
      .virtualCall(Sc->X2, C2, "get", {L.Object}, {K2});
  return Sc;
}

size_t appValueCount(const Solver &S, VarId V) {
  size_t Count = 0;
  for (AllocSiteId Site : S.varPointsToSites(V)) {
    TypeId T = S.program().allocSite(Site).ObjectType;
    const std::string &Name =
        S.program().symbols().text(S.program().type(T).Name);
    if (Name == "app.V1" || Name == "app.V2")
      ++Count;
  }
  return Count;
}

TEST(JavaLibTest, SimplifiedNeverLessPreciseThanOriginal2objH) {
  auto Orig = buildLayered(false);
  Orig->P->finalize();
  Solver SO(*Orig->P, SolverConfig{2, 1});
  SO.makeReachable(Orig->Main, SO.contexts().empty());
  SO.solve();

  auto Simp = buildLayered(true);
  Simp->P->finalize();
  Solver SS(*Simp->P, SolverConfig{2, 1});
  SS.makeReachable(Simp->Main, SS.contexts().empty());
  SS.solve();

  // Soundness: both see the stored value.
  EXPECT_GE(appValueCount(SO, Orig->X1), 1u);
  EXPECT_GE(appValueCount(SS, Simp->X1), 1u);
  // The simplified model is at least as precise on the client result...
  EXPECT_LE(appValueCount(SS, Simp->X1), appValueCount(SO, Orig->X1));
  EXPECT_LE(appValueCount(SS, Simp->X2), appValueCount(SO, Orig->X2));
}

TEST(JavaLibTest, SimplifiedIsCheaperUnder2objH) {
  auto Orig = buildLayered(false);
  Orig->P->finalize();
  Solver SO(*Orig->P, SolverConfig{2, 1});
  SO.makeReachable(Orig->Main, SO.contexts().empty());
  SO.solve();

  auto Simp = buildLayered(true);
  Simp->P->finalize();
  Solver SS(*Simp->P, SolverConfig{2, 1});
  SS.makeReachable(Simp->Main, SS.contexts().empty());
  SS.solve();

  // The whole point of the rewrite: drastically less analysis work on the
  // same client code.
  EXPECT_LT(SS.stats().WorkItems, SO.stats().WorkItems);
  EXPECT_LT(SS.varPointsToTuplesTotal(), SO.varPointsToTuplesTotal());
  // And specifically less java.util work.
  EXPECT_LT(SS.varPointsToTuples("java.util"),
            SO.varPointsToTuples("java.util"));
}

} // namespace

namespace {

TEST(JavaLibTest, NoTreeNodeAblationModeOrdering) {
  // The ablation collection model sits strictly between the original and
  // the full rewrite in analysis cost on the layered cache scenario.
  auto runWith = [](bool SoundModulo) {
    auto Sc = buildLayered(SoundModulo);
    Sc->P->finalize();
    Solver S(*Sc->P, SolverConfig{2, 1});
    S.makeReachable(Sc->Main, S.contexts().empty());
    S.solve();
    return S.stats().WorkItems;
  };
  // Original (TreeNodes on) from the existing helper:
  uint64_t Orig = runWith(false);
  uint64_t Simp = runWith(true);

  // NoTreeNodes variant built explicitly.
  SymbolTable Symbols;
  Program P(Symbols);
  JavaLib L = buildJavaLibrary(
      P, jackee::javalib::CollectionModel::OriginalNoTreeNodes);
  EXPECT_TRUE(P.findType("java.util.HashMap$TreeNode").isValid())
      << "class still present, only the paths are gone";
  TypeId AppTy =
      P.addClass("app.Main", TypeKind::Class, L.Object, {}, false, true);
  MethodBuilder MB = P.addMethod(AppTy, "main", {}, TypeId::invalid(), true);
  VarId M = MB.local("m", L.HashMap);
  VarId K = MB.local("k", L.String);
  VarId V = MB.local("v", L.Object);
  MB.alloc(M, L.HashMap)
      .specialCall(VarId::invalid(), M, L.HashMapInit, {})
      .stringConst(K, "k")
      .virtualCall(VarId::invalid(), M, "put", {L.Object, L.Object}, {K, K})
      .virtualCall(V, M, "get", {L.Object}, {K});
  P.finalize();
  Solver S(P, SolverConfig{2, 1});
  S.makeReachable(MB.id(), S.contexts().empty());
  S.solve();
  // TreeNode methods never run in this mode.
  TypeId TreeNode = P.findType("java.util.HashMap$TreeNode");
  for (MethodId TM : P.type(TreeNode).Methods)
    EXPECT_FALSE(S.isMethodReachable(TM))
        << P.qualifiedName(TM) << " must be unreachable without tree paths";
  // And the client-visible result is still sound.
  EXPECT_TRUE(pointsToType(S, V, "java.lang.String"));
  EXPECT_LT(Simp, Orig); // sanity on the two endpoints
}

} // namespace
