//===- ClientGenerator.h - Seeded random map-client programs ----*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Generates a plain-`main` program over the java.util models from a seed:
// random sequences of map operations (construction, put, get, remove,
// getOrDefault, replace, putAll, values/entrySet iteration), plus the
// payload types each map stored, as ground truth. The soundness sweep
// (`javalib_property_test`) checks that ground truth; the points-to oracle
// (`pointsto_oracle_test`) runs the solver and the Datalog rules over the
// same programs.
//
// `ClientScale::Default` draws the programs the soundness sweep has always
// checked. `ClientScale::Scaled` draws more operations over more payload
// types and maps, so points-to sets grow past the scan-to-bitset switch,
// and adds shapes the map operations never make: an abstract payload root
// with overriding, inheriting and abstract-shadowing `self()` methods,
// static calls through a static field and an array, and exceptions caught
// by ordered catch clauses or escaping to `main`.
//
//===----------------------------------------------------------------------===//

#ifndef JACKEE_TESTS_CLIENTGENERATOR_H
#define JACKEE_TESTS_CLIENTGENERATOR_H

#include "javalib/JavaLibrary.h"

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace jackee {
namespace test {

struct Observation {
  ir::VarId Var;
  uint32_t MapIndex; ///< which generated map this read observes
  const char *What;  ///< op name, for diagnostics
};

/// A generated client program plus its ground truth.
struct GeneratedClient {
  SymbolTable Symbols;
  std::unique_ptr<ir::Program> P;
  javalib::JavaLib L;
  ir::MethodId Main;
  /// Per generated map: the payload type names stored into it (transitively,
  /// i.e. putAll merges source into destination).
  std::vector<std::vector<std::string>> StoredTypes;
  std::vector<Observation> Observations;
};

/// The size and shape of a generated program.
struct ClientScale {
  uint32_t Payloads;
  uint32_t MaxMaps;
  uint32_t MinOps, OpSpread; ///< MinOps + Rng() % OpSpread operations
  bool ExtraShapes;          ///< dispatch, static and exception shapes

  static constexpr ClientScale defaultScale() { return {5, 4, 6, 12, false}; }
  static constexpr ClientScale scaled() { return {12, 8, 60, 60, true}; }
};

/// Deterministically generates a random map-client program.
inline std::unique_ptr<GeneratedClient>
generate(uint32_t Seed, bool SoundModulo,
         ClientScale Scale = ClientScale::defaultScale()) {
  using namespace ir;
  std::mt19937 Rng(Seed);
  auto Client = std::make_unique<GeneratedClient>();
  Client->P = std::make_unique<Program>(Client->Symbols);
  Program &P = *Client->P;
  Client->L = javalib::buildJavaLibrary(
      P, SoundModulo ? javalib::CollectionModel::SoundModulo
                     : javalib::CollectionModel::OriginalJdk8);
  const javalib::JavaLib &L = Client->L;

  // Payload type pool. With the extra shapes, payloads descend from an
  // abstract root declaring `self()`: even payloads override it, every
  // fifth re-declares it abstract, and the rest inherit their parent's.
  TypeId Root = L.Object;
  if (Scale.ExtraShapes) {
    Root = P.addClass("gen.Root", TypeKind::Class, L.Object, {}, true, true);
    P.addMethod(Root, "self", {}, L.Object, false, /*IsAbstract=*/true);
  }
  std::vector<TypeId> Payloads;
  std::vector<MethodId> PayloadInits;
  for (uint32_t I = 0; I != Scale.Payloads; ++I) {
    TypeId Super = Scale.ExtraShapes && I % 3 != 0 ? Payloads[I - 1] : Root;
    TypeId T = P.addClass("gen.Payload" + std::to_string(I), TypeKind::Class,
                          Super, {}, false, true);
    Payloads.push_back(T);
    PayloadInits.push_back(
        P.addMethod(T, "<init>", {}, TypeId::invalid()).id());
    if (!Scale.ExtraShapes)
      continue;
    if (I % 5 == 4) {
      P.addMethod(T, "self", {}, L.Object, false, /*IsAbstract=*/true);
    } else if (I % 2 == 0) {
      MethodBuilder Self = P.addMethod(T, "self", {}, L.Object);
      Self.ret(Self.thisVar());
    }
  }

  TypeId AppTy =
      P.addClass("gen.Main", TypeKind::Class, L.Object, {}, false, true);
  MethodBuilder MB = P.addMethod(AppTy, "main", {}, TypeId::invalid(), true);
  Client->Main = MB.id();

  // Static helpers of the extra shapes:
  //   static Object pass(Object o) {
  //     Main.cell = o; t = Main.cell; a = new Object[]; a[*] = t;
  //     r = (Root) a[*]; return r;
  //   }
  //   static void raise(Object o) {  // catch (ErrB b)
  //     x = new ErrA; y = new ErrB; throw x; throw y; throw o;
  //   }
  //   static void risky(Object o) { raise(o); }  // catch (ErrA a)
  // and `main`'s own catch clauses, in a drawn order.
  MethodId Pass, Risky;
  TypeId ErrA, ErrB;
  if (Scale.ExtraShapes) {
    ErrA = P.addClass("gen.ErrA", TypeKind::Class, L.RuntimeException, {},
                      false, true);
    ErrB = P.addClass("gen.ErrB", TypeKind::Class, ErrA, {}, false, true);
    FieldId Cell = P.addField(AppTy, "cell", L.Object, /*IsStatic=*/true);
    TypeId ObjectArray = P.addArrayType(L.Object);

    MethodBuilder PassB =
        P.addMethod(AppTy, "pass", {L.Object}, L.Object, true);
    VarId T = PassB.local("t", L.Object), A = PassB.local("a", ObjectArray);
    VarId E = PassB.local("e", L.Object), R = PassB.local("r", Root);
    PassB.staticStore(Cell, PassB.param(0))
        .staticLoad(T, Cell)
        .alloc(A, ObjectArray)
        .arrayStore(A, T)
        .arrayLoad(E, A)
        .cast(R, Root, E)
        .ret(R);
    Pass = PassB.id();

    MethodBuilder Raise =
        P.addMethod(AppTy, "raise", {L.Object}, TypeId::invalid(), true);
    VarId X = Raise.local("x", ErrA), Y = Raise.local("y", ErrB);
    VarId Caught = Raise.local("b", ErrB);
    Raise.alloc(X, ErrA)
        .alloc(Y, ErrB)
        .throwStmt(X)
        .throwStmt(Y)
        .throwStmt(Raise.param(0))
        .catchClause(ErrB, Caught);

    MethodBuilder RiskyB =
        P.addMethod(AppTy, "risky", {L.Object}, TypeId::invalid(), true);
    VarId RiskyCaught = RiskyB.local("a", ErrA);
    RiskyB.staticCall(VarId::invalid(), Raise.id(), {RiskyB.param(0)})
        .catchClause(ErrA, RiskyCaught);
    Risky = RiskyB.id();

    std::vector<TypeId> Handlers = {ErrA, L.RuntimeException, Root,
                                    Payloads[Scale.Payloads / 2]};
    for (size_t I = Handlers.size(); I > 1; --I)
      std::swap(Handlers[I - 1], Handlers[Rng() % I]);
    for (size_t I = 0; I != Handlers.size(); ++I)
      MB.catchClause(Handlers[I],
                     MB.local("caught" + std::to_string(I), Handlers[I]));
  }

  struct MapInfo {
    VarId Var;
    uint32_t Index;
  };
  std::vector<MapInfo> Maps;
  // putAll edges recorded during generation, merged into ground truth at
  // the end (flow-insensitively, the destination absorbs the source's
  // *final* contents).
  std::vector<std::pair<uint32_t, uint32_t>> PutAllEdges;
  uint32_t Fresh = 0;
  auto freshName = [&](const char *Prefix) {
    return std::string(Prefix) + std::to_string(Fresh++);
  };

  auto newMap = [&] {
    int Kind = static_cast<int>(Rng() % 3);
    TypeId MapTy = Kind == 0   ? L.HashMap
                   : Kind == 1 ? L.LinkedHashMap
                               : L.ConcurrentHashMap;
    MethodId Init = Kind == 0   ? L.HashMapInit
                    : Kind == 1 ? L.LinkedHashMapInit
                                : L.ConcurrentHashMapInit;
    VarId M = MB.local(freshName("m"), MapTy);
    MB.alloc(M, MapTy).specialCall(VarId::invalid(), M, Init, {});
    Maps.push_back({M, static_cast<uint32_t>(Client->StoredTypes.size())});
    Client->StoredTypes.emplace_back();
    return Maps.back();
  };
  newMap(); // at least one map

  auto randomMap = [&]() -> MapInfo & { return Maps[Rng() % Maps.size()]; };
  /// got = m.get(k) on a random map, as an observation of that map.
  auto readMap = [&](const char *Prefix) {
    MapInfo &M = randomMap();
    VarId K = MB.local(freshName("k"), L.String);
    VarId Got = MB.local(freshName(Prefix), L.Object);
    MB.stringConst(K, "probe").virtualCall(Got, M.Var, "get", {L.Object}, {K});
    Client->Observations.push_back({Got, M.Index, "get"});
    return Got;
  };

  uint32_t Ops = Scale.MinOps + Rng() % Scale.OpSpread;
  for (uint32_t Op = 0; Op != Ops; ++Op) {
    switch (Rng() % (Scale.ExtraShapes ? 12 : 9)) {
    case 0:
      if (Maps.size() < Scale.MaxMaps)
        newMap();
      break;
    case 1: { // put(k, payload)
      MapInfo &M = randomMap();
      uint32_t PIdx = Rng() % Payloads.size();
      VarId K = MB.local(freshName("k"), L.String);
      VarId V = MB.local(freshName("v"), Payloads[PIdx]);
      MB.stringConst(K, freshName("key"))
          .alloc(V, Payloads[PIdx])
          .specialCall(VarId::invalid(), V, PayloadInits[PIdx], {})
          .virtualCall(VarId::invalid(), M.Var, "put", {L.Object, L.Object},
                       {K, V});
      Client->StoredTypes[M.Index].push_back(
          "gen.Payload" + std::to_string(PIdx));
      break;
    }
    case 2: // got = get(k)
      readMap("got");
      break;
    case 3: { // got = getOrDefault(k, k)
      MapInfo &M = randomMap();
      VarId K = MB.local(freshName("k"), L.String);
      VarId Got = MB.local(freshName("god"), L.Object);
      MB.stringConst(K, "probe")
          .virtualCall(Got, M.Var, "getOrDefault", {L.Object, L.Object},
                       {K, K});
      Client->Observations.push_back({Got, M.Index, "getOrDefault"});
      break;
    }
    case 4: { // got = remove(k)
      MapInfo &M = randomMap();
      VarId K = MB.local(freshName("k"), L.String);
      VarId Got = MB.local(freshName("rm"), L.Object);
      MB.stringConst(K, "probe")
          .virtualCall(Got, M.Var, "remove", {L.Object}, {K});
      Client->Observations.push_back({Got, M.Index, "remove"});
      break;
    }
    case 5: { // values iterator
      MapInfo &M = randomMap();
      VarId Vs = MB.local(freshName("vs"), L.Collection);
      VarId It = MB.local(freshName("it"), L.Iterator);
      VarId E = MB.local(freshName("e"), L.Object);
      MB.virtualCall(Vs, M.Var, "values", {}, {})
          .virtualCall(It, Vs, "iterator", {}, {})
          .virtualCall(E, It, "next", {}, {});
      Client->Observations.push_back({E, M.Index, "values-iterator"});
      break;
    }
    case 6: { // entrySet iterator -> getValue
      MapInfo &M = randomMap();
      VarId Es = MB.local(freshName("es"), L.Set);
      VarId It = MB.local(freshName("eit"), L.Iterator);
      VarId En = MB.local(freshName("en"), L.Object);
      VarId Me = MB.local(freshName("me"), L.MapEntry);
      VarId V = MB.local(freshName("ev"), L.Object);
      MB.virtualCall(Es, M.Var, "entrySet", {}, {})
          .virtualCall(It, Es, "iterator", {}, {})
          .virtualCall(En, It, "next", {}, {})
          .cast(Me, L.MapEntry, En)
          .virtualCall(V, Me, "getValue", {}, {});
      Client->Observations.push_back({V, M.Index, "entry-getValue"});
      break;
    }
    case 7: { // putAll(dst, src): dst's ground truth absorbs src's
      if (Maps.size() < 2)
        break;
      MapInfo &Dst = randomMap();
      MapInfo &Src = randomMap();
      if (Dst.Index == Src.Index)
        break;
      MB.virtualCall(VarId::invalid(), Dst.Var, "putAll", {L.Map},
                     {Src.Var});
      // Flow-insensitive analysis has no order, so absorbing Src's FINAL
      // contents is exactly right; merged at the end.
      PutAllEdges.push_back({Dst.Index, Src.Index});
      break;
    }
    case 8: { // old = replace("probe", payload)
      // Dynamically this stores NOTHING: the "probe" key is never inserted,
      // and Java's replace() is a no-op on absent keys. It still yields an
      // observation of the old value (the analysis may over-approximate the
      // store — that is allowed — but must still observe everything put).
      MapInfo &M = randomMap();
      uint32_t PIdx = Rng() % Payloads.size();
      VarId K = MB.local(freshName("k"), L.String);
      VarId V = MB.local(freshName("v"), Payloads[PIdx]);
      VarId Old = MB.local(freshName("old"), L.Object);
      MB.stringConst(K, "probe")
          .alloc(V, Payloads[PIdx])
          .specialCall(VarId::invalid(), V, PayloadInits[PIdx], {})
          .virtualCall(Old, M.Var, "replace", {L.Object, L.Object}, {K, V});
      Client->Observations.push_back({Old, M.Index, "replace"});
      break;
    }
    case 9: { // s = ((Root) get(k)).self()
      VarId Got = readMap("sg");
      VarId R = MB.local(freshName("r"), Root);
      VarId S = MB.local(freshName("s"), L.Object);
      MB.cast(R, Root, Got).virtualCall(S, R, "self", {}, {});
      break;
    }
    case 10: { // p = pass(get(k))
      VarId Got = readMap("pg");
      MB.staticCall(MB.local(freshName("p"), Root), Pass, {Got});
      break;
    }
    default: // risky(get(k))
      MB.staticCall(VarId::invalid(), Risky, {readMap("rg")});
      break;
    }
  }

  // Resolve putAll reachability (transitively) into ground truth.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto [Dst, Src] : PutAllEdges)
      for (const std::string &T : Client->StoredTypes[Src])
        if (std::find(Client->StoredTypes[Dst].begin(),
                      Client->StoredTypes[Dst].end(),
                      T) == Client->StoredTypes[Dst].end()) {
          Client->StoredTypes[Dst].push_back(T);
          Changed = true;
        }
  }

  P.finalize();
  return Client;
}

} // namespace test
} // namespace jackee

#endif // JACKEE_TESTS_CLIENTGENERATOR_H
