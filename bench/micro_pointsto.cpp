//===- micro_pointsto.cpp - Points-to solver microbenchmarks ---------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// google-benchmark suite for the solver core: propagation throughput on
// container-heavy programs under each context configuration, and context
// interning.
//
//===----------------------------------------------------------------------===//

#include "javalib/JavaLibrary.h"
#include "pointsto/Solver.h"

#include <benchmark/benchmark.h>

#include <memory>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;

namespace {

/// N box objects exchanging payloads through set/get — the canonical
/// object-sensitivity workload.
struct BoxProgram {
  SymbolTable Symbols;
  std::unique_ptr<Program> P;
  MethodId Main;
};

std::unique_ptr<BoxProgram> makeBoxProgram(int Boxes) {
  auto BP = std::make_unique<BoxProgram>();
  BP->P = std::make_unique<Program>(BP->Symbols);
  Program &P = *BP->P;
  TypeId Object =
      P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  P.addClass("java.lang.String", TypeKind::Class, Object);
  TypeId Box = P.addClass("Box", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId F = P.addField(Box, "f", Object);

  MethodBuilder SetM = P.addMethod(Box, "set", {Object}, TypeId::invalid());
  SetM.store(SetM.thisVar(), F, SetM.param(0));
  MethodBuilder GetM = P.addMethod(Box, "get", {}, Object);
  VarId T = GetM.local("t", Object);
  GetM.load(T, GetM.thisVar(), F).ret(T);

  MethodBuilder Main = P.addMethod(Box, "main", {}, TypeId::invalid(), true);
  for (int I = 0; I != Boxes; ++I) {
    VarId B = Main.local("b" + std::to_string(I), Box);
    VarId Pv = Main.local("p" + std::to_string(I), Pay);
    VarId O = Main.local("o" + std::to_string(I), Object);
    Main.alloc(B, Box)
        .alloc(Pv, Pay)
        .virtualCall(VarId::invalid(), B, "set", {Object}, {Pv})
        .virtualCall(O, B, "get", {}, {});
  }
  BP->Main = Main.id();
  P.finalize();
  return BP;
}

void runSolve(benchmark::State &State, uint32_t K, uint32_t H) {
  auto BP = makeBoxProgram(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    Solver S(*BP->P, SolverConfig{K, H});
    S.makeReachable(BP->Main, S.contexts().empty());
    S.solve();
    benchmark::DoNotOptimize(S.stats().WorkItems);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

void BM_SolveCI(benchmark::State &State) { runSolve(State, 0, 0); }
void BM_Solve1ObjH(benchmark::State &State) { runSolve(State, 1, 1); }
void BM_Solve2ObjH(benchmark::State &State) { runSolve(State, 2, 1); }

/// Full map-client workload against both library models: the Section 4
/// asymmetry at microbenchmark scale.
void runMapClients(benchmark::State &State, bool SoundModulo) {
  SymbolTable Symbols;
  Program P(Symbols);
  javalib::JavaLib L = javalib::buildJavaLibrary(
      P, SoundModulo ? javalib::CollectionModel::SoundModulo
                     : javalib::CollectionModel::OriginalJdk8);
  TypeId AppTy =
      P.addClass("app.Main", TypeKind::Class, L.Object, {}, false, true);
  MethodBuilder Main = P.addMethod(AppTy, "main", {}, TypeId::invalid(), true);
  for (int I = 0; I != 8; ++I) {
    std::string N = std::to_string(I);
    VarId M = Main.local("m" + N, L.HashMap);
    VarId K = Main.local("k" + N, L.String);
    VarId Got = Main.local("got" + N, L.Object);
    VarId Es = Main.local("es" + N, L.Set);
    VarId It = Main.local("it" + N, L.Iterator);
    VarId En = Main.local("en" + N, L.Object);
    Main.alloc(M, L.HashMap)
        .specialCall(VarId::invalid(), M, L.HashMapInit, {})
        .stringConst(K, "key" + N)
        .virtualCall(VarId::invalid(), M, "put", {L.Object, L.Object}, {K, K})
        .virtualCall(Got, M, "get", {L.Object}, {K})
        .virtualCall(Es, M, "entrySet", {}, {})
        .virtualCall(It, Es, "iterator", {}, {})
        .virtualCall(En, It, "next", {}, {});
    (void)En;
  }
  P.finalize();
  MethodId MainId = Main.id();

  for (auto _ : State) {
    Solver S(P, SolverConfig{2, 1});
    S.makeReachable(MainId, S.contexts().empty());
    S.solve();
    benchmark::DoNotOptimize(S.stats().WorkItems);
  }
}

void BM_MapClientsOriginal(benchmark::State &State) {
  runMapClients(State, false);
}
void BM_MapClientsSoundModulo(benchmark::State &State) {
  runMapClients(State, true);
}

/// Figure-5-shaped fan-out workload: a large object population stored into
/// a shared container-like holder field, then fanned out through wide
/// layers of copy/cast chains — the java.util pattern that dominates the
/// paper's cost attribution (many variables each carrying a large
/// points-to set). Designed so steady-state work is subset-edge
/// propagation: each visit sending its delta along the copy and cast
/// edges.
struct FanoutProgram {
  SymbolTable Symbols;
  std::unique_ptr<Program> P;
  MethodId Main;
};

std::unique_ptr<FanoutProgram> makeFanoutProgram(int Values, int Chains,
                                                   int Depth) {
  auto SP = std::make_unique<FanoutProgram>();
  SP->P = std::make_unique<Program>(SP->Symbols);
  Program &P = *SP->P;
  TypeId Object =
      P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  P.addClass("java.lang.String", TypeKind::Class, Object);
  TypeId Holder = P.addClass("Holder", TypeKind::Class, Object);
  TypeId Pay = P.addClass("Pay", TypeKind::Class, Object);
  FieldId F = P.addField(Holder, "contents", Object);

  MethodBuilder Main =
      P.addMethod(Holder, "main", {}, TypeId::invalid(), true);
  VarId H = Main.local("h", Holder);
  Main.alloc(H, Holder);
  VarId Pool = Main.local("pool", Object);
  for (int V = 0; V != Values; ++V)
    Main.alloc(Pool, Pay);
  Main.store(H, F, Pool);
  for (int C = 0; C != Chains; ++C) {
    std::string Tag = std::to_string(C);
    VarId Prev = Main.local("head" + Tag, Object);
    Main.load(Prev, H, F);
    for (int D = 0; D != Depth; ++D) {
      VarId Link =
          Main.local("link" + Tag + "_" + std::to_string(D), Object);
      // Alternate plain copies with pass-all casts so propagation pays the
      // type-filter check on half the hops, like real container glue.
      if (D % 2 == 0)
        Main.cast(Link, Object, Prev);
      else
        Main.move(Link, Prev);
      Prev = Link;
    }
  }
  SP->Main = Main.id();
  P.finalize();
  return SP;
}

/// The figure-5-shaped workload: 512 values fanned out over 64 chains of
/// 24 copies. Every iteration must reach the same fixpoint (asserted);
/// items/sec is the measure.
void BM_SolveWideFanout(benchmark::State &State) {
  auto SP = makeFanoutProgram(/*Values=*/512, /*Chains=*/64, /*Depth=*/24);
  uint64_t Items = 0;
  uint64_t BaselineTuples = 0;
  for (auto _ : State) {
    Solver S(*SP->P, SolverConfig{0, 0});
    S.makeReachable(SP->Main, S.contexts().empty());
    S.solve();
    Items = S.stats().WorkItems;
    uint64_t Tuples = S.varPointsToTuplesTotal();
    if (BaselineTuples == 0)
      BaselineTuples = Tuples;
    if (Tuples != BaselineTuples)
      State.SkipWithError("fixpoint diverged across iterations");
    benchmark::DoNotOptimize(Tuples);
  }
  State.SetItemsProcessed(State.iterations() * Items);
  State.counters["work_items"] =
      benchmark::Counter(static_cast<double>(Items));
}

void BM_ContextInterning(benchmark::State &State) {
  ContextTable Ctxs;
  uint64_t Counter = 0;
  for (auto _ : State) {
    AllocSiteId Site(static_cast<uint32_t>(Counter % 512));
    CtxId Base = CtxId(static_cast<uint32_t>(Counter % Ctxs.size()));
    benchmark::DoNotOptimize(Ctxs.appendAndTruncate(Base, Site, 2));
    ++Counter;
  }
  State.SetItemsProcessed(State.iterations());
}

} // namespace

BENCHMARK(BM_SolveCI)->Arg(16)->Arg(64);
BENCHMARK(BM_Solve1ObjH)->Arg(16)->Arg(64);
BENCHMARK(BM_Solve2ObjH)->Arg(16)->Arg(64);
BENCHMARK(BM_MapClientsOriginal);
BENCHMARK(BM_MapClientsSoundModulo);
BENCHMARK(BM_SolveWideFanout)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ContextInterning);

BENCHMARK_MAIN();
