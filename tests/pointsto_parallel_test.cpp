//===- pointsto_parallel_test.cpp - Sharded-solver determinism ------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// The sharded worklist drain's contract (DESIGN.md §11): the fixpoint is
// bit-identical at every `SolverConfig::Threads` setting — points-to sets,
// call-graph edge *sequences*, reachability, cast records, solver stats,
// session metrics, and provenance explain trees all match the
// single-threaded run exactly. Sweeps cover fixed thread counts, randomized
// counts, and the `JACKEE_SOLVER_THREADS` resolution rules. Order pins fix
// two cells' effort counters and set insertion orders to recorded values.
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "core/Session.h"
#include "javalib/JavaLibrary.h"
#include "pointsto/Solver.h"
#include "provenance/Explain.h"
#include "synth/SynthApp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;

namespace {

//===----------------------------------------------------------------------===//
// Solver-level sweeps
//===----------------------------------------------------------------------===//

/// A map-heavy library-client program: virtual dispatch through the real
/// HashMap model, so the sweep exercises reaction staging (call wiring at
/// the barrier), not just subset-edge propagation.
struct LibProgram {
  SymbolTable Symbols;
  std::unique_ptr<Program> P;
  MethodId Main;
};

std::unique_ptr<LibProgram> makeMapClientProgram(int Clients) {
  auto LP = std::make_unique<LibProgram>();
  LP->P = std::make_unique<Program>(LP->Symbols);
  Program &P = *LP->P;
  javalib::JavaLib L =
      javalib::buildJavaLibrary(P, javalib::CollectionModel::OriginalJdk8);
  TypeId AppTy =
      P.addClass("app.Main", TypeKind::Class, L.Object, {}, false, true);
  MethodBuilder Main = P.addMethod(AppTy, "main", {}, TypeId::invalid(), true);
  for (int I = 0; I != Clients; ++I) {
    std::string N = std::to_string(I);
    VarId M = Main.local("m" + N, L.HashMap);
    VarId K = Main.local("k" + N, L.String);
    VarId Got = Main.local("got" + N, L.Object);
    VarId Cast = Main.local("cast" + N, L.String);
    Main.alloc(M, L.HashMap)
        .specialCall(VarId::invalid(), M, L.HashMapInit, {})
        .stringConst(K, "key" + N)
        .virtualCall(VarId::invalid(), M, "put", {L.Object, L.Object}, {K, K})
        .virtualCall(Got, M, "get", {L.Object}, {K})
        .cast(Cast, L.String, Got);
  }
  P.finalize();
  LP->Main = Main.id();
  return LP;
}

/// Everything we can observe about a solved fixpoint, in canonical form.
/// Two runs are "bit-identical" iff their summaries compare equal.
struct FixpointSummary {
  std::vector<std::vector<AllocSiteId>> SitesByVar;
  std::vector<uint32_t> ReachableSeq; ///< CMethodId raw, insertion order
  std::vector<uint64_t> CallEdgeSeq;  ///< packed edges, insertion order
  std::vector<std::vector<std::vector<AllocSiteId>>> CastSites;
  uint64_t WorkItems, EdgesAdded, ReactionsRun, Rounds;
  uint32_t PluginRounds;
  uint64_t TuplesTotal;

  bool operator==(const FixpointSummary &O) const {
    return SitesByVar == O.SitesByVar && ReachableSeq == O.ReachableSeq &&
           CallEdgeSeq == O.CallEdgeSeq && CastSites == O.CastSites &&
           WorkItems == O.WorkItems && EdgesAdded == O.EdgesAdded &&
           ReactionsRun == O.ReactionsRun && Rounds == O.Rounds &&
           PluginRounds == O.PluginRounds && TuplesTotal == O.TuplesTotal;
  }
};

FixpointSummary solveAndSummarize(const Program &P, MethodId Main,
                                  uint32_t K, uint32_t H, unsigned Threads) {
  Solver S(P, SolverConfig{K, H, Threads});
  S.makeReachable(Main, S.contexts().empty());
  S.solve();

  FixpointSummary Sum;
  for (uint32_t VI = 0; VI != P.variableCount(); ++VI)
    Sum.SitesByVar.push_back(S.varPointsToSites(VarId(VI)));
  for (uint32_t CM : S.reachableCMethods())
    Sum.ReachableSeq.push_back(CM);
  for (uint64_t E : S.callGraphEdges())
    Sum.CallEdgeSeq.push_back(E);
  for (const Solver::CastRecord &C : S.castRecords()) {
    std::vector<std::vector<AllocSiteId>> PerInstance;
    for (NodeId N : C.SourceNodes) {
      std::vector<AllocSiteId> Sites;
      for (uint32_t Raw : S.pointsTo(N))
        Sites.push_back(S.valueSiteId(ValueId(Raw)));
      PerInstance.push_back(std::move(Sites));
    }
    Sum.CastSites.push_back(std::move(PerInstance));
  }
  Sum.WorkItems = S.stats().WorkItems;
  Sum.EdgesAdded = S.stats().EdgesAdded;
  Sum.ReactionsRun = S.stats().ReactionsRun;
  Sum.Rounds = S.stats().Rounds;
  Sum.PluginRounds = S.stats().PluginRounds;
  Sum.TuplesTotal = S.varPointsToTuplesTotal();
  return Sum;
}

TEST(SolverSweep, MapClients2ObjHBitIdenticalAcrossThreadCounts) {
  auto LP = makeMapClientProgram(12);
  FixpointSummary Base = solveAndSummarize(*LP->P, LP->Main, 2, 1, 1);
  ASSERT_GT(Base.TuplesTotal, 0u);
  ASSERT_FALSE(Base.CastSites.empty());
  for (unsigned Threads : {2u, 5u, 8u, 64u}) {
    SCOPED_TRACE("Threads=" + std::to_string(Threads));
    EXPECT_TRUE(solveAndSummarize(*LP->P, LP->Main, 2, 1, Threads) == Base);
  }
}

TEST(SolverSweep, MapClientsCIBitIdenticalAcrossThreadCounts) {
  auto LP = makeMapClientProgram(12);
  FixpointSummary Base = solveAndSummarize(*LP->P, LP->Main, 0, 0, 1);
  for (unsigned Threads : {2u, 8u}) {
    SCOPED_TRACE("Threads=" + std::to_string(Threads));
    EXPECT_TRUE(solveAndSummarize(*LP->P, LP->Main, 0, 0, Threads) == Base);
  }
}

TEST(SolverSweep, RandomizedThreadCountsMatchBaseline) {
  auto LP = makeMapClientProgram(8);
  FixpointSummary Base = solveAndSummarize(*LP->P, LP->Main, 2, 1, 1);

  // Determinism must hold at *any* worker count, so drawing the counts at
  // random is safe — record the seed so a failure is reproducible.
  unsigned Seed = std::random_device{}();
  RecordProperty("thread_sweep_seed", static_cast<int>(Seed));
  std::mt19937 Rng(Seed);
  std::uniform_int_distribution<unsigned> Dist(1, 32);
  for (int Draw = 0; Draw != 4; ++Draw) {
    unsigned Threads = Dist(Rng);
    SCOPED_TRACE("seed=" + std::to_string(Seed) +
                 " Threads=" + std::to_string(Threads));
    EXPECT_TRUE(solveAndSummarize(*LP->P, LP->Main, 2, 1, Threads) == Base);
  }
}

//===----------------------------------------------------------------------===//
// JACKEE_SOLVER_THREADS resolution
//===----------------------------------------------------------------------===//

/// Saves/restores one environment variable around a test body.
class EnvGuard {
public:
  explicit EnvGuard(const char *Name) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
  }
  ~EnvGuard() {
    if (Saved)
      setenv(Name, Saved->c_str(), /*overwrite=*/1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

unsigned resolvedThreads(unsigned Requested) {
  SymbolTable Symbols;
  Program P(Symbols);
  P.addClass("java.lang.Object", TypeKind::Class, TypeId::invalid());
  P.finalize();
  Solver S(P, SolverConfig{0, 0, Requested});
  return S.config().Threads;
}

TEST(ThreadResolution, ExplicitCountWinsOverEnvironment) {
  EnvGuard Guard("JACKEE_SOLVER_THREADS");
  ASSERT_EQ(setenv("JACKEE_SOLVER_THREADS", "12", 1), 0);
  EXPECT_EQ(resolvedThreads(2), 2u);
  EXPECT_EQ(resolvedThreads(1), 1u);
}

TEST(ThreadResolution, EnvironmentResolvesZero) {
  EnvGuard Guard("JACKEE_SOLVER_THREADS");
  ASSERT_EQ(setenv("JACKEE_SOLVER_THREADS", "5", 1), 0);
  EXPECT_EQ(resolvedThreads(0), 5u);
}

TEST(ThreadResolution, InvalidEnvironmentFallsBackToHardware) {
  EnvGuard Guard("JACKEE_SOLVER_THREADS");
  for (const char *Bad : {"abc", "0", "-3", "999"}) {
    ASSERT_EQ(setenv("JACKEE_SOLVER_THREADS", Bad, 1), 0);
    unsigned Resolved = resolvedThreads(0);
    SCOPED_TRACE(Bad);
    EXPECT_GE(Resolved, 1u);
    EXPECT_LE(Resolved, 256u);
  }
}

TEST(ThreadResolution, ExplicitCountIsClamped) {
  EnvGuard Guard("JACKEE_SOLVER_THREADS");
  unsetenv("JACKEE_SOLVER_THREADS");
  EXPECT_EQ(resolvedThreads(1000), 256u);
  EXPECT_GE(resolvedThreads(0), 1u); // hardware fallback
}

//===----------------------------------------------------------------------===//
// Session-level sweeps over the synthetic enterprise applications
//===----------------------------------------------------------------------===//

/// Wall-clock, RSS, and scheduling fields legitimately vary run to run or
/// with the thread count; everything else in `metricsToJson` must be
/// byte-identical across `SolverThreads` settings.
bool isVolatileMetricLine(const std::string &Line) {
  static const char *VolatileKeys[] = {
      "seconds",        "real_time", "tuples_per_sec",
      "peak_rss",       "solver_threads",
      "pointsto.sched", "pointsto.shard.steals",
  };
  for (const char *Key : VolatileKeys)
    if (Line.find(Key) != std::string::npos)
      return true;
  return false;
}

std::string filteredMetricsJson(const core::Metrics &M) {
  std::istringstream In(core::metricsToJson(M));
  std::ostringstream Out;
  std::string Line;
  while (std::getline(In, Line))
    if (!isVolatileMetricLine(Line))
      Out << Line << '\n';
  return Out.str();
}

/// One session cell at a fixed solver worker count, with provenance
/// captured so explain trees can be compared too.
struct CellRun {
  core::Metrics M;
  std::string FilteredJson;
  std::string ExplainTrees;
};

CellRun runCell(const core::Application &App, core::AnalysisKind Kind,
                unsigned SolverThreads, bool Capture) {
  core::SessionOptions SO;
  SO.Jobs = 1;
  SO.SolverThreads = SolverThreads;
  core::AnalysisSession Session(SO);

  CellRun Run;
  if (!Capture) {
    core::AnalysisResult R = Session.run(App, Kind);
    EXPECT_TRUE(R.ok()) << R.error().Message;
    Run.M = *R;
  } else {
    core::CellResult Cell = Session.open(App, Kind);
    EXPECT_TRUE(Cell.ok()) << Cell.error().Message;
    if (Cell.ok()) {
      Run.M = Cell->metrics();
      std::string Error;
      std::vector<provenance::DerivationNode> Trees =
          Cell->explain("ExercisedEntryPoint", Error);
      EXPECT_EQ(Error, "");
      std::ostringstream Out;
      for (const provenance::DerivationNode &Tree : Trees)
        Out << provenance::Explainer::renderText(Tree) << '\n';
      Run.ExplainTrees = Out.str();
    }
  }
  Run.FilteredJson = filteredMetricsJson(Run.M);
  return Run;
}

void expectSameCell(const CellRun &Base, const CellRun &Other) {
  EXPECT_EQ(Base.FilteredJson, Other.FilteredJson);
  EXPECT_EQ(Base.ExplainTrees, Other.ExplainTrees);
  EXPECT_EQ(Base.M.CallGraphEdges, Other.M.CallGraphEdges);
  EXPECT_EQ(Base.M.ReachableMethodsTotal, Other.M.ReachableMethodsTotal);
  EXPECT_EQ(Base.M.AppReachableMethods, Other.M.AppReachableMethods);
  EXPECT_EQ(Base.M.AppPolyVCalls, Other.M.AppPolyVCalls);
  EXPECT_EQ(Base.M.AppMayFailCasts, Other.M.AppMayFailCasts);
  EXPECT_EQ(Base.M.VptTuplesTotal, Other.M.VptTuplesTotal);
  EXPECT_EQ(Base.M.VptTuplesJavaUtil, Other.M.VptTuplesJavaUtil);
  EXPECT_EQ(Base.M.EntryPointsExercised, Other.M.EntryPointsExercised);
  EXPECT_EQ(Base.M.BeansCreated, Other.M.BeansCreated);
  EXPECT_EQ(Base.M.InjectionsApplied, Other.M.InjectionsApplied);
  EXPECT_EQ(Base.M.SolverWorkItems, Other.M.SolverWorkItems);
  EXPECT_EQ(Base.M.SolverEdges, Other.M.SolverEdges);
  EXPECT_EQ(Base.M.SolverRounds, Other.M.SolverRounds);
}

TEST(SessionSweep, PetstoreMod2ObjHBitIdenticalIncludingExplainTrees) {
  core::Application App = synth::petstoreApp();
  CellRun Base = runCell(App, core::AnalysisKind::Mod2ObjH, 1, true);
  ASSERT_FALSE(Base.ExplainTrees.empty());
  EXPECT_EQ(Base.M.SolverThreads, 1u);
  for (unsigned Threads : {2u, 8u}) {
    SCOPED_TRACE("SolverThreads=" + std::to_string(Threads));
    CellRun Other = runCell(App, core::AnalysisKind::Mod2ObjH, Threads, true);
    EXPECT_EQ(Other.M.SolverThreads, Threads);
    expectSameCell(Base, Other);
  }
}

TEST(SessionSweep, WebGoat2ObjHBitIdentical) {
  core::Application App = synth::applicationFor(synth::BenchApp::WebGoat);
  CellRun Base = runCell(App, core::AnalysisKind::TwoObjH, 1, false);
  CellRun Other = runCell(App, core::AnalysisKind::TwoObjH, 8, false);
  expectSameCell(Base, Other);
}

TEST(SessionSweep, DacapoLikeCIBitIdentical) {
  core::Application App = synth::dacapoLikeApp();
  CellRun Base = runCell(App, core::AnalysisKind::CI, 1, false);
  CellRun Other = runCell(App, core::AnalysisKind::CI, 5, false);
  expectSameCell(Base, Other);
}

//===----------------------------------------------------------------------===//
// Propagation-order pins
//===----------------------------------------------------------------------===//

/// FNV-1a over every var node's points-to set in insertion order: vars by
/// id, each var's context instances in creation order, each set's value ids
/// in the order propagation inserted them. Equal hashes mean the same sets
/// were filled in the same order, not merely to the same contents.
uint64_t varSetOrderHash(const Solver &S) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  auto Mix = [&Hash](uint64_t Word) {
    for (int Byte = 0; Byte != 8; ++Byte) {
      Hash ^= (Word >> (8 * Byte)) & 0xFF;
      Hash *= 0x100000001b3ULL;
    }
  };
  for (uint32_t VI = 0; VI != S.program().variableCount(); ++VI)
    for (NodeId N : S.varInstances(VarId(VI))) {
      Mix(packPair(VI, N.rawValue()));
      for (uint32_t Raw : S.pointsTo(N))
        Mix(Raw);
    }
  return Hash;
}

/// A cell's solver effort counters and set order, as recorded. A change
/// that keeps the propagation order must reproduce them exactly; one that
/// changes the order on purpose re-records them and says why.
struct OrderPin {
  synth::BenchApp App;
  core::AnalysisKind Kind;
  uint64_t WorkItems, Rounds, EdgesAdded, ReactionsRun;
  uint32_t PluginRounds;
  uint64_t SetOrderHash;
  size_t LargestVarSet; ///< far past the sets' scan-to-bitset switch
};

void expectPinned(const OrderPin &Pin) {
  for (unsigned Threads : {1u, 8u}) {
    SCOPED_TRACE("SolverThreads=" + std::to_string(Threads));
    core::SessionOptions SO;
    SO.Jobs = 1;
    SO.SolverThreads = Threads;
    core::AnalysisSession Session(SO);
    core::CellResult Cell =
        Session.open(synth::applicationFor(Pin.App), Pin.Kind);
    ASSERT_TRUE(Cell.ok()) << Cell.error().Message;
    const Solver &S = Cell->solver();
    size_t Largest = 0;
    for (uint32_t VI = 0; VI != S.program().variableCount(); ++VI)
      for (NodeId N : S.varInstances(VarId(VI)))
        Largest = std::max<size_t>(Largest, S.pointsTo(N).size());
    EXPECT_EQ(S.stats().WorkItems, Pin.WorkItems);
    EXPECT_EQ(S.stats().Rounds, Pin.Rounds);
    EXPECT_EQ(S.stats().EdgesAdded, Pin.EdgesAdded);
    EXPECT_EQ(S.stats().ReactionsRun, Pin.ReactionsRun);
    EXPECT_EQ(S.stats().PluginRounds, Pin.PluginRounds);
    EXPECT_EQ(varSetOrderHash(S), Pin.SetOrderHash);
    EXPECT_EQ(Largest, Pin.LargestVarSet);
  }
}

TEST(PointsToOrderPin, WebGoat2ObjH) {
  expectPinned({synth::BenchApp::WebGoat, core::AnalysisKind::TwoObjH,
                /*WorkItems=*/47307, /*Rounds=*/33, /*EdgesAdded=*/20309,
                /*ReactionsRun=*/10165, /*PluginRounds=*/2,
                /*SetOrderHash=*/12890229860717409760ULL,
                /*LargestVarSet=*/62});
}

TEST(PointsToOrderPin, PybbsMod2ObjH) {
  expectPinned({synth::BenchApp::Pybbs, core::AnalysisKind::Mod2ObjH,
                /*WorkItems=*/23103, /*Rounds=*/28, /*EdgesAdded=*/12811,
                /*ReactionsRun=*/5488, /*PluginRounds=*/2,
                /*SetOrderHash=*/4174156672662490441ULL,
                /*LargestVarSet=*/73});
}

TEST(SessionSweep, RandomizedEnvThreadCountMatchesBaseline) {
  EnvGuard Guard("JACKEE_SOLVER_THREADS");

  unsigned Seed = std::random_device{}();
  RecordProperty("session_sweep_seed", static_cast<int>(Seed));
  std::mt19937 Rng(Seed);
  unsigned Threads = std::uniform_int_distribution<unsigned>(2, 16)(Rng);
  SCOPED_TRACE("seed=" + std::to_string(Seed) +
               " JACKEE_SOLVER_THREADS=" + std::to_string(Threads));

  core::Application App = synth::petstoreApp();
  unsetenv("JACKEE_SOLVER_THREADS");
  CellRun Base = runCell(App, core::AnalysisKind::TwoObjH, 1, false);

  // Resolve through the environment path, as the CI solver matrix does.
  ASSERT_EQ(setenv("JACKEE_SOLVER_THREADS",
                   std::to_string(Threads).c_str(), 1), 0);
  CellRun Other = runCell(App, core::AnalysisKind::TwoObjH, 0, false);
  EXPECT_EQ(Other.M.SolverThreads, Threads);
  expectSameCell(Base, Other);
}

} // namespace
