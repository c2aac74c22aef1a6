//===- session_test.cpp - AnalysisSession snapshot-cache + matrix tests ----===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Covers the batch analysis API: image equivalence (cells decoding one
// memoized base-program image are bit-identical to cells that each got a
// fresh image), one image build per collection model, matrix determinism
// across job counts, error-path reporting, metrics JSON serialization, an
// oracle that recomputes every paper metric from its definition, and the
// demand contract of fact extraction (a cell holds exactly the base facts
// its rules read, as a full extraction would).
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "core/Session.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"
#include "facts/Extractor.h"
#include "snapshot/Snapshot.h"
#include "synth/SynthApp.h"
#include "xml/Xml.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

using namespace jackee;
using namespace jackee::core;

namespace {

/// Every deterministic (non-wall-clock) metric must match. This is the
/// "bit-identical modulo time" contract of the snapshot cache and the
/// matrix driver.
void expectSameResults(const Metrics &A, const Metrics &B) {
  EXPECT_EQ(A.App, B.App);
  EXPECT_EQ(A.Analysis, B.Analysis);
  EXPECT_EQ(A.AppConcreteMethods, B.AppConcreteMethods);
  EXPECT_EQ(A.AppReachableMethods, B.AppReachableMethods);
  EXPECT_DOUBLE_EQ(A.AvgObjsPerVar, B.AvgObjsPerVar);
  EXPECT_DOUBLE_EQ(A.AvgObjsPerAppVar, B.AvgObjsPerAppVar);
  EXPECT_EQ(A.CallGraphEdges, B.CallGraphEdges);
  EXPECT_EQ(A.ReachableMethodsTotal, B.ReachableMethodsTotal);
  EXPECT_EQ(A.AppVirtualCallSites, B.AppVirtualCallSites);
  EXPECT_EQ(A.AppPolyVCalls, B.AppPolyVCalls);
  EXPECT_EQ(A.AppCasts, B.AppCasts);
  EXPECT_EQ(A.AppMayFailCasts, B.AppMayFailCasts);
  EXPECT_EQ(A.VptTuplesTotal, B.VptTuplesTotal);
  EXPECT_EQ(A.VptTuplesJavaUtil, B.VptTuplesJavaUtil);
  EXPECT_EQ(A.EntryPointsExercised, B.EntryPointsExercised);
  EXPECT_EQ(A.BeansCreated, B.BeansCreated);
  EXPECT_EQ(A.InjectionsApplied, B.InjectionsApplied);
  EXPECT_EQ(A.SolverWorkItems, B.SolverWorkItems);
  EXPECT_EQ(A.SolverEdges, B.SolverEdges);
  EXPECT_EQ(A.DatalogTuplesDerived, B.DatalogTuplesDerived);
  EXPECT_EQ(A.DatalogStrata, B.DatalogStrata);
}

/// An application whose Populate adds nothing and returns the given
/// configs — the minimal host for error-path tests.
Application emptyApp(
    std::string Name,
    std::vector<std::pair<std::string, std::string>> Configs = {}) {
  Application App;
  App.Name = std::move(Name);
  App.Populate = [Configs](ir::Program &, const javalib::JavaLib &,
                           const frameworks::FrameworkLib &) {
    return Configs;
  };
  return App;
}

TEST(SnapshotCacheTest, MemoizedImageMatchesPerCellImage) {
  Application App = synth::applicationFor(synth::BenchApp::WebGoat);

  SessionOptions Memoized;
  Memoized.Jobs = 1;
  Memoized.SnapshotCache = true;
  SessionOptions PerCell = Memoized;
  PerCell.SnapshotCache = false;

  AnalysisSession MemoizedS(Memoized), PerCellS(PerCell);
  for (AnalysisKind Kind : {AnalysisKind::CI, AnalysisKind::TwoObjH,
                            AnalysisKind::Mod2ObjH}) {
    CellResult A = MemoizedS.open(App, Kind);
    CellResult B = PerCellS.open(App, Kind);
    ASSERT_TRUE(A.ok());
    ASSERT_TRUE(B.ok());
    expectSameResults(A->metrics(), B->metrics());
    EXPECT_EQ(A->canonicalDigest(), B->canonicalDigest());
  }

  // The memoizing session built one image per collection model (CI and
  // TwoObjH share OriginalJdk8); the other built one per cell.
  EXPECT_EQ(MemoizedS.cacheStats().SnapshotBuilds, 2u);
  EXPECT_EQ(PerCellS.cacheStats().SnapshotBuilds, 3u);
}

TEST(SnapshotCacheTest, RunAnalysisWrapperMatchesSession) {
  Application App = synth::applicationFor(synth::BenchApp::Pybbs);
  Metrics Wrapper = runAnalysis(App, AnalysisKind::Mod2ObjH).value();

  SessionOptions SO;
  SO.Jobs = 1;
  AnalysisSession Session(SO);
  AnalysisResult Cell = Session.run(App, AnalysisKind::Mod2ObjH);
  ASSERT_TRUE(Cell.ok());
  expectSameResults(Wrapper, *Cell);
}

TEST(MatrixTest, CacheHitAccountingIsDeterministic) {
  std::vector<Application> Apps = {
      synth::applicationFor(synth::BenchApp::WebGoat),
      synth::applicationFor(synth::BenchApp::Pybbs)};
  std::vector<AnalysisKind> Kinds = {AnalysisKind::CI, AnalysisKind::TwoObjH,
                                     AnalysisKind::Mod2ObjH};

  for (unsigned Jobs : {1u, 4u}) {
    SessionOptions SO;
    SO.Jobs = Jobs;
    AnalysisSession Session(SO);
    std::vector<AnalysisResult> Results = Session.runMatrix(Apps, Kinds);
    ASSERT_EQ(Results.size(), 6u);
    for (const AnalysisResult &R : Results)
      ASSERT_TRUE(R.ok());

    // Two collection models: OriginalJdk8 (ci, 2objH) and SoundModulo
    // (mod-2objH). Each image is built exactly once, even when concurrent
    // cells miss it together.
    AnalysisSession::CacheStats CS = Session.cacheStats();
    EXPECT_EQ(CS.SnapshotBuilds, 2u) << "jobs=" << Jobs;
    EXPECT_EQ(CS.SnapshotLoads, 0u) << "jobs=" << Jobs;
  }
}

/// The headline determinism contract, sweep-tested: the matrix at a
/// randomized job count is bit-identical (modulo wall clock) to the
/// sequential matrix.
class MatrixDeterminismSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(MatrixDeterminismSweep, ParallelMatchesSequential) {
  std::mt19937 Rng(GetParam());
  unsigned Jobs = 2 + Rng() % 5;

  std::vector<Application> Apps = {
      synth::applicationFor(synth::BenchApp::WebGoat),
      synth::applicationFor(synth::BenchApp::SpringBlog)};
  std::vector<AnalysisKind> Kinds = {AnalysisKind::CI,
                                     AnalysisKind::Mod2ObjH};

  SessionOptions Seq;
  Seq.Jobs = 1;
  SessionOptions Par = Seq;
  Par.Jobs = Jobs;

  AnalysisSession SeqS(Seq), ParS(Par);
  std::vector<AnalysisResult> A = SeqS.runMatrix(Apps, Kinds);
  std::vector<AnalysisResult> B = ParS.runMatrix(Apps, Kinds);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    ASSERT_TRUE(A[I].ok());
    ASSERT_TRUE(B[I].ok());
    expectSameResults(*A[I], *B[I]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixDeterminismSweep,
                         ::testing::Range(1u, 7u));

TEST(AnalysisErrorTest, ConfigParse) {
  Application App = emptyApp(
      "badconfig", {{"broken.xml", "<beans><bean id=\"x\">"}});
  AnalysisResult R = runAnalysis(App, AnalysisKind::CI);
  ASSERT_FALSE(R.ok());
  EXPECT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.error().Kind, AnalysisErrorKind::ConfigParse);
  EXPECT_NE(R.error().Message.find("broken.xml"), std::string::npos);
}

TEST(AnalysisErrorTest, RuleParse) {
  Application App = emptyApp("badrules");
  App.ExtraRules = {{"bad.dl", "this is not datalog ;;;"}};
  AnalysisResult R = runAnalysis(App, AnalysisKind::CI);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Kind, AnalysisErrorKind::RuleParse);
}

TEST(AnalysisErrorTest, ConfigNestedPastTheBound) {
  // A million nested elements: the parser must stop at its nesting bound
  // instead of recursing once per level.
  constexpr size_t Depth = 1000000;
  std::string Xml;
  Xml.reserve(Depth * 7);
  for (size_t I = 0; I != Depth; ++I)
    Xml += "<a>";
  for (size_t I = 0; I != Depth; ++I)
    Xml += "</a>";
  AnalysisResult R =
      runAnalysis(emptyApp("deepconfig", {{"deep.xml", Xml}}),
                  AnalysisKind::CI);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Kind, AnalysisErrorKind::ConfigParse);
  EXPECT_NE(R.error().Message.find(std::to_string(xml::Parser::MaxDepth)),
            std::string::npos)
      << R.error().Message;
}

TEST(AnalysisErrorTest, RulesNestedPastTheBound) {
  constexpr size_t Depth = 1000000;
  Application App = emptyApp("deeprules");
  App.ExtraRules = {{"deep.dl", ".decl Deep(c: symbol)\nDeep(c) :- " +
                                    std::string(Depth, '(') +
                                    "ConcreteApplicationClass(c)" +
                                    std::string(Depth, ')') + "."}};
  AnalysisResult R = runAnalysis(App, AnalysisKind::CI);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Kind, AnalysisErrorKind::RuleParse);
  EXPECT_NE(R.error().Message.find(std::to_string(datalog::MaxGroupDepth)),
            std::string::npos)
      << R.error().Message;
}

TEST(AnalysisErrorTest, Stratification) {
  // A relation negated inside its own recursive component cannot be
  // stratified.
  Application App = emptyApp("unstratifiable");
  App.ExtraRules = {{"spin.dl", R"(
    .decl Spin(c: symbol)
    Spin(class) :-
      ConcreteApplicationClass(class),
      !Spin(class).
  )"}};
  AnalysisResult R = runAnalysis(App, AnalysisKind::CI);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Kind, AnalysisErrorKind::Stratification);
  EXPECT_NE(R.error().Message.find("Spin"), std::string::npos);
}

TEST(AnalysisErrorTest, MainClassNotFound) {
  Application App = emptyApp("nomainclass");
  App.MainClass = "no.such.Class";
  AnalysisResult R = runAnalysis(App, AnalysisKind::CI);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Kind, AnalysisErrorKind::MainClassNotFound);
  EXPECT_NE(R.error().Message.find("no.such.Class"), std::string::npos);
}

TEST(AnalysisErrorTest, MainMethodNotFound) {
  Application App;
  App.Name = "nomainmethod";
  App.MainClass = "t.NoMain";
  App.Populate = [](ir::Program &P, const javalib::JavaLib &L,
                    const frameworks::FrameworkLib &) {
    ir::TypeId T = P.addClass("t.NoMain", ir::TypeKind::Class, L.Object, {},
                              false, true);
    P.addMethod(T, "<init>", {}, ir::TypeId::invalid());
    return std::vector<std::pair<std::string, std::string>>{};
  };
  AnalysisResult R = runAnalysis(App, AnalysisKind::CI);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Kind, AnalysisErrorKind::MainMethodNotFound);
}

TEST(AnalysisErrorTest, KindNames) {
  EXPECT_STREQ(analysisErrorKindName(AnalysisErrorKind::ConfigParse),
               "config-parse");
  EXPECT_STREQ(analysisErrorKindName(AnalysisErrorKind::RuleParse),
               "rule-parse");
  EXPECT_STREQ(analysisErrorKindName(AnalysisErrorKind::Stratification),
               "stratification");
  EXPECT_STREQ(analysisErrorKindName(AnalysisErrorKind::MainClassNotFound),
               "main-class-not-found");
  EXPECT_STREQ(analysisErrorKindName(AnalysisErrorKind::MainMethodNotFound),
               "main-method-not-found");
}

TEST(MatrixTest, ErrorCellsDoNotPoisonTheMatrix) {
  std::vector<Application> Apps = {
      synth::applicationFor(synth::BenchApp::WebGoat),
      emptyApp("badconfig", {{"broken.xml", "<beans><"}})};
  std::vector<AnalysisKind> Kinds = {AnalysisKind::CI};

  SessionOptions SO;
  SO.Jobs = 2;
  AnalysisSession Session(SO);
  std::vector<AnalysisResult> Results = Session.runMatrix(Apps, Kinds);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_TRUE(Results[0].ok());
  ASSERT_FALSE(Results[1].ok());
  EXPECT_EQ(Results[1].error().Kind, AnalysisErrorKind::ConfigParse);
}

TEST(MatrixTest, WorkerExceptionReachesTheCaller) {
  // A throwing Populate callback on a matrix worker thread must surface on
  // the calling thread, as it does when the matrix runs inline.
  Application Throws = emptyApp("throws");
  Throws.Populate = [](ir::Program &, const javalib::JavaLib &,
                       const frameworks::FrameworkLib &)
      -> std::vector<std::pair<std::string, std::string>> {
    throw std::runtime_error("populate failed");
  };
  std::vector<Application> Apps = {
      synth::applicationFor(synth::BenchApp::WebGoat), Throws};
  for (unsigned Jobs : {1u, 2u}) {
    SessionOptions SO;
    SO.Jobs = Jobs;
    AnalysisSession Session(SO);
    EXPECT_THROW(Session.runMatrix(Apps, {AnalysisKind::CI}),
                 std::runtime_error)
        << "jobs=" << Jobs;
  }
}

TEST(MetricsJsonTest, ContainsEveryField) {
  Application App = synth::applicationFor(synth::BenchApp::WebGoat);
  Metrics M = runAnalysis(App, AnalysisKind::Mod2ObjH).value();
  std::string Json = metricsToJson(M, 2);

  for (const char *Key :
       {"\"name\": \"WebGoat/mod-2objH\"", "\"run_type\": \"iteration\"",
        "\"real_time\"", "\"time_unit\": \"s\"", "\"reach_percent\"",
        "\"avg_objs_per_var\"", "\"call_graph_edges\"",
        "\"app_poly_vcalls\"", "\"app_mayfail_casts\"",
        "\"vpt_tuples_total\"", "\"java_util_share\"",
        "\"datalog_tuples_derived\"", "\"snapshot_clone_seconds\"",
        "\"populate_seconds\"", "\"total_seconds\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << "missing " << Key;
  // Joinable rows: no trailing comma or newline.
  EXPECT_EQ(Json.back(), '}');
}

/// Recomputes every Figure 4, Table 1 and Figure 5 field of \p Cell's
/// metrics from its definition, through plain public queries, and expects
/// exact equality — the two averages included.
void expectMetricsMatchDefinitions(const AnalysisCell &Cell) {
  const ir::Program &P = Cell.program();
  const pointsto::Solver &S = Cell.solver();
  const Metrics &M = Cell.metrics();
  SCOPED_TRACE(M.App + "/" + M.Analysis);

  auto isLiveAppMethod = [&](ir::MethodId Id) {
    const ir::Method &Meth = P.method(Id);
    const ir::Type &Decl = P.type(Meth.DeclaringType);
    return !Meth.IsRetracted && !Decl.IsRetracted && Decl.IsApplication;
  };

  // Figure 4: application concrete methods, and how many are reached.
  std::vector<ir::MethodId> Reached = S.reachableMethods();
  std::set<ir::MethodId> ReachedSet(Reached.begin(), Reached.end());
  EXPECT_EQ(ReachedSet.size(), Reached.size());
  uint32_t AppConcrete = 0, AppReached = 0;
  for (uint32_t MI = 0; MI != P.methodCount(); ++MI) {
    if (!P.isAppConcreteMethod(ir::MethodId(MI)))
      continue;
    ++AppConcrete;
    AppReached += ReachedSet.count(ir::MethodId(MI));
  }
  EXPECT_EQ(M.AppConcreteMethods, AppConcrete);
  EXPECT_EQ(M.AppReachableMethods, AppReached);
  EXPECT_EQ(M.ReachableMethodsTotal, Reached.size());

  // Table 1 averages: distinct sites per variable, over the variables that
  // point somewhere (all, and those of application classes). Figure 5:
  // context-sensitive var-points-to tuples (all, and java.util's).
  uint64_t Sum = 0, Pointing = 0, AppSum = 0, AppPointing = 0;
  uint64_t Tuples = 0, JavaUtilTuples = 0;
  for (uint32_t VI = 0; VI != P.variableCount(); ++VI) {
    ir::VarId V(VI);
    const ir::Type &Decl =
        P.type(P.method(P.variable(V).DeclaringMethod).DeclaringType);
    if (size_t Sites = S.varPointsToSites(V).size()) {
      Sum += Sites;
      ++Pointing;
      if (Decl.IsApplication) {
        AppSum += Sites;
        ++AppPointing;
      }
    }
    uint64_t VarTuples = 0;
    for (pointsto::NodeId N : S.varInstances(V))
      VarTuples += S.pointsTo(N).size();
    Tuples += VarTuples;
    if (P.symbols().text(Decl.Name).starts_with("java.util"))
      JavaUtilTuples += VarTuples;
  }
  EXPECT_EQ(M.AvgObjsPerVar,
            Pointing ? static_cast<double>(Sum) / Pointing : 0.0);
  EXPECT_EQ(M.AvgObjsPerAppVar,
            AppPointing ? static_cast<double>(AppSum) / AppPointing : 0.0);
  EXPECT_EQ(M.VptTuplesTotal, Tuples);
  EXPECT_EQ(M.VptTuplesJavaUtil, JavaUtilTuples);
  EXPECT_EQ(M.VptTuplesJavaUtil, S.varPointsToTuples("java.util"));

  // Call-graph edges are distinct (invocation, target) pairs; a poly v-call
  // is a live application virtual invocation with two or more targets.
  std::map<uint32_t, std::set<uint32_t>> TargetsByInvoke;
  std::set<uint64_t> Edges;
  for (uint64_t Edge : S.callGraphEdges()) {
    TargetsByInvoke[static_cast<uint32_t>(Edge >> 32)].insert(
        static_cast<uint32_t>(Edge));
    Edges.insert(Edge);
  }
  EXPECT_EQ(M.CallGraphEdges, Edges.size());
  uint32_t Poly = 0;
  for (const auto &[Invoke, Targets] : TargetsByInvoke) {
    const ir::InvokeSite &Site = P.invokeSite(ir::InvokeId(Invoke));
    const ir::Statement &Call =
        P.method(Site.Caller).Statements[Site.StatementIndex];
    Poly += Targets.size() >= 2 && Call.Op == ir::Opcode::VirtualCall &&
            isLiveAppMethod(Site.Caller);
  }
  EXPECT_EQ(M.AppPolyVCalls, Poly);

  // Static application virtual calls and casts; a cast may fail when its
  // source points to an object (under any context) of another type.
  uint32_t VirtualCalls = 0, Casts = 0, MayFail = 0;
  for (uint32_t MI = 0; MI != P.methodCount(); ++MI) {
    if (!isLiveAppMethod(ir::MethodId(MI)))
      continue;
    for (const ir::Statement &Stmt : P.method(ir::MethodId(MI)).Statements) {
      VirtualCalls += Stmt.Op == ir::Opcode::VirtualCall;
      if (Stmt.Op != ir::Opcode::Cast)
        continue;
      ++Casts;
      std::vector<ir::AllocSiteId> Sites = S.varPointsToSites(Stmt.Src);
      MayFail += std::any_of(Sites.begin(), Sites.end(),
                             [&](ir::AllocSiteId Site) {
                               return !P.isSubtype(
                                   P.allocSite(Site).ObjectType,
                                   Stmt.TypeRef);
                             });
    }
  }
  EXPECT_EQ(M.AppVirtualCallSites, VirtualCalls);
  EXPECT_EQ(M.AppCasts, Casts);
  EXPECT_EQ(M.AppMayFailCasts, MayFail);
}

TEST(MetricsOracle, WebAppsUnderEveryAnalysis) {
  SessionOptions SO;
  SO.Jobs = 1;
  AnalysisSession Session(SO);
  for (Application App : {synth::applicationFor(synth::BenchApp::Pybbs),
                          synth::applicationFor(synth::BenchApp::SpringBlog),
                          synth::applicationFor(synth::BenchApp::WebGoat),
                          synth::petstoreApp()})
    for (AnalysisKind Kind :
         {AnalysisKind::DoopBaselineCI, AnalysisKind::CI,
          AnalysisKind::TwoObjH, AnalysisKind::Mod2ObjH}) {
      CellResult Cell = Session.open(App, Kind);
      ASSERT_TRUE(Cell.ok()) << Cell.error().Message;
      expectMetricsMatchDefinitions(*Cell);
    }
}

TEST(MetricsOracle, PlainMainProgram) {
  SessionOptions SO;
  SO.Jobs = 1;
  AnalysisSession Session(SO);
  for (AnalysisKind Kind : {AnalysisKind::DoopBaselineCI, AnalysisKind::CI,
                            AnalysisKind::TwoObjH, AnalysisKind::Mod2ObjH}) {
    CellResult Cell = Session.open(synth::dacapoLikeApp(), Kind);
    ASSERT_TRUE(Cell.ok()) << Cell.error().Message;
    EXPECT_GT(Cell->metrics().AppReachableMethods, 0u);
    expectMetricsMatchDefinitions(*Cell);
  }
}

/// The mode ("warm" or "reset") of the last `cell-update` span.
std::string lastUpdateMode(const observe::Tracer &T) {
  std::string Mode;
  for (const observe::Tracer::SpanRecord &Span : T.snapshot())
    if (Span.Name == "cell-update")
      for (const observe::Tracer::Arg &A : Span.Args)
        if (A.Key == "mode")
          Mode = A.Value;
  return Mode;
}

TEST(MetricsOracle, LiveCellAfterWarmAndResetUpdates) {
  // Petstore plus an unregistered class whose method casts and calls
  // through a map once a web.xml listener registration exercises it.
  CellDelta AddMetricsClass;
  AddMetricsClass.AddCode = [](ir::Program &P, const javalib::JavaLib &L,
                               const frameworks::FrameworkLib &) {
    ir::TypeId T = P.addClass("shop.Metrics", ir::TypeKind::Class, L.Object,
                              {}, false, /*IsApplication=*/true);
    P.addMethod(T, "<init>", {}, ir::TypeId::invalid());
    ir::MethodBuilder Tick =
        P.addMethod(T, "tick", {L.Object}, ir::TypeId::invalid());
    ir::VarId Key = Tick.local("key", L.String);
    ir::VarId Counts = Tick.local("counts", L.HashMap);
    Tick.cast(Key, L.String, Tick.param(0))
        .alloc(Counts, L.HashMap)
        .specialCall(ir::VarId::invalid(), Counts, L.HashMapInit, {})
        .virtualCall(ir::VarId::invalid(), Counts, "put",
                     {L.Object, L.Object}, {Key, Tick.param(0)});
  };
  SessionOptions SO;
  SO.Jobs = 1;
  SO.Trace = true;
  AnalysisSession Session(SO);
  CellResult Live = Session.open(applyDelta(synth::petstoreApp(),
                                            {AddMetricsClass}),
                                 AnalysisKind::Mod2ObjH);
  ASSERT_TRUE(Live.ok()) << Live.error().Message;
  expectMetricsMatchDefinitions(*Live);
  uint32_t ColdReached = Live->metrics().AppReachableMethods;

  CellDelta Register;
  Register.AddConfigs.push_back(
      {"metrics-web.xml", "<web-app>\n  <listener>\n    <listener-class>"
                          "shop.Metrics</listener-class>\n  </listener>\n"
                          "</web-app>\n"});
  ASSERT_TRUE(Live->update(Register).ok());
  EXPECT_EQ(lastUpdateMode(*Session.tracer()), "warm");
  EXPECT_GT(Live->metrics().AppReachableMethods, ColdReached);
  EXPECT_GT(Live->metrics().AppMayFailCasts, 0u);
  expectMetricsMatchDefinitions(*Live);

  CellDelta Retract;
  Retract.RetractClasses.push_back("shop.Metrics");
  Retract.RetractConfigs.push_back("metrics-web.xml");
  ASSERT_TRUE(Live->update(Retract).ok());
  EXPECT_EQ(lastUpdateMode(*Session.tracer()), "reset");
  expectMetricsMatchDefinitions(*Live);
}

//===----------------------------------------------------------------------===//
// Demand-driven extraction
//===----------------------------------------------------------------------===//

/// \p App's program extracted in full: the builders' base program of
/// \p Kind's collection model, the application populated on top, and every
/// base relation of the program and its configs — the reference a
/// demand-driven cell must agree with.
struct FullExtraction {
  snapshot::BaseProgram Base;
  std::unique_ptr<datalog::Database> DB;
  uint32_t BaseMethods = 0; ///< methods of the image, below the app's
};

FullExtraction fullExtraction(const Application &App, AnalysisKind Kind) {
  FullExtraction F{snapshot::buildBase(collectionModel(Kind)), nullptr};
  ir::Program &P = *F.Base.Base;
  F.BaseMethods = P.methodCount();
  std::vector<std::pair<std::string, std::string>> Configs =
      App.Populate(P, F.Base.Lib, F.Base.Frameworks);
  P.finalize();
  F.DB = std::make_unique<datalog::Database>(*F.Base.Symbols);
  facts::Extractor Ex(*F.DB, facts::allRelations());
  Ex.extractProgram(P);
  for (const auto &[Name, Text] : Configs) {
    xml::ParseResult Doc = xml::Parser::parse(Text);
    EXPECT_TRUE(Doc.ok()) << Name;
    if (Doc.ok())
      Ex.extractXml(*Doc.Doc, Name);
  }
  return F;
}

/// Relation \p Name of \p DB as text tuples, in tuple order.
std::vector<std::string> textTuples(const datalog::Database &DB,
                                    std::string_view Name) {
  std::vector<std::string> Out;
  const datalog::Relation &R = DB.relation(DB.find(Name));
  for (uint32_t I = 0; I != R.size(); ++I) {
    std::string Row;
    for (uint32_t C = 0; C != R.arity(); ++C)
      Row += (C ? "|" : "") + DB.symbols().text(R.tuple(I)[C]);
    Out.push_back(std::move(Row));
  }
  return Out;
}

/// The base relations some rule body of \p Cell reads, by name.
std::set<std::string> relationsRead(const AnalysisCell &Cell) {
  std::set<std::string> Read;
  for (const datalog::Rule &R : Cell.rules().rules())
    for (const datalog::Atom &A : R.Body)
      if (facts::findBaseRelation(Cell.database().relation(A.Rel).name()))
        Read.insert(Cell.database().relation(A.Rel).name());
  return Read;
}

TEST(DemandContract, DemandedRelationsMatchFullExtraction) {
  SessionOptions SO;
  SO.Jobs = 1;
  AnalysisSession Session(SO);
  for (Application App : {synth::applicationFor(synth::BenchApp::Pybbs),
                          synth::applicationFor(synth::BenchApp::SpringBlog),
                          synth::applicationFor(synth::BenchApp::WebGoat),
                          synth::petstoreApp(), synth::dacapoLikeApp()})
    for (AnalysisKind Kind : {AnalysisKind::DoopBaselineCI, AnalysisKind::CI,
                              AnalysisKind::Mod2ObjH}) {
      SCOPED_TRACE(App.Name + "/" + analysisName(Kind));
      CellResult Cell = Session.open(App, Kind);
      ASSERT_TRUE(Cell.ok()) << Cell.error().Message;
      FullExtraction Full = fullExtraction(App, Kind);
      std::set<std::string> Read = relationsRead(*Cell);
      if (Kind == AnalysisKind::DoopBaselineCI)
        // The baseline reads the subtype facts, the vocabulary the rest;
        // no XML fact is extracted.
        EXPECT_EQ(Read, (std::set<std::string>{
                            "Class_DefaultBeanId", "ConcreteApplicationClass",
                            "ConcreteMethod", "Method_DeclaringType",
                            "SubtypeOf"}));
      else
        // The invocation relations wait for a rule that reads them.
        for (const char *Unread : {"ActualParam", "AssignReturnValue",
                                   "Invocation_InMethod",
                                   "Var_DeclaringMethod"})
          EXPECT_EQ(Read.count(Unread), 0u) << Unread;

      for (const facts::RelationSchema &Rel : facts::Schema) {
        std::vector<std::string> Got =
            textTuples(Cell->database(), Rel.Name);
        if (!Read.count(std::string(Rel.Name))) {
          EXPECT_TRUE(Got.empty()) << Rel.Name;
          continue;
        }
        EXPECT_EQ(Got, textTuples(*Full.DB, Rel.Name)) << Rel.Name;
      }
    }
}

TEST(DemandContract, ExtraRulesReadingCallFactsMatchFullExtraction) {
  const char *CallRules = R"dl(
.decl CallFlow(inv: symbol, caller: symbol, arg: symbol, ret: symbol)
CallFlow(inv, caller, arg, ret) :-
  Invocation_InMethod(inv, caller),
  ActualParam(_, inv, arg),
  AssignReturnValue(inv, ret).
)dl";
  Application App = synth::petstoreApp();
  App.ExtraRules.push_back({"callflow.dl", CallRules});
  SessionOptions SO;
  SO.Jobs = 1;
  AnalysisSession Session(SO);
  CellResult Cell = Session.open(App, AnalysisKind::CI);
  ASSERT_TRUE(Cell.ok()) << Cell.error().Message;

  // The same rule, evaluated against a full extraction.
  FullExtraction Full = fullExtraction(App, AnalysisKind::CI);
  datalog::RuleSet Rules;
  datalog::ParserResult Parsed =
      datalog::parseRules(*Full.DB, Rules, CallRules, "callflow.dl");
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  datalog::Evaluator Eval(*Full.DB, Rules);
  ASSERT_TRUE(Eval.validate().empty());
  Eval.run();

  std::vector<std::string> Got = textTuples(Cell->database(), "CallFlow");
  std::vector<std::string> Want = textTuples(*Full.DB, "CallFlow");
  std::sort(Got.begin(), Got.end());
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(Got, Want);

  // Call sites of the library methods come from the image.
  size_t LibraryCalls = 0;
  for (const std::string &Row : Got) {
    std::string Caller = Row.substr(Row.find('|') + 1);
    Caller.resize(Caller.find('|'));
    ir::MethodId M = facts::Extractor::decodeMethod(Caller);
    ASSERT_TRUE(M.isValid()) << Row;
    LibraryCalls += M.index() < Full.BaseMethods;
  }
  EXPECT_GT(LibraryCalls, 0u);
  EXPECT_LT(LibraryCalls, Got.size());
}

TEST(DemandContract, ExplainNamesAnUnextractedRelation) {
  SessionOptions SO;
  SO.Jobs = 1;
  AnalysisSession Session(SO);
  CellResult Cell = Session.open(synth::petstoreApp(), AnalysisKind::CI);
  ASSERT_TRUE(Cell.ok()) << Cell.error().Message;

  std::string Error;
  for (const char *Query : {"ActualParam", " ActualParam(_, _, _)"}) {
    EXPECT_TRUE(Cell->explain(Query, Error).empty()) << Query;
    EXPECT_EQ(Error,
              "'ActualParam' is not extracted in this cell: no rule reads it")
        << Query;
  }
  // Extracted base relations and derived ones still explain.
  EXPECT_FALSE(Cell->explain("SubtypeOf(\"shop.CheckoutServlet\", _)", Error)
                   .empty());
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_FALSE(Cell->explain("ExercisedEntryPoint", Error).empty());
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_TRUE(Cell->explain("NoSuchRelation", Error).empty());
  EXPECT_EQ(Error, "unknown relation 'NoSuchRelation'");

  // A rule that reads the relation puts it back in the demand set.
  Application Reading = synth::petstoreApp();
  Reading.ExtraRules.push_back(
      {"args.dl", ".decl Arg(v: symbol)\nArg(v) :- ActualParam(_, _, v).\n"});
  CellResult ReadingCell = Session.open(Reading, AnalysisKind::CI);
  ASSERT_TRUE(ReadingCell.ok()) << ReadingCell.error().Message;
  EXPECT_FALSE(ReadingCell->explain("ActualParam", Error).empty());
  EXPECT_TRUE(Error.empty()) << Error;
}

TEST(DemandContract, BaselineLiveCellMatchesScratchAfterUpdates) {
  // Doop-ci reads no XML fact, so the warm config edit extracts nothing;
  // the reset edit retracts a servlet and adds another, through the
  // baseline's five relations only.
  CellDelta Register;
  Register.AddConfigs.push_back(
      {"metrics-web.xml", "<web-app>\n  <listener>\n    <listener-class>"
                          "shop.AuditListener</listener-class>\n"
                          "  </listener>\n</web-app>\n"});
  CellDelta Swap;
  Swap.RetractClasses.push_back("shop.CheckoutServlet");
  Swap.AddCode = [](ir::Program &P, const javalib::JavaLib &L,
                    const frameworks::FrameworkLib &F) {
    ir::TypeId T = P.addClass("shop.AuditServlet", ir::TypeKind::Class,
                              F.HttpServlet, {}, false,
                              /*IsApplication=*/true);
    P.addMethod(T, "<init>", {}, ir::TypeId::invalid());
    ir::MethodBuilder DoGet = P.addMethod(
        T, "doGet", {F.HttpServletRequest, F.HttpServletResponse},
        ir::TypeId::invalid());
    ir::VarId Log = DoGet.local("log", L.HashMap);
    DoGet.alloc(Log, L.HashMap)
        .specialCall(ir::VarId::invalid(), Log, L.HashMapInit, {});
  };

  SessionOptions SO;
  SO.Jobs = 1;
  SO.Trace = true;
  AnalysisSession Session(SO);
  CellResult Live =
      Session.open(synth::petstoreApp(), AnalysisKind::DoopBaselineCI);
  ASSERT_TRUE(Live.ok()) << Live.error().Message;
  uint32_t ColdEntries = Live->metrics().EntryPointsExercised;
  EXPECT_GT(ColdEntries, 0u);

  std::vector<CellDelta> Applied;
  for (const auto &[Delta, Mode] :
       {std::pair{Register, "warm"}, std::pair{Swap, "reset"}}) {
    Applied.push_back(Delta);
    SCOPED_TRACE(Mode);
    ASSERT_TRUE(Live->update(Delta).ok());
    EXPECT_EQ(lastUpdateMode(*Session.tracer()), Mode);
    CellResult Scratch = Session.open(applyDelta(synth::petstoreApp(), Applied),
                                      AnalysisKind::DoopBaselineCI);
    ASSERT_TRUE(Scratch.ok()) << Scratch.error().Message;
    EXPECT_EQ(Live->canonicalDigest(), Scratch->canonicalDigest());
    EXPECT_EQ(Live->metrics().AppReachableMethods,
              Scratch->metrics().AppReachableMethods);
    EXPECT_EQ(Live->metrics().EntryPointsExercised,
              Scratch->metrics().EntryPointsExercised);
    expectMetricsMatchDefinitions(*Live);
    for (const facts::RelationSchema &Rel : facts::Schema) {
      // Live tuples, as a set: the live cell keeps tombstoned slots.
      auto live = [&](const AnalysisCell &C) {
        std::multiset<std::string> Rows;
        const datalog::Relation &R =
            C.database().relation(C.database().find(Rel.Name));
        std::vector<std::string> All = textTuples(C.database(), Rel.Name);
        for (uint32_t I = 0; I != R.size(); ++I)
          if (R.isLive(I))
            Rows.insert(All[I]);
        return Rows;
      };
      EXPECT_EQ(live(*Live), live(*Scratch)) << Rel.Name;
    }
  }
  EXPECT_NE(Live->metrics().EntryPointsExercised, ColdEntries);
}

} // namespace
