//===- session_test.cpp - AnalysisSession snapshot-cache + matrix tests ----===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Covers the batch analysis API: image equivalence (cells decoding one
// memoized base-program image are bit-identical to cells that each got a
// fresh image), one image build per collection model, matrix determinism
// across job counts, error-path reporting, and metrics JSON serialization.
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "core/Session.h"
#include "synth/SynthApp.h"

#include "gtest/gtest.h"

#include <random>
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

} // namespace
