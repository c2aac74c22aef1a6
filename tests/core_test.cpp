//===- core_test.cpp - Pipeline and metrics tests --------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "synth/SynthApp.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace jackee;
using namespace jackee::core;

namespace {

/// A tiny fixed application used by most pipeline tests: one controller,
/// one service, one dead class.
Application tinyApp() {
  Application App;
  App.Name = "tiny";
  App.Populate = [](ir::Program &P, const javalib::JavaLib &L,
                    const frameworks::FrameworkLib &F) {
    using namespace jackee::ir;
    (void)F;
    TypeId Svc = P.addClass("t.Svc", TypeKind::Class, L.Object, {}, false,
                            true);
    P.annotateType(Svc, "org.springframework.stereotype.@Service");
    P.addMethod(Svc, "<init>", {}, TypeId::invalid());
    MethodBuilder Work = P.addMethod(Svc, "work", {}, L.Object);
    {
      VarId M = Work.local("m", L.HashMap);
      VarId K = Work.local("k", L.String);
      VarId V = Work.local("v", L.Object);
      Work.alloc(M, L.HashMap)
          .specialCall(VarId::invalid(), M, L.HashMapInit, {})
          .stringConst(K, "key")
          .virtualCall(VarId::invalid(), M, "put", {L.Object, L.Object},
                       {K, K})
          .virtualCall(V, M, "get", {L.Object}, {K})
          .ret(V);
    }

    TypeId Ctl = P.addClass("t.Ctl", TypeKind::Class, L.Object, {}, false,
                            true);
    P.annotateType(Ctl, "org.springframework.stereotype.@Controller");
    P.addMethod(Ctl, "<init>", {}, TypeId::invalid());
    FieldId SvcF = P.addField(Ctl, "svc", Svc);
    P.annotateField(SvcF,
                    "org.springframework.beans.factory.annotation.@Autowired");
    MethodBuilder Handle = P.addMethod(Ctl, "handle", {}, L.Object);
    P.annotateMethod(
        Handle.id(), "org.springframework.web.bind.annotation.@RequestMapping");
    {
      VarId S = Handle.local("s", Svc);
      VarId R = Handle.local("r", L.Object);
      VarId C = Handle.local("c", P.findType("t.Svc"));
      Handle.load(S, Handle.thisVar(), SvcF)
          .virtualCall(R, S, "work", {}, {})
          .cast(C, Svc, R)
          .ret(R);
    }

    TypeId Dead =
        P.addClass("t.Dead", TypeKind::Class, L.Object, {}, false, true);
    P.addMethod(Dead, "never", {}, TypeId::invalid());
    return std::vector<std::pair<std::string, std::string>>{};
  };
  return App;
}

TEST(AnalysisConfigTest, NamesAndConfigs) {
  EXPECT_STREQ(analysisName(AnalysisKind::DoopBaselineCI), "doop-ci");
  EXPECT_STREQ(analysisName(AnalysisKind::CI), "ci");
  EXPECT_STREQ(analysisName(AnalysisKind::OneObjH), "1objH");
  EXPECT_STREQ(analysisName(AnalysisKind::TwoObjH), "2objH");
  EXPECT_STREQ(analysisName(AnalysisKind::Mod2ObjH), "mod-2objH");

  EXPECT_EQ(solverConfig(AnalysisKind::CI).ContextDepth, 0u);
  EXPECT_EQ(solverConfig(AnalysisKind::OneObjH).ContextDepth, 1u);
  EXPECT_EQ(solverConfig(AnalysisKind::TwoObjH).ContextDepth, 2u);
  EXPECT_EQ(solverConfig(AnalysisKind::TwoObjH).HeapDepth, 1u);

  EXPECT_TRUE(usesSoundModuloCollections(AnalysisKind::Mod2ObjH));
  EXPECT_FALSE(usesSoundModuloCollections(AnalysisKind::TwoObjH));
  EXPECT_TRUE(usesBaselineRulesOnly(AnalysisKind::DoopBaselineCI));
  EXPECT_FALSE(usesBaselineRulesOnly(AnalysisKind::CI));
}

TEST(PipelineRunTest, TinyAppEndToEnd) {
  Metrics M = runAnalysis(tinyApp(), AnalysisKind::Mod2ObjH).value();
  EXPECT_EQ(M.App, "tiny");
  EXPECT_EQ(M.Analysis, "mod-2objH");
  // 6 app concrete methods: Svc.<init>, work, Ctl.<init>, handle, Dead.never.
  EXPECT_EQ(M.AppConcreteMethods, 5u);
  EXPECT_EQ(M.AppReachableMethods, 4u); // all but Dead.never
  EXPECT_NEAR(M.reachabilityPercent(), 80.0, 0.01);
  EXPECT_GT(M.CallGraphEdges, 0u);
  EXPECT_GT(M.VptTuplesTotal, 0u);
  EXPECT_GT(M.VptTuplesJavaUtil, 0u);
  EXPECT_GT(M.AvgObjsPerVar, 0.0);
  EXPECT_GE(M.EntryPointsExercised, 1u);
  EXPECT_GE(M.InjectionsApplied, 1u);
  EXPECT_EQ(M.AppCasts, 1u);
}

TEST(PipelineRunTest, BaselineSeesNothingInAnnotationApp) {
  Metrics M = runAnalysis(tinyApp(), AnalysisKind::DoopBaselineCI).value();
  EXPECT_EQ(M.AppReachableMethods, 0u);
}

TEST(PipelineRunTest, JavaUtilShareConsistency) {
  Metrics M = runAnalysis(tinyApp(), AnalysisKind::TwoObjH).value();
  EXPECT_GE(M.javaUtilShare(), 0.0);
  EXPECT_LE(M.javaUtilShare(), 1.0);
  EXPECT_NEAR(M.javaUtilSeconds() + M.nonJavaUtilSeconds(), M.ElapsedSeconds,
              1e-9);
  EXPECT_LE(M.VptTuplesJavaUtil, M.VptTuplesTotal);
}

TEST(PipelineRunTest, MainClassEntry) {
  Application Desktop = synth::dacapoLikeApp();
  Metrics M = runAnalysis(Desktop, AnalysisKind::CI).value();
  EXPECT_GT(M.AppReachableMethods, 0u);
  // Half the worker chain is dead by construction.
  EXPECT_LT(M.reachabilityPercent(), 100.0);
}

} // namespace

/// Names a sweep case by its app, for gtest and ctest, which would otherwise
/// print the enum's raw bytes. gtest finds it by argument-dependent lookup.
namespace jackee::synth {
void PrintTo(BenchApp App, std::ostream *OS) { *OS << profileFor(App).Name; }
} // namespace jackee::synth

namespace {

/// Property sweep across all apps and analyses: structural invariants the
/// paper's tables rely on.
class AllAppsSweep : public ::testing::TestWithParam<synth::BenchApp> {};

TEST_P(AllAppsSweep, MetricsInvariants) {
  Application App = synth::applicationFor(GetParam());
  Metrics CI = runAnalysis(App, AnalysisKind::CI).value();
  Metrics Mod = runAnalysis(App, AnalysisKind::Mod2ObjH).value();
  Metrics Doop = runAnalysis(App, AnalysisKind::DoopBaselineCI).value();

  // Completeness: JackEE strictly beats the baseline on every benchmark.
  EXPECT_GT(Mod.AppReachableMethods, Doop.AppReachableMethods);
  EXPECT_LE(Mod.AppReachableMethods, Mod.AppConcreteMethods);

  // Precision: context sensitivity never hurts these metrics.
  EXPECT_LE(Mod.AvgObjsPerVar, CI.AvgObjsPerVar);
  EXPECT_LE(Mod.AvgObjsPerAppVar, CI.AvgObjsPerAppVar);
  EXPECT_LE(Mod.AppPolyVCalls, CI.AppPolyVCalls);
  EXPECT_LE(Mod.AppMayFailCasts, CI.AppMayFailCasts);

  // Denominators are static program properties: identical across analyses.
  EXPECT_EQ(Mod.AppConcreteMethods, CI.AppConcreteMethods);
  EXPECT_EQ(Mod.AppVirtualCallSites, CI.AppVirtualCallSites);
  EXPECT_EQ(Mod.AppCasts, CI.AppCasts);

  // Sanity: there are poly calls and may-fail casts to distinguish at all.
  EXPECT_GT(CI.AppPolyVCalls, 0u);
  EXPECT_GT(CI.AppMayFailCasts, 0u);
}

TEST_P(AllAppsSweep, SoundModuloReducesWork) {
  Application App = synth::applicationFor(GetParam());
  Metrics Orig = runAnalysis(App, AnalysisKind::TwoObjH).value();
  Metrics Mod = runAnalysis(App, AnalysisKind::Mod2ObjH).value();
  // The paper's scalability claim, on solver effort (robust against wall
  // clock noise): strictly less work and fewer java.util inferences.
  EXPECT_LT(Mod.SolverWorkItems, Orig.SolverWorkItems);
  EXPECT_LT(Mod.VptTuplesJavaUtil, Orig.VptTuplesJavaUtil);
  // And precision is never worse where the variable population is the same
  // across modes (application variables). The all-vars average is not
  // comparable pointwise: the original library model contributes thousands
  // of small-set internal variables that dilute its mean.
  EXPECT_LE(Mod.AvgObjsPerAppVar, Orig.AvgObjsPerAppVar + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, AllAppsSweep,
    ::testing::Values(synth::BenchApp::Bitbucket, synth::BenchApp::Pybbs,
                      synth::BenchApp::SpringBlog, synth::BenchApp::WebGoat,
                      synth::BenchApp::OpenCms));

} // namespace

#include "core/Report.h"

namespace {

TEST(ReportTest, DeterministicSortedDumps) {
  // Build and solve the tiny app manually so we hold the solver.
  Application App = tinyApp();
  SymbolTable Symbols;
  ir::Program P(Symbols);
  auto L = javalib::buildJavaLibrary(P, javalib::CollectionModel::SoundModulo);
  auto F = frameworks::buildFrameworkLibrary(P, L);
  auto Configs = App.Populate(P, L, F);
  (void)Configs;
  datalog::Database DB(Symbols);
  frameworks::FrameworkManager FM(P, DB);
  FM.addDefaultFrameworks();
  P.finalize();
  ASSERT_EQ(FM.prepare(), "");
  pointsto::Solver S(P, solverConfig(AnalysisKind::Mod2ObjH));
  S.addPlugin(&FM);
  S.solve();

  std::string Reach = reachableMethodsReport(S);
  EXPECT_NE(Reach.find("t.Ctl.handle"), std::string::npos);
  EXPECT_NE(Reach.find("t.Svc.work"), std::string::npos);
  EXPECT_EQ(Reach.find("t.Dead.never"), std::string::npos);

  std::string Cg = callGraphReport(S);
  EXPECT_NE(Cg.find("t.Ctl.handle -> t.Svc.work"), std::string::npos);

  std::string Vpt = varPointsToReport(S);
  EXPECT_NE(Vpt.find("t.Svc.work/"), std::string::npos);
  EXPECT_NE(Vpt.find("java.lang.String@key"), std::string::npos);

  std::string Summary = summaryReport(S);
  EXPECT_NE(Summary.find("call-graph edges"), std::string::npos);

  // Determinism: lines are sorted.
  auto isSorted = [](const std::string &Text) {
    std::vector<std::string> Lines;
    std::istringstream In(Text);
    for (std::string Line; std::getline(In, Line);)
      Lines.push_back(Line);
    return std::is_sorted(Lines.begin(), Lines.end());
  };
  EXPECT_TRUE(isSorted(Reach));
  EXPECT_TRUE(isSorted(Cg));
  EXPECT_TRUE(isSorted(Vpt));
}

} // namespace
