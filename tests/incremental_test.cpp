//===- incremental_test.cpp - Delta-update differential oracle -------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// The correctness contract of `AnalysisCell::update` (DESIGN.md §12): after
// any sequence of deltas, the live cell's fixpoint must be semantically
// identical to a cold analysis of the edited program. These tests replay
// randomized edit sequences and compare every intermediate state against
// the from-scratch baseline built by `core::applyDelta` — canonical
// points-to/call-graph/reachability dumps, the deterministic metric
// fields, and the explained entry-point set.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "provenance/Explain.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

using namespace jackee;
using namespace jackee::core;

namespace {

std::string pluginName(unsigned K) {
  return "test.Plugin" + std::to_string(K);
}

/// The base application: one XML-registered servlet that exercises the
/// request API, one XML-wired bean, and one deliberately unwired class
/// (`test.Aux`) that warm (insert-only) edits can later promote to a bean.
Application editableApp() {
  Application A;
  A.Name = "editable";
  A.Populate = [](ir::Program &P, const javalib::JavaLib &L,
                  const frameworks::FrameworkLib &F) {
    auto appClass = [&](const std::string &Name, ir::TypeId Super) {
      return P.addClass(Name, ir::TypeKind::Class, Super, {}, false,
                        /*IsApplication=*/true);
    };

    ir::TypeId Store = appClass("test.Store", L.Object);
    P.addMethod(Store, "<init>", {}, ir::TypeId::invalid());
    ir::MethodBuilder Put =
        P.addMethod(Store, "put", {L.Object}, ir::TypeId::invalid());
    {
      ir::VarId V = Put.local("v", L.Object);
      Put.move(V, Put.param(0));
    }

    ir::TypeId Front = appClass("test.FrontServlet", F.HttpServlet);
    ir::FieldId FrontStore = P.addField(Front, "store", Store);
    ir::MethodBuilder DoGet = P.addMethod(
        Front, "doGet", {F.HttpServletRequest, F.HttpServletResponse},
        ir::TypeId::invalid());
    {
      ir::VarId Name = DoGet.local("name", L.String);
      ir::VarId Param = DoGet.local("param", L.String);
      ir::VarId S = DoGet.local("s", Store);
      DoGet.stringConst(Name, "id")
          .virtualCall(Param, DoGet.param(0), "getParameter", {L.String},
                       {Name})
          .load(S, DoGet.thisVar(), FrontStore)
          .virtualCall(ir::VarId::invalid(), S, "put", {L.Object}, {Param});
    }

    ir::TypeId Aux = appClass("test.Aux", L.Object);
    P.addMethod(Aux, "<init>", {}, ir::TypeId::invalid());

    return std::vector<std::pair<std::string, std::string>>{
        {"beans.xml",
         "<beans>\n"
         "  <bean id=\"store\" class=\"test.Store\"/>\n"
         "  <bean id=\"front\" class=\"test.FrontServlet\">\n"
         "    <property name=\"store\" ref=\"store\"/>\n"
         "  </bean>\n"
         "</beans>\n"},
        {"web.xml",
         "<web-app>\n"
         "  <servlet>\n"
         "    <servlet-class>test.FrontServlet</servlet-class>\n"
         "  </servlet>\n"
         "</web-app>\n"}};
  };
  return A;
}

/// The delta that toggles plugin \p K on. Even plugins are servlets (the
/// servlet.dl rule path), odd plugins are beans (the Spring glue path).
CellDelta addPlugin(unsigned K) {
  std::string Cls = pluginName(K);
  CellDelta D;
  D.AddCode = [K, Cls](ir::Program &P, const javalib::JavaLib &L,
                       const frameworks::FrameworkLib &F) {
    bool IsServlet = K % 2 == 0;
    ir::TypeId T =
        P.addClass(Cls, ir::TypeKind::Class,
                   IsServlet ? F.HttpServlet : L.Object, {}, false,
                   /*IsApplication=*/true);
    P.addMethod(T, "<init>", {}, ir::TypeId::invalid());
    if (IsServlet) {
      ir::MethodBuilder DoGet = P.addMethod(
          T, "doGet", {F.HttpServletRequest, F.HttpServletResponse},
          ir::TypeId::invalid());
      ir::VarId Name = DoGet.local("name", L.String);
      ir::VarId Param = DoGet.local("param", L.String);
      DoGet.stringConst(Name, "key").virtualCall(
          Param, DoGet.param(0), "getParameter", {L.String}, {Name});
    } else {
      ir::MethodBuilder Run =
          P.addMethod(T, "run", {}, ir::TypeId::invalid());
      ir::VarId V = Run.local("v", L.String);
      Run.stringConst(V, Cls);
    }
  };
  if (K % 2 == 0)
    D.AddConfigs.push_back(
        {"web-p" + std::to_string(K) + ".xml",
         "<web-app>\n  <servlet>\n    <servlet-class>" + Cls +
             "</servlet-class>\n  </servlet>\n</web-app>\n"});
  else
    D.AddConfigs.push_back(
        {"beans-p" + std::to_string(K) + ".xml",
         "<beans>\n  <bean id=\"p" + std::to_string(K) + "\" class=\"" +
             Cls + "\"/>\n</beans>\n"});
  return D;
}

/// The delta that toggles plugin \p K off again.
CellDelta removePlugin(unsigned K) {
  CellDelta D;
  D.RetractClasses.push_back(pluginName(K));
  D.RetractConfigs.push_back((K % 2 == 0 ? "web-p" : "beans-p") +
                             std::to_string(K) + ".xml");
  return D;
}

/// An insert-only config edit: wire `test.Aux` as a bean. The first such
/// edit takes the warm (no-reset) update path; later ones reset because
/// the class then owns a bean object.
CellDelta wireAux(unsigned Serial) {
  CellDelta D;
  D.AddConfigs.push_back(
      {"aux" + std::to_string(Serial) + ".xml",
       "<beans>\n  <bean id=\"aux" + std::to_string(Serial) +
           "\" class=\"test.Aux\"/>\n</beans>\n"});
  return D;
}

/// Sorted root atoms of the entry-point explanation — id-comparable
/// between the live cell and the scratch baseline because `applyDelta`
/// reproduces the incremental path's entity-id assignment exactly.
std::vector<std::string> entryPointAtoms(AnalysisCell &Cell) {
  std::string Error;
  std::vector<std::string> Atoms;
  for (const provenance::DerivationNode &Tree :
       Cell.explain("ExercisedEntryPoint", Error))
    Atoms.push_back(Tree.Atom);
  EXPECT_TRUE(Error.empty()) << Error;
  std::sort(Atoms.begin(), Atoms.end());
  return Atoms;
}

/// \p X printed exactly (hexadecimal floating point).
std::string exactDouble(double X) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", X);
  return Buf;
}

/// The deterministic (thread- and path-invariant) metric fields.
std::string semanticMetrics(const Metrics &M) {
  return "reach=" + std::to_string(M.AppReachableMethods) + "/" +
         std::to_string(M.AppConcreteMethods) +
         " reachall=" + std::to_string(M.ReachableMethodsTotal) +
         " objs=" + exactDouble(M.AvgObjsPerVar) + "/" +
         exactDouble(M.AvgObjsPerAppVar) +
         " vpt=" + std::to_string(M.VptTuplesTotal) +
         " vptju=" + std::to_string(M.VptTuplesJavaUtil) +
         " cg=" + std::to_string(M.CallGraphEdges) +
         " poly=" + std::to_string(M.AppPolyVCalls) +
         " casts=" + std::to_string(M.AppCasts) + "/" +
         std::to_string(M.AppMayFailCasts) +
         " beans=" + std::to_string(M.BeansCreated) +
         " inject=" + std::to_string(M.InjectionsApplied) +
         " entry=" + std::to_string(M.EntryPointsExercised);
}

/// Replays \p Edits edits drawn from \p Rng against one live cell and
/// checks every intermediate state against a cold cell of the accumulated
/// delta sequence.
void runDifferential(std::mt19937 &Rng, unsigned Edits) {
  // The live cell and every scratch cell decode the same memoized image,
  // so this also checks that one cell's tombstones never reach another.
  AnalysisSession Session;

  CellResult Live = Session.open(editableApp(), AnalysisKind::Mod2ObjH);
  ASSERT_TRUE(Live.ok()) << Live.error().Message;

  std::vector<CellDelta> Applied;
  bool PluginOn[4] = {false, false, false, false};
  unsigned AuxSerial = 0;

  for (unsigned Step = 0; Step != Edits; ++Step) {
    unsigned Choice = Rng() % 5;
    CellDelta Delta;
    if (Choice < 4) {
      Delta = PluginOn[Choice] ? removePlugin(Choice) : addPlugin(Choice);
      PluginOn[Choice] = !PluginOn[Choice];
    } else {
      Delta = wireAux(++AuxSerial);
    }
    Applied.push_back(Delta);

    AnalysisResult Updated = Live->update(Delta);
    ASSERT_TRUE(Updated.ok()) << Updated.error().Message;

    CellResult Scratch = Session.open(applyDelta(editableApp(), Applied),
                                      AnalysisKind::Mod2ObjH);
    ASSERT_TRUE(Scratch.ok()) << Scratch.error().Message;

    SCOPED_TRACE("step " + std::to_string(Step + 1));
    EXPECT_EQ(Live->canonicalDigest(), Scratch->canonicalDigest());
    EXPECT_EQ(semanticMetrics(Live->metrics()),
              semanticMetrics(Scratch->metrics()));
    EXPECT_EQ(entryPointAtoms(*Live), entryPointAtoms(*Scratch));
  }
  EXPECT_EQ(Live->updateCount(), Edits);
}

class IncrementalDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(IncrementalDifferential, RandomEditSequenceMatchesFromScratch) {
  std::mt19937 Rng(GetParam());
  runDifferential(Rng, /*Edits=*/5);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, IncrementalDifferential, ::testing::Range(1u, 10u),
    [](const ::testing::TestParamInfo<unsigned> &I) {
      return "seed" + std::to_string(I.param);
    });

/// The scripted sequence the CI incremental-smoke job replays, pinned
/// here too so a CI-only breakage has a local repro.
TEST(IncrementalScripted, WarmInsertOnlyEditMatchesFromScratch) {
  AnalysisSession Session;
  CellResult Live = Session.open(editableApp(), AnalysisKind::TwoObjH);
  ASSERT_TRUE(Live.ok()) << Live.error().Message;
  uint64_t ColdVpt = Live->metrics().VptTuplesTotal;

  std::vector<CellDelta> Applied{wireAux(1)};
  AnalysisResult Updated = Live->update(Applied[0]);
  ASSERT_TRUE(Updated.ok()) << Updated.error().Message;
  EXPECT_GE(Updated->VptTuplesTotal, ColdVpt); // insert-only: monotone

  AnalysisSession Fresh;
  CellResult Scratch =
      Session.open(applyDelta(editableApp(), Applied), AnalysisKind::TwoObjH);
  ASSERT_TRUE(Scratch.ok()) << Scratch.error().Message;
  EXPECT_EQ(Live->canonicalDigest(), Scratch->canonicalDigest());
  EXPECT_EQ(semanticMetrics(Live->metrics()),
            semanticMetrics(Scratch->metrics()));
}

TEST(IncrementalScripted, RetractionRemovesDerivedEntryPoints) {
  AnalysisSession Session;
  CellResult Live = Session.open(editableApp(), AnalysisKind::CI);
  ASSERT_TRUE(Live.ok()) << Live.error().Message;
  uint32_t BaseEntries = Live->metrics().EntryPointsExercised;

  ASSERT_TRUE(Live->update(addPlugin(0)).ok());
  EXPECT_GT(Live->metrics().EntryPointsExercised, BaseEntries);

  ASSERT_TRUE(Live->update(removePlugin(0)).ok());
  EXPECT_EQ(Live->metrics().EntryPointsExercised, BaseEntries);

  std::string Digest = Live->canonicalDigest();
  AnalysisSession Fresh;
  CellResult Cold = Fresh.open(editableApp(), AnalysisKind::CI);
  ASSERT_TRUE(Cold.ok()) << Cold.error().Message;
  // Add+remove must land exactly back on the unedited program's fixpoint.
  EXPECT_EQ(Digest, Cold->canonicalDigest());
}

TEST(IncrementalErrors, UnknownRetractionsLeaveTheCellUsable) {
  AnalysisSession Session;
  CellResult Live = Session.open(editableApp(), AnalysisKind::CI);
  ASSERT_TRUE(Live.ok()) << Live.error().Message;
  std::string Digest = Live->canonicalDigest();

  CellDelta BadClass;
  BadClass.RetractClasses.push_back("test.DoesNotExist");
  AnalysisResult R1 = Live->update(BadClass);
  ASSERT_FALSE(R1.ok());
  EXPECT_EQ(R1.error().Kind, AnalysisErrorKind::InvalidDelta);

  CellDelta BadConfig;
  BadConfig.RetractConfigs.push_back("missing.xml");
  AnalysisResult R2 = Live->update(BadConfig);
  ASSERT_FALSE(R2.ok());
  EXPECT_EQ(R2.error().Kind, AnalysisErrorKind::InvalidDelta);

  CellDelta BadXml;
  BadXml.AddConfigs.push_back({"broken.xml", "<beans"});
  AnalysisResult R3 = Live->update(BadXml);
  ASSERT_FALSE(R3.ok());
  EXPECT_EQ(R3.error().Kind, AnalysisErrorKind::ConfigParse);

  // Validation failures must not have touched the fixpoint.
  EXPECT_EQ(Live->canonicalDigest(), Digest);
  EXPECT_EQ(Live->updateCount(), 0u);
  EXPECT_TRUE(Live->update(CellDelta{}).ok()); // empty delta: no-op
}

} // namespace
