//===- profile_test.cpp - Deep-profiler determinism + census tests ---------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Covers the deep profiler (observe/Profile.h, DESIGN.md §14) end to end:
// the headline invariance sweep (the text report and the volatile-stripped
// JSON of a profiled matrix are byte-identical at 1 and 4 jobs), evaluator
// rule counters on a tiny program, census
// correctness on a hand-built solver fixture with known shared sets, the
// EventSink's seq ordering and buffer-to-file handoff, and the
// disabled-by-default / JACKEE_PROFILE enablement contract.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "datalog/Database.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"
#include "observe/Profile.h"
#include "pointsto/Solver.h"
#include "synth/SynthApp.h"

#include "gtest/gtest.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace jackee;
using namespace jackee::core;
using namespace jackee::observe;

namespace {

//===----------------------------------------------------------------------===//
// Session integration: the invariance sweep
//===----------------------------------------------------------------------===//

/// Replaces the value of every volatile JSON field with `0`, leaving the
/// deterministic fields (and the document shape) intact. Field list
/// mirrors the classification in observe/Profile.h and the substrings in
/// scripts/profile_report.py.
std::string stripVolatile(std::string Json) {
  for (const char *Key : {"wall_seconds", "phase_seconds", "peak_rss_bytes"}) {
    std::string Needle = std::string("\"") + Key + "\": ";
    size_t Pos = 0;
    while ((Pos = Json.find(Needle, Pos)) != std::string::npos) {
      size_t Start = Pos + Needle.size();
      size_t End = Start;
      while (End < Json.size() &&
             (std::isdigit(static_cast<unsigned char>(Json[End])) ||
              Json[End] == '.' || Json[End] == '-'))
        ++End;
      Json.replace(Start, End - Start, "0");
      Pos = Start + 1;
    }
  }
  return Json;
}

/// The profiles of a WebGoat + pet-store × ci + mod-2objH matrix run on
/// \p Jobs workers, in the matrix's app-major order (WebGoat/ci first).
std::vector<std::shared_ptr<const Profile>> profiledMatrix(unsigned Jobs) {
  SessionOptions SO;
  SO.Jobs = Jobs;
  SO.Profile = true;
  AnalysisSession Session(SO);
  std::vector<AnalysisResult> Results = Session.runMatrix(
      {synth::applicationFor(synth::BenchApp::WebGoat), synth::petstoreApp()},
      {AnalysisKind::CI, AnalysisKind::Mod2ObjH});
  std::vector<std::shared_ptr<const Profile>> Profiles;
  for (const AnalysisResult &R : Results) {
    EXPECT_TRUE(R.ok());
    if (!R.ok() || !R->ProfileData) {
      ADD_FAILURE() << "no profile data";
      return {};
    }
    Profiles.push_back(R->ProfileData);
  }
  return Profiles;
}

TEST(ProfileInvarianceSweep, ReportIdenticalAcrossJobCounts) {
  // The acceptance criterion of DESIGN.md §14: every cell's text report is
  // bit-identical — and its JSON identical minus the volatile wall-time
  // and RSS fields — at 1 and 4 matrix jobs.
  std::vector<std::shared_ptr<const Profile>> Base = profiledMatrix(1);
  ASSERT_EQ(Base.size(), 4u);
  std::string FirstText = renderProfileText(*Base[0]);
  // Sanity: the report exercises all three pillars.
  for (const char *Needle :
       {"== profile: WebGoat/ci ==", "-- hot rules", "-- hot relations",
        "-- points-to census --", "sharing ", "package shares"})
    EXPECT_NE(FirstText.find(Needle), std::string::npos)
        << "report is missing \"" << Needle << "\"";

  std::vector<std::shared_ptr<const Profile>> Wide = profiledMatrix(4);
  ASSERT_EQ(Wide.size(), Base.size());
  for (size_t I = 0; I != Base.size(); ++I) {
    EXPECT_EQ(renderProfileText(*Base[I]), renderProfileText(*Wide[I]))
        << Base[I]->Label;
    EXPECT_EQ(stripVolatile(profileToJson(*Base[I])),
              stripVolatile(profileToJson(*Wide[I])))
        << Base[I]->Label;
  }
}

TEST(ProfileInvarianceSweep, PhasesAreNamedAndOrdered) {
  std::vector<std::shared_ptr<const Profile>> Profiles = profiledMatrix(1);
  ASSERT_FALSE(Profiles.empty());
  std::shared_ptr<const Profile> P = Profiles[0];
  ASSERT_EQ(P->Phases.size(), 4u);
  EXPECT_EQ(P->Phases[0].Name, "extract");
  EXPECT_EQ(P->Phases[1].Name, "wiring");
  EXPECT_EQ(P->Phases[2].Name, "solve");
  EXPECT_EQ(P->Phases[3].Name, "report");
  // The phase-boundary RSS samples are real measurements, not defaults.
  for (const ProfilePhase &Ph : P->Phases)
    EXPECT_GT(Ph.PeakRssBytes, uint64_t(1) << 20) << Ph.Name;
  // The census saw a solved cell.
  EXPECT_GT(P->Census.VarNodes, 0u);
  EXPECT_GT(P->Census.NonEmptySets, 0u);
  EXPECT_GE(P->Census.sharingRatio(), 1.0);
  EXPECT_GE(P->Census.TotalEntries, P->Census.DistinctEntries);
}

//===----------------------------------------------------------------------===//
// Evaluator rule counters
//===----------------------------------------------------------------------===//

TEST(EvaluatorProfileTest, CountersOnTinyProgram) {
  SymbolTable Symbols;
  datalog::Database DB(Symbols);
  datalog::RuleSet Rules;
  datalog::parseRules(DB, Rules,
                      ".decl a(x: symbol)\n"
                      ".decl b(x: symbol)\n"
                      "b(x) :- a(x).\n",
                      "test");
  for (const char *V : {"v1", "v2", "v3"})
    DB.insertFact("a", {V});

  datalog::Evaluator Eval(DB, Rules);
  EXPECT_FALSE(Eval.ruleProfilingEnabled());
  Eval.enableRuleProfiling();
  ASSERT_TRUE(Eval.ruleProfilingEnabled());
  Eval.run();

  ASSERT_EQ(Eval.ruleProfiles().size(), 1u);
  const datalog::Evaluator::RuleProfile &RP = Eval.ruleProfiles()[0];
  EXPECT_EQ(RP.Derivations, 3u); // every a-fact derives a fresh b-tuple
  EXPECT_EQ(RP.Matches, 3u);
  EXPECT_GE(RP.Passes, 1u);
  EXPECT_GE(RP.RoundsFired, 1u);
  EXPECT_GE(RP.TuplesConsidered, 3u);
  EXPECT_EQ(DB.relation(DB.find("b")).size(), 3u);
}

TEST(EvaluatorProfileTest, DisabledKeepsNoProfiles) {
  SymbolTable Symbols;
  datalog::Database DB(Symbols);
  datalog::RuleSet Rules;
  datalog::parseRules(DB, Rules,
                      ".decl a(x: symbol)\n"
                      ".decl b(x: symbol)\n"
                      "b(x) :- a(x).\n",
                      "test");
  DB.insertFact("a", {"v"});
  datalog::Evaluator Eval(DB, Rules);
  Eval.run();
  EXPECT_TRUE(Eval.ruleProfiles().empty());
}

//===----------------------------------------------------------------------===//
// Census on a hand-built solver fixture
//===----------------------------------------------------------------------===//

TEST(CensusTest, HandBuiltSharedSets) {
  SymbolTable Symbols;
  ir::Program P(Symbols);
  ir::TypeId Object =
      P.addClass("java.lang.Object", ir::TypeKind::Class, ir::TypeId::invalid());
  P.addClass("java.lang.String", ir::TypeKind::Class, Object);
  P.addClass("java.lang.Throwable", ir::TypeKind::Class, Object);
  ir::TypeId Main =
      P.addClass("java.util.CensusMain", ir::TypeKind::Class, Object);

  // Four vars, three of which share the same one-element set:
  //   x = {o1}   y = {o1}   w = {o1}   z = {o1, o2}
  ir::MethodBuilder M =
      P.addMethod(Main, "main", {}, ir::TypeId::invalid(), /*IsStatic=*/true);
  ir::VarId X = M.local("x", Object);
  ir::VarId Y = M.local("y", Object);
  ir::VarId Z = M.local("z", Object);
  ir::VarId W = M.local("w", Object);
  M.alloc(X, Main).alloc(Z, Main).move(Y, X).move(Z, X).move(W, X);
  P.finalize();

  pointsto::Solver S(P, pointsto::SolverConfig{0, 0});
  S.makeReachable(M.id(), S.contexts().empty());
  S.solve();

  ProfileCensus C = S.censusPointsTo({"java.util", "com.example"});
  EXPECT_EQ(C.VarNodes, 4u);
  EXPECT_EQ(C.NonEmptySets, 4u);
  EXPECT_EQ(C.DistinctSets, 2u); // {o1} and {o1, o2}
  EXPECT_EQ(C.TotalEntries, 5u);
  EXPECT_EQ(C.DistinctEntries, 3u);
  EXPECT_EQ(C.SetBytes, 5u * sizeof(uint32_t));
  // Hash-consing keeps one copy of each distinct set.
  EXPECT_EQ(C.ReclaimableBytes, 2u * sizeof(uint32_t));
  EXPECT_EQ(C.MaxSetSize, 2u);
  EXPECT_DOUBLE_EQ(C.sharingRatio(), 2.0);
  // Bucket 0 = size-1 sets, bucket 1 = size-2 sets.
  ASSERT_EQ(C.Histogram.size(), 2u);
  EXPECT_EQ(C.Histogram[0], 3u);
  EXPECT_EQ(C.Histogram[1], 1u);
  // All five tuples belong to vars declared in java.util.CensusMain.
  ASSERT_EQ(C.Packages.size(), 2u);
  EXPECT_EQ(C.Packages[0].Prefix, "java.util");
  EXPECT_EQ(C.Packages[0].Tuples, 5u);
  EXPECT_EQ(C.Packages[1].Prefix, "com.example");
  EXPECT_EQ(C.Packages[1].Tuples, 0u);
}

//===----------------------------------------------------------------------===//
// EventSink
//===----------------------------------------------------------------------===//

TEST(EventSinkTest, SeqOrderingAndBuffer) {
  EventSink Sink;
  Sink.event("alpha").str("k", "v");
  Sink.event("beta").num("n", uint64_t(7)).num("x", 1.5);
  EXPECT_EQ(Sink.eventCount(), 2u);
  std::string Buf = Sink.buffered();
  EXPECT_EQ(Buf, "{\"seq\": 0, \"event\": \"alpha\", \"k\": \"v\"}\n"
                 "{\"seq\": 1, \"event\": \"beta\", \"n\": 7, "
                 "\"x\": 1.500000}\n");
  EXPECT_EQ(Sink.bytesWritten(), Buf.size());
}

TEST(EventSinkTest, OpenFileFlushesBufferAndStreams) {
  std::string Path = ::testing::TempDir() + "jackee_event_sink_test.jsonl";
  {
    EventSink Sink;
    Sink.event("buffered-one");
    ASSERT_TRUE(Sink.openFile(Path));
    EXPECT_TRUE(Sink.buffered().empty()); // handed off to the file
    Sink.event("streamed-two");           // flushed line by line
    std::ifstream In(Path);
    std::string Line;
    std::vector<std::string> Lines;
    while (std::getline(In, Line))
      Lines.push_back(Line);
    ASSERT_EQ(Lines.size(), 2u);
    EXPECT_EQ(Lines[0], "{\"seq\": 0, \"event\": \"buffered-one\"}");
    EXPECT_EQ(Lines[1], "{\"seq\": 1, \"event\": \"streamed-two\"}");
  }
  std::remove(Path.c_str());
}

TEST(EventSinkTest, OpenFileFailureKeepsBuffering) {
  EventSink Sink;
  Sink.event("kept");
  EXPECT_FALSE(Sink.openFile("/nonexistent-dir/x/y/z.jsonl"));
  EXPECT_NE(Sink.buffered().find("\"event\": \"kept\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Enablement contract
//===----------------------------------------------------------------------===//

TEST(SessionProfileTest, DisabledByDefault) {
  SessionOptions SO;
  SO.Jobs = 1;
  AnalysisSession Session(SO);
  EXPECT_FALSE(Session.profilingEnabled());
  EXPECT_EQ(Session.eventSink(), nullptr);
  AnalysisResult R = Session.run(
      synth::applicationFor(synth::BenchApp::WebGoat), AnalysisKind::CI);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->ProfileData, nullptr);
}

TEST(SessionProfileTest, EnvVarEnablesAndNamesEventLog) {
  std::string Path = ::testing::TempDir() + "jackee_profile_events.jsonl";
  ::setenv("JACKEE_PROFILE", Path.c_str(), 1);
  {
    AnalysisSession Session(SessionOptions{});
    EXPECT_TRUE(Session.profilingEnabled());
    ASSERT_NE(Session.eventSink(), nullptr);
    AnalysisResult R = Session.run(
        synth::applicationFor(synth::BenchApp::WebGoat), AnalysisKind::CI);
    ASSERT_TRUE(R.ok());
    EXPECT_NE(R->ProfileData, nullptr);
  }
  ::unsetenv("JACKEE_PROFILE");
  std::ifstream In(Path);
  std::stringstream Text;
  Text << In.rdbuf();
  // The cell published its summary heartbeat to the JSONL log.
  EXPECT_NE(Text.str().find("\"event\": \"profile\""), std::string::npos);
  std::remove(Path.c_str());
}

TEST(SessionProfileTest, OptionEnablesWithoutEnv) {
  SessionOptions SO;
  SO.Jobs = 1;
  SO.Profile = true;
  AnalysisSession Session(SO);
  EXPECT_TRUE(Session.profilingEnabled());
  ASSERT_NE(Session.eventSink(), nullptr);
  EXPECT_EQ(Session.eventSink()->eventCount(), 0u); // no cells yet
}

} // namespace
