//===- profile_test.cpp - Deep-profiler determinism + census tests ---------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Covers the deep profiler (observe/Profile.h, DESIGN.md §14) end to end:
// the headline invariance sweep (the text report and the volatile-stripped
// JSON of a full session are byte-identical across join-plan modes), evaluator rule counters on a tiny program, census
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
  for (const char *Key :
       {"wall_seconds", "estimated_fanout", "tuples_considered",
        "store_bytes_approx", "index_bytes_approx", "indexes_approx",
        "phase_seconds", "peak_rss_bytes"}) {
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

/// One profiled WebGoat/CI cell under the given join-plan mode.
std::shared_ptr<const Profile> profiledCell(datalog::PlanMode Plan) {
  SessionOptions SO;
  SO.Jobs = 1;
  SO.Plan = Plan;
  SO.Profile = true;
  AnalysisSession Session(SO);
  AnalysisResult R = Session.run(
      synth::applicationFor(synth::BenchApp::WebGoat), AnalysisKind::CI);
  EXPECT_TRUE(R.ok());
  if (!R.ok() || !R->ProfileData) {
    ADD_FAILURE() << "no profile data";
    return nullptr;
  }
  return R->ProfileData;
}

TEST(ProfileInvarianceSweep, ReportIdenticalAcrossPlans) {
  // The acceptance criterion of DESIGN.md §14: the text report is
  // bit-identical — and the JSON identical minus volatile fields — across
  // plan modes {textual,greedy}.
  std::shared_ptr<const Profile> Base =
      profiledCell(datalog::PlanMode::Textual);
  ASSERT_NE(Base, nullptr);
  std::string BaseText = renderProfileText(*Base);
  std::string BaseJson = stripVolatile(profileToJson(*Base));
  ASSERT_FALSE(BaseText.empty());
  // Sanity: the report exercises all three pillars.
  for (const char *Needle :
       {"== profile: WebGoat/ci ==", "-- hot rules", "-- hot relations",
        "-- points-to census --", "sharing ", "package shares"})
    EXPECT_NE(BaseText.find(Needle), std::string::npos)
        << "report is missing \"" << Needle << "\"";

  std::shared_ptr<const Profile> P = profiledCell(datalog::PlanMode::Greedy);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(BaseText, renderProfileText(*P));
  EXPECT_EQ(BaseJson, stripVolatile(profileToJson(*P)));
}

TEST(ProfileInvarianceSweep, PhasesAreNamedAndOrdered) {
  std::shared_ptr<const Profile> P = profiledCell(datalog::PlanMode::Greedy);
  ASSERT_NE(P, nullptr);
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

TEST(EvaluatorProfileTest, DeterministicCountersMatchAcrossPlans) {
  // Transitive closure on a small random graph: derivations and matches
  // per rule are engine invariants; only the plan-dependent "considered"
  // and fanout columns may move.
  auto countersFor = [](datalog::PlanMode Plan) {
    SymbolTable Symbols;
    datalog::Database DB(Symbols);
    datalog::RuleSet Rules;
    datalog::parseRules(DB, Rules,
                        ".decl edge(a: symbol, b: symbol)\n"
                        ".decl path(a: symbol, b: symbol)\n"
                        "path(x, y) :- edge(x, y).\n"
                        "path(x, z) :- path(x, y), edge(y, z).\n",
                        "test");
    uint64_t Rng = 0x9e3779b97f4a7c15ull;
    for (int I = 0; I != 200; ++I) {
      Rng ^= Rng << 13;
      Rng ^= Rng >> 7;
      Rng ^= Rng << 17;
      DB.insertFact("edge", {"n" + std::to_string(Rng % 48),
                             "n" + std::to_string((Rng >> 8) % 48)});
    }
    datalog::Evaluator Eval(DB, Rules, Plan);
    Eval.enableRuleProfiling();
    Eval.run();
    std::vector<std::pair<uint64_t, uint64_t>> Counters;
    for (const datalog::Evaluator::RuleProfile &RP : Eval.ruleProfiles())
      Counters.push_back({RP.Derivations, RP.Matches});
    return Counters;
  };
  auto Base = countersFor(datalog::PlanMode::Textual);
  ASSERT_EQ(Base.size(), 2u);
  EXPECT_GT(Base[0].first, 0u);
  EXPECT_GT(Base[1].first, 0u);
  EXPECT_EQ(Base, countersFor(datalog::PlanMode::Greedy));
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
