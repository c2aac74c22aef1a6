//===- observe_test.cpp - Tracing + metrics observability tests ------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Covers the observe subsystem end to end: span nesting and cross-thread
// parenting, the deterministic structure renderer (worker exclusion, sibling
// sorting), Chrome trace-event export escaping, the metrics registry
// (counter/gauge/histogram semantics), JSON string escaping in
// metricsToJson, evaluator-stats column alignment, and the headline
// invariance sweep: the timestamp-stripped span tree of a full session is
// bit-identical at any thread/job count.
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "core/Session.h"
#include "observe/Json.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "synth/SynthApp.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace jackee;
using namespace jackee::core;
using namespace jackee::observe;

namespace {

//===----------------------------------------------------------------------===//
// JSON escaping
//===----------------------------------------------------------------------===//

TEST(JsonEscapeTest, PassthroughAndSpecials) {
  EXPECT_EQ(jsonEscape("plain text 123"), "plain text 123");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc\rd\be\ff"), "a\\nb\\tc\\rd\\be\\ff");
  EXPECT_EQ(jsonEscape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  // UTF-8 passes through untouched.
  EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
  EXPECT_EQ(jsonQuote("x\"y"), "\"x\\\"y\"");
}

//===----------------------------------------------------------------------===//
// Tracer / Span
//===----------------------------------------------------------------------===//

TEST(TracerTest, SpansNestPerThread) {
  Tracer T;
  uint32_t RootId, ChildId, SiblingId;
  {
    Span Root(&T, "root", "session");
    RootId = Root.id();
    {
      Span Child(&T, "child", "datalog");
      Child.arg("round", 3);
      Child.arg("kind", "delta");
      ChildId = Child.id();
    }
    Span Sibling(&T, "sibling", "datalog");
    SiblingId = Sibling.id();
  }
  std::vector<Tracer::SpanRecord> Spans = T.snapshot();
  ASSERT_EQ(Spans.size(), 3u);
  EXPECT_EQ(Spans[RootId].Parent, Tracer::NoSpan);
  EXPECT_EQ(Spans[ChildId].Parent, RootId);
  EXPECT_EQ(Spans[SiblingId].Parent, RootId); // child closed before sibling
  for (const Tracer::SpanRecord &S : Spans) {
    EXPECT_FALSE(S.Open);
    EXPECT_EQ(S.ThreadId, 0u); // one thread -> dense id 0
    EXPECT_GE(S.DurationUs, 0.0);
  }
  ASSERT_EQ(Spans[ChildId].Args.size(), 2u);
  EXPECT_EQ(Spans[ChildId].Args[0].Key, "round");
  EXPECT_EQ(Spans[ChildId].Args[0].Value, "3");
  EXPECT_FALSE(Spans[ChildId].Args[0].Quoted);
  EXPECT_EQ(Spans[ChildId].Args[1].Value, "delta");
  EXPECT_TRUE(Spans[ChildId].Args[1].Quoted);
}

TEST(TracerTest, ExplicitParentCrossesThreads) {
  Tracer T;
  Span Root(&T, "matrix", "session");
  uint32_t ChildId = Tracer::NoSpan;
  std::thread Worker([&] {
    Span Cell(&T, "cell", "session", Root.id());
    ChildId = Cell.id();
  });
  Worker.join();
  Root.end();
  std::vector<Tracer::SpanRecord> Spans = T.snapshot();
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(Spans[ChildId].Parent, 0u); // parented under the matrix span
  EXPECT_NE(Spans[ChildId].ThreadId, Spans[0].ThreadId);
}

TEST(TracerTest, InertGuardIsFree) {
  Span S(nullptr, "ghost", "session");
  S.arg("n", 1);
  EXPECT_FALSE(static_cast<bool>(S));
  EXPECT_EQ(S.id(), Tracer::NoSpan);
  S.end(); // idempotent no-op
  Span Default;
  EXPECT_FALSE(static_cast<bool>(Default));
}

TEST(TracerTest, MoveTransfersOwnership) {
  Tracer T;
  Span A(&T, "a", "session");
  Span B(std::move(A));
  EXPECT_FALSE(static_cast<bool>(A)); // NOLINT: testing moved-from state
  EXPECT_TRUE(static_cast<bool>(B));
  B.end();
  EXPECT_EQ(T.spanCount(), 1u);
  EXPECT_FALSE(T.snapshot()[0].Open); // closed exactly once
}

//===----------------------------------------------------------------------===//
// renderStructure: the determinism projection
//===----------------------------------------------------------------------===//

TEST(RenderStructureTest, SortsSiblingsAndSkipsWorkerSpans) {
  Tracer T;
  {
    Span Root(&T, "root", "session");
    {
      // Recorded b-then-a: the renderer must sort sibling subtrees.
      Span B(&T, "b-phase", "datalog");
      Span Merge(&T, "merge:VarPointsTo", Tracer::WorkerCategory);
    }
    Span A(&T, "a-phase", "datalog");
    A.arg("round", 2);
  }
  std::string Structure = renderStructure(T);
  EXPECT_EQ(Structure, "root [session]\n"
                       "  a-phase [datalog] round=2\n"
                       "  b-phase [datalog]\n");
  // The worker span still exists for the Chrome export and flame summary.
  EXPECT_NE(writeChromeTrace(T).find("merge:VarPointsTo"), std::string::npos);
  EXPECT_NE(renderFlame(T).find("merge:VarPointsTo"), std::string::npos);
}

TEST(RenderStructureTest, ConcurrentCellsSerializeCanonically) {
  // Two tracers record the same two cells in opposite thread interleavings;
  // the structure render must not depend on recording order.
  auto record = [](bool Swap) {
    Tracer T;
    Span Matrix(&T, "matrix", "session");
    auto cell = [&](const char *App) {
      Span Cell(&T, "cell", "session", Matrix.id());
      Cell.arg("app", App);
      Span Solve(&T, "solve", "pipeline");
    };
    cell(Swap ? "pybbs" : "webgoat");
    cell(Swap ? "webgoat" : "pybbs");
    Matrix.end();
    return renderStructure(T);
  };
  EXPECT_EQ(record(false), record(true));
}

//===----------------------------------------------------------------------===//
// Chrome trace-event export
//===----------------------------------------------------------------------===//

TEST(ChromeTraceTest, EscapesNamesAndFormatsEvents) {
  Tracer T;
  {
    Span S(&T, "quo\"te\\span", "datalog");
    S.arg("tuples", 42);
    S.arg("label", "line\nbreak");
  }
  std::string Json = writeChromeTrace(T);
  EXPECT_NE(Json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(Json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"quo\\\"te\\\\span\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"tuples\": 42"), std::string::npos); // numeric: bare
  EXPECT_NE(Json.find("\"label\": \"line\\nbreak\""), std::string::npos);
  // No raw control characters or unescaped quotes survive inside strings.
  EXPECT_EQ(Json.find("line\nbreak"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

double sampleValue(const std::vector<MetricsRegistry::Sample> &Samples,
                   std::string_view Name) {
  for (const MetricsRegistry::Sample &S : Samples)
    if (S.Name == Name)
      return S.Value;
  ADD_FAILURE() << "missing sample " << Name;
  return -1;
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry R;
  R.add("datalog.worker_idle_seconds", 0.25);
  R.add("datalog.worker_idle_seconds", 0.75);
  R.set("db.relation_bytes", 1024);
  R.set("db.relation_bytes", 2048); // last write wins
  for (double V : {1.0, 2.0, 3.0, 4.0})
    R.observe("datalog.round_delta_tuples", V);
  EXPECT_EQ(R.metricCount(), 3u);

  std::vector<MetricsRegistry::Sample> Samples = R.snapshot();
  // Sorted by name, histograms expanded.
  for (size_t I = 1; I < Samples.size(); ++I)
    EXPECT_LT(Samples[I - 1].Name, Samples[I].Name);
  EXPECT_DOUBLE_EQ(sampleValue(Samples, "datalog.worker_idle_seconds"), 1.0);
  EXPECT_DOUBLE_EQ(sampleValue(Samples, "db.relation_bytes"), 2048);
  EXPECT_DOUBLE_EQ(sampleValue(Samples, "datalog.round_delta_tuples.count"),
                   4);
  EXPECT_DOUBLE_EQ(sampleValue(Samples, "datalog.round_delta_tuples.sum"),
                   10);
  EXPECT_DOUBLE_EQ(sampleValue(Samples, "datalog.round_delta_tuples.min"), 1);
  EXPECT_DOUBLE_EQ(sampleValue(Samples, "datalog.round_delta_tuples.max"), 4);
  // Power-of-two bucket quantiles: p50 lands in (1,2], p95 in (2,4].
  EXPECT_DOUBLE_EQ(sampleValue(Samples, "datalog.round_delta_tuples.p50"), 2);
  EXPECT_DOUBLE_EQ(sampleValue(Samples, "datalog.round_delta_tuples.p95"), 4);
}

TEST(MetricsRegistryTest, QuantilesClampIntoObservedRange) {
  MetricsRegistry R;
  for (int I = 0; I != 10; ++I)
    R.observe("h", 100.0); // bucket (64,128], upper bound 128
  std::vector<MetricsRegistry::Sample> Samples = R.snapshot();
  EXPECT_DOUBLE_EQ(sampleValue(Samples, "h.p50"), 100.0); // clamped to max
  EXPECT_DOUBLE_EQ(sampleValue(Samples, "h.p95"), 100.0);
  EXPECT_DOUBLE_EQ(sampleValue(Samples, "h.min"), 100.0);
}

TEST(MetricsRegistryTest, PeakRssIsPlausible) {
  uint64_t Rss = processPeakRssBytes();
  // Linux/macOS: a running test binary surely holds > 1 MiB resident.
  EXPECT_GT(Rss, uint64_t(1) << 20);
}

//===----------------------------------------------------------------------===//
// metricsToJson escaping + observed.* export
//===----------------------------------------------------------------------===//

TEST(MetricsJsonTest, EscapesNamesAndExportsObservedSamples) {
  Metrics M;
  M.App = "we\"b\\goat";
  M.Analysis = "ci";
  M.Observed.emplace_back("datalog.round_delta_tuples.p95", 42.0);
  M.Observed.emplace_back("process.peak_rss_bytes", 123456.0);
  std::string Json = metricsToJson(M);
  EXPECT_NE(Json.find("\"name\": \"we\\\"b\\\\goat/ci\""), std::string::npos);
  EXPECT_NE(Json.find("\"observed.datalog.round_delta_tuples.p95\": "
                      "42.000000"),
            std::string::npos);
  EXPECT_NE(Json.find("\"observed.process.peak_rss_bytes\": 123456.000000"),
            std::string::npos);
  // The raw unescaped name must not appear inside the JSON.
  EXPECT_EQ(Json.find("we\"b\\goat"), std::string::npos);
  // total_seconds stays the (comma-free) last field.
  size_t Last = Json.rfind("\"total_seconds\"");
  ASSERT_NE(Last, std::string::npos);
  EXPECT_EQ(Json.find(',', Last), std::string::npos);
}

//===----------------------------------------------------------------------===//
// evaluatorStatsReport alignment
//===----------------------------------------------------------------------===//

TEST(EvaluatorStatsReportTest, ColumnsStayAlignedForHugeCounts) {
  datalog::Evaluator::Stats S;
  S.Threads = 4;
  S.StratumCount = 2;
  S.TuplesDerived = 123456789012345ull;
  S.RuleEvaluations = 987654321ull;
  datalog::Evaluator::StratumStats Small;
  Small.Rules = 3;
  Small.Rounds = 2;
  Small.RuleEvaluations = 6;
  Small.TuplesDerived = 10;
  Small.WallSeconds = 0.01;
  datalog::Evaluator::StratumStats Huge;
  Huge.Rules = 120;
  Huge.Rounds = 4096;
  Huge.RuleEvaluations = 987654315ull;
  Huge.TuplesDerived = 123456789012335ull; // wider than the legacy column
  Huge.WallSeconds = 12345.6789;
  Huge.WorkerBusySeconds = 4 * 12345.6789;
  S.Strata = {Small, Huge};

  std::string Report = core::evaluatorStatsReport(S);
  std::istringstream In(Report);
  std::string Line;
  std::getline(In, Line); // summary header (free-form)
  std::vector<std::string> Rows;
  while (std::getline(In, Line))
    Rows.push_back(Line);
  ASSERT_EQ(Rows.size(), 3u); // column header + 2 strata
  for (const std::string &Row : Rows)
    EXPECT_EQ(Row.size(), Rows[0].size()) << "misaligned row: " << Row;
  EXPECT_NE(Rows[0].find("stratum"), std::string::npos);
  EXPECT_NE(Rows[0].find("util(%)"), std::string::npos);
  EXPECT_NE(Rows[2].find("123456789012335"), std::string::npos);
  EXPECT_NE(Rows[2].find("100.0"), std::string::npos);
}

TEST(EvaluatorStatsReportTest, LegacyWidthsForSmallCounts) {
  datalog::Evaluator::Stats S;
  S.Threads = 1;
  S.StratumCount = 1;
  datalog::Evaluator::StratumStats SS;
  SS.Rules = 2;
  SS.Rounds = 3;
  SS.RuleEvaluations = 6;
  SS.TuplesDerived = 42;
  SS.WallSeconds = 0.5;
  S.Strata = {SS};
  std::string Report = core::evaluatorStatsReport(S);
  // Small values right-align at the legacy minimum widths.
  EXPECT_NE(Report.find("  stratum  rules  rounds  passes     tuples"
                        "   wall(s)  util(%)\n"),
            std::string::npos);
  EXPECT_NE(Report.find("        0      2       3       6         42"
                        "    0.5000      0.0\n"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Session integration: the invariance sweep
//===----------------------------------------------------------------------===//

/// Runs a 2-app x 2-kind matrix with tracing on and returns the
/// deterministic structure render.
std::string tracedMatrixStructure(unsigned Jobs, unsigned Threads) {
  std::vector<Application> Apps = {
      synth::applicationFor(synth::BenchApp::WebGoat),
      synth::applicationFor(synth::BenchApp::Pybbs)};
  std::vector<AnalysisKind> Kinds = {AnalysisKind::CI,
                                     AnalysisKind::Mod2ObjH};
  SessionOptions SO;
  SO.Jobs = Jobs;
  SO.DatalogThreads = Threads;
  SO.Trace = true;
  AnalysisSession Session(SO);
  std::vector<AnalysisResult> Results = Session.runMatrix(Apps, Kinds);
  for (const AnalysisResult &R : Results) {
    EXPECT_TRUE(R.ok());
  }
  EXPECT_NE(Session.tracer(), nullptr);
  return renderStructure(*Session.tracer());
}

TEST(TraceInvarianceSweep, StructureIdenticalAcrossThreadsAndJobs) {
  // The acceptance criterion of DESIGN.md §9.2: the timestamp-stripped span
  // tree is bit-identical across JACKEE_THREADS 1/2/8 and JACKEE_JOBS 1/4.
  std::string Baseline = tracedMatrixStructure(/*Jobs=*/1, /*Threads=*/1);
  ASSERT_FALSE(Baseline.empty());
  // Sanity: the tree exercises every instrumented layer.
  for (const char *Needle :
       {"matrix [session]", "cell [session] app=WebGoat",
        "cell [session] app=pybbs", "solve [session]", "fixpoint [solver]",
        "wiring-round [frameworks]", "stratum [datalog]", "round [datalog]",
        "snapshot-build [session]", "extract-xml [frameworks]"})
    EXPECT_NE(Baseline.find(Needle), std::string::npos)
        << "structure is missing \"" << Needle << "\"";
  for (unsigned Threads : {2u, 8u})
    EXPECT_EQ(Baseline, tracedMatrixStructure(1, Threads))
        << "threads=" << Threads;
  for (unsigned Jobs : {4u})
    EXPECT_EQ(Baseline, tracedMatrixStructure(Jobs, 1)) << "jobs=" << Jobs;
}

TEST(TraceInvarianceSweep, SingleCellStructureMatchesAcrossThreads) {
  // Same contract through the single-cell API (no matrix span).
  auto structureFor = [](unsigned Threads) {
    SessionOptions SO;
    SO.Jobs = 1;
    SO.DatalogThreads = Threads;
    SO.Trace = true;
    AnalysisSession Session(SO);
    AnalysisResult R = Session.run(
        synth::applicationFor(synth::BenchApp::WebGoat), AnalysisKind::CI);
    EXPECT_TRUE(R.ok());
    return renderStructure(*Session.tracer());
  };
  std::string S1 = structureFor(1);
  EXPECT_EQ(S1, structureFor(2));
  EXPECT_EQ(S1, structureFor(8));
  EXPECT_NE(S1.find("cell [session] app=WebGoat analysis=ci"),
            std::string::npos);
}

TEST(SessionTraceTest, ObservedMetricsReachMetricsJson) {
  SessionOptions SO;
  SO.Jobs = 1;
  SO.DatalogThreads = 2; // parallel evaluator populates worker gauges
  AnalysisSession Session(SO);
  AnalysisResult R = Session.run(
      synth::applicationFor(synth::BenchApp::WebGoat), AnalysisKind::CI);
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R->Observed.empty());
  std::string Json = core::metricsToJson(*R);
  for (const char *Key :
       {"\"observed.db.relation_bytes\"", "\"observed.process.peak_rss_bytes\"",
        "\"observed.datalog.round_delta_tuples.count\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << "missing " << Key;
}

TEST(SessionTraceTest, DisabledByDefaultAndEnabledByEnv) {
  {
    AnalysisSession Session(SessionOptions{});
    EXPECT_EQ(Session.tracer(), nullptr);
  }
  ::setenv("JACKEE_TRACE", "1", 1);
  {
    AnalysisSession Session(SessionOptions{});
    EXPECT_NE(Session.tracer(), nullptr);
  }
  ::unsetenv("JACKEE_TRACE");
}

TEST(SessionTraceTest, ZeroOrFalseLeavesTracingAndProfilingOff) {
  // Off values must not turn the switches on, nor name an output file.
  ::setenv("JACKEE_TRACE", "0", 1);
  ::setenv("JACKEE_PROFILE", "false", 1);
  {
    AnalysisSession Session(SessionOptions{});
    EXPECT_EQ(Session.tracer(), nullptr);
    EXPECT_EQ(Session.eventSink(), nullptr);
    EXPECT_FALSE(Session.profilingEnabled());
  }
  ::unsetenv("JACKEE_TRACE");
  ::unsetenv("JACKEE_PROFILE");
}

} // namespace
