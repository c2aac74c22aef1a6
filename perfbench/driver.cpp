//===- driver.cpp - End-to-end benchmark driver -----------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Runs one workload of the end-to-end benchmark (perfbench/README.md)
// through the public session API only -- `AnalysisSession::runMatrix`/`open`,
// `AnalysisCell::update`/`explain`/`canonicalDigest` and cell destruction --
// checks every output, and prints the raw samples as one JSON line on
// stdout. perfbench/run.py turns the samples into the metrics that
// BENCHMARK.json declares.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --expected perfbench/expected_rows.tsv
//   perfbench_driver --self-check --expected perfbench/expected_rows.tsv
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "observe/Trace.h"
#include "synth/SynthApp.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

extern char **environ;

using namespace jackee;
using namespace jackee::core;
using Clock = std::chrono::steady_clock;

namespace {

// Initialized before main runs: the closest the driver gets to the moment
// the process started, which is where `setup_s` begins.
const Clock::time_point ProcessStart = Clock::now();

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

volatile uint64_t ReferenceSink;

/// Times a fixed hash-set workload: 10000 inserts and 10000 lookups of
/// pseudo-random keys, with nodes taken from a buffer of its own so that the
/// program's heap cannot change it. On a host with shared cores, speed can
/// swing by 1.7x between runs (measured on a shared 4-vCPU VM). This
/// workload slows with the host much as the analysis does (an integer-only
/// loop barely does), so run.py states every latency at a fixed time of
/// this slice.
double referenceSlice() {
  // Left uninitialized, so only the ~0.5 MiB the slice touches is resident.
  constexpr size_t Bytes = 1u << 20;
  static std::unique_ptr<std::byte[]> Buffer(new std::byte[Bytes]);
  Clock::time_point Start = Clock::now();
  {
    std::pmr::monotonic_buffer_resource Arena(Buffer.get(), Bytes,
                                              std::pmr::null_memory_resource());
    std::pmr::unordered_set<uint64_t> Set(&Arena);
    uint64_t X = 0x9e3779b97f4a7c15ULL, Found = 0;
    for (unsigned I = 0; I != 10000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Set.insert(X % 1000003);
    }
    for (uint64_t I = 0; I != 10000; ++I)
      Found += Set.count(I * 7919 % 1000003);
    ReferenceSink = Found;
  }
  return secondsSince(Start);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Live cells are opened under the paper's headline configuration.
constexpr AnalysisKind LiveKind = AnalysisKind::Mod2ObjH;

/// Set-up runs this many times per process, the first from process start
/// and the rest spread over the run; `setup_s` is their median.
constexpr unsigned SetupRepeats = 5;

/// One application that live edit sessions open, with the number of
/// `app.dead.DeadN` classes its edits can wire.
struct LiveApp {
  synth::BenchApp Which;
  unsigned EditsPerSession; ///< half warm wirings, half retractions
};

struct Workload {
  const char *Name;
  /// Batch grid run through `runMatrix` once per pass; empty for
  /// live-edits, whose pass is one live session per `Live` app.
  std::vector<Application> Apps;
  std::vector<AnalysisKind> Kinds;
  std::vector<LiveApp> Live;
  /// Batch workloads only: live sessions of `Live[0]` run between grid
  /// cells, so that the open and edit metrics exist on every workload.
  unsigned ProbeSessions = 0;
  /// The batch app whose cells warm the session up.
  synth::BenchApp WarmUpApp = synth::BenchApp::Pybbs;

  bool batch() const { return !Apps.empty(); }
};

Workload makeWorkload(const std::string &Name) {
  using synth::BenchApp;
  Workload W;
  if (Name == "paper-grid") {
    W.Name = "paper-grid";
    W.Apps = synth::allBenchmarks();
    W.Kinds = {AnalysisKind::CI, AnalysisKind::TwoObjH, AnalysisKind::Mod2ObjH};
    W.Live = {{BenchApp::Pybbs, 10}};
    W.ProbeSessions = 12;
  } else if (Name == "small-ci") {
    W.Name = "small-ci";
    for (BenchApp A : {BenchApp::Pybbs, BenchApp::SpringBlog, BenchApp::WebGoat,
                       BenchApp::Bitbucket, BenchApp::OpenCms,
                       BenchApp::Shopizer})
      W.Apps.push_back(synth::applicationFor(A));
    W.Apps.push_back(synth::petstoreApp());
    W.Apps.push_back(synth::dacapoLikeApp());
    W.Kinds = {AnalysisKind::DoopBaselineCI, AnalysisKind::CI};
    W.Live = {{BenchApp::Pybbs, 10}};
    W.ProbeSessions = 12;
  } else if (Name == "live-edits") {
    W.Name = "live-edits";
    W.Live = {{BenchApp::Bitbucket, 20},
              {BenchApp::OpenCms, 20},
              {BenchApp::Shopizer, 20}};
    W.WarmUpApp = BenchApp::Bitbucket;
  } else {
    W.Name = nullptr;
  }
  return W;
}

SessionOptions sessionOptions(bool Trace) {
  // Every engine option is set explicitly; main() refuses to run when a
  // JACKEE_* variable could override one of them.
  SessionOptions O;
  O.Jobs = 1;
  O.DatalogThreads = 1;
  O.SolverThreads = 1;
  O.Plan = datalog::PlanMode::Greedy;
  O.SnapshotDir = "";
  O.Profile = false;
  O.SnapshotCache = true;
  O.Provenance = false;
  O.Trace = Trace;
  return O;
}

//===----------------------------------------------------------------------===//
// Samples
//===----------------------------------------------------------------------===//

/// Self and inclusive span seconds by span name, plus how much of the
/// `matrix` and `cell-update` spans' wall their direct children cover.
struct SpanTimes {
  std::map<std::string, double> Self, Incl;
  double MatrixWall = 0, MatrixCovered = 0;
  double UpdateWall = 0, UpdateCovered = 0;
  std::string Mode;          ///< `cell-update` mode arg ("warm"/"reset")
  double ConeRetracted = -1; ///< `cell-update` cone arg, -1 when absent

  double self(const char *Name) const {
    auto It = Self.find(Name);
    return It == Self.end() ? 0 : It->second;
  }
  double incl(const char *Name) const {
    auto It = Incl.find(Name);
    return It == Incl.end() ? 0 : It->second;
  }
  double glue() const {
    double Sum = 0;
    for (const auto &[Name, S] : Self)
      if (Name.rfind("glue:", 0) == 0)
        Sum += S;
    return Sum;
  }
};

/// Sums the spans with ids in [Lo, Hi). Nothing runs concurrently, so a
/// span's self time is its duration minus its direct children's.
SpanTimes spanTimes(const std::vector<observe::Tracer::SpanRecord> &Spans,
                    uint32_t Lo, uint32_t Hi) {
  std::vector<double> ChildSum(Hi - Lo, 0.0);
  for (uint32_t I = Lo; I != Hi; ++I) {
    uint32_t P = Spans[I].Parent;
    if (P != observe::Tracer::NoSpan && P >= Lo && P < Hi)
      ChildSum[P - Lo] += Spans[I].DurationUs;
  }
  SpanTimes T;
  for (uint32_t I = Lo; I != Hi; ++I) {
    const observe::Tracer::SpanRecord &S = Spans[I];
    double Dur = S.DurationUs * 1e-6, Children = ChildSum[I - Lo] * 1e-6;
    T.Self[S.Name] += Dur - Children;
    T.Incl[S.Name] += Dur;
    if (S.Name == "matrix") {
      T.MatrixWall += Dur;
      T.MatrixCovered += Children;
    } else if (S.Name == "cell-update") {
      T.UpdateWall += Dur;
      T.UpdateCovered += Children;
      for (const observe::Tracer::Arg &A : S.Args) {
        if (A.Key == "mode")
          T.Mode = A.Value;
        else if (A.Key == "cone_retracted")
          T.ConeRetracted = std::strtod(A.Value.c_str(), nullptr);
      }
    }
  }
  return T;
}

/// Everything one run measures. Latencies are in seconds.
struct Samples {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<double> Setup, Pass, Open, Warm, Reset;
  std::vector<double> Reference; ///< `referenceSlice` times
  Clock::time_point LastReference;

  /// Called before each timed operation: takes a reference slice when the
  /// last one is at least 100 ms old, so slices spread evenly over the run.
  void reference() {
    if (!Reference.empty() && secondsSince(LastReference) < 0.1)
      return;
    Reference.push_back(referenceSlice());
    LastReference = Clock::now();
  }

  // Traced runs only.
  std::map<std::string, std::vector<double>> Layers;
  std::vector<double> UntracedPass;
  uint64_t WarmModes = 0, ResetModes = 0;
  double CoverWall = 0, CoverCovered = 0;

  void layer(const std::string &Name, double V) { Layers[Name].push_back(V); }
};

/// A traced operation's span-id range, resolved against one tracer
/// snapshot at the end of the run (the snapshot copies every span, so
/// taking one per operation would be quadratic).
struct OpSpans {
  uint32_t Lo, Hi;
  int Pass;          ///< traced pass it belongs to, -1 for none
  bool Update;       ///< an `update` call
};

/// Per-pass layer totals of one traced pass.
struct PassLayers {
  double Fixpoint = 0, Teardown = 0, Collect = 0, Extract = 0, BaseLoad = 0,
         Populate = 0, Clone = 0, Evaluate = 0, Glue = 0;
  double VptTuples = 0, WorkItems = 0, Edges = 0, Rounds = 0,
         TuplesDerived = 0;

  void addSpans(const SpanTimes &T, bool Batch) {
    Fixpoint += T.self("fixpoint");
    if (Batch)
      Teardown += T.self("matrix");
    Collect += T.incl("collect-metrics");
    Extract += T.incl("extract-program") + T.incl("extract-xml");
    BaseLoad += T.incl("load-base-facts");
    Populate += T.self("populate");
    Clone += T.incl("snapshot-clone");
    Evaluate += T.incl("evaluate");
    Glue += T.glue();
  }
  void addCell(const Metrics &M) {
    VptTuples += M.VptTuplesTotal;
    WorkItems += M.SolverWorkItems;
    Edges += M.SolverEdges;
    Rounds += M.SolverRounds;
    TuplesDerived += M.DatalogTuplesDerived;
  }
};

/// Collects span ranges and pass totals while a traced run executes.
struct TraceLog {
  observe::Tracer *Tracer = nullptr;
  std::vector<OpSpans> Ops;
  std::vector<PassLayers> Passes;

  uint32_t mark() const {
    return Tracer ? static_cast<uint32_t>(Tracer->spanCount()) : 0;
  }
  void record(uint32_t Lo, int Pass, bool Update) {
    if (Tracer)
      Ops.push_back({Lo, mark(), Pass, Update});
  }
};

//===----------------------------------------------------------------------===//
// Output checks
//===----------------------------------------------------------------------===//

using ExpectedRows = std::map<std::string, std::string>;

bool loadExpected(const std::string &Path, ExpectedRows &Rows) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Tab = Line.find('\t');
    if (Tab != std::string::npos)
      Rows[Line.substr(0, Tab)] = Line.substr(Tab + 1);
  }
  return true;
}

/// The deterministic part of a cell's metrics, in expected_rows.tsv's
/// column order.
std::string rowOf(const Metrics &M) {
  char Buf[256];
  std::snprintf(Buf, sizeof Buf,
                "%u/%u\t%.4f\t%.4f\t%llu\t%u\t%u\t%llu\t%llu\t%u\t%u\t%u",
                M.AppReachableMethods, M.AppConcreteMethods, M.AvgObjsPerVar,
                M.AvgObjsPerAppVar,
                static_cast<unsigned long long>(M.CallGraphEdges),
                M.AppPolyVCalls, M.AppMayFailCasts,
                static_cast<unsigned long long>(M.VptTuplesTotal),
                static_cast<unsigned long long>(M.VptTuplesJavaUtil),
                M.EntryPointsExercised, M.BeansCreated, M.InjectionsApplied);
  return Buf;
}

/// True if \p M equals its expected row. A mismatch prints the actual row
/// in expected_rows.tsv form on stderr.
bool rowMatches(const ExpectedRows &Expected, const Metrics &M) {
  std::string Key = M.App + "/" + M.Analysis;
  std::string Row = rowOf(M);
  auto It = Expected.find(Key);
  if (It != Expected.end() && It->second == Row)
    return true;
  std::fprintf(stderr, "row mismatch (expected %s):\n%s\t%s\n",
               It == Expected.end() ? "no row" : It->second.c_str(),
               Key.c_str(), Row.c_str());
  return false;
}

//===----------------------------------------------------------------------===//
// Batch passes
//===----------------------------------------------------------------------===//

/// Runs the grid once and checks every cell. Each cell is its own
/// `runMatrix` call, so that \p BeforeCell can interleave other work
/// between cells. Returns the pass's seconds, the sum of its cells'.
double batchPass(AnalysisSession &Session, const std::vector<Application> &Apps,
                 const std::vector<AnalysisKind> &Kinds,
                 const ExpectedRows &Expected, Samples &S, TraceLog &Log,
                 int TracedPass,
                 const std::function<void()> &BeforeCell = nullptr) {
  double Seconds = 0;
  for (const Application &App : Apps)
    for (AnalysisKind Kind : Kinds) {
      if (BeforeCell)
        BeforeCell();
      std::vector<Application> CellApp{App};
      std::vector<AnalysisKind> CellKind{Kind};
      S.reference();
      uint32_t Lo = Log.mark();
      Clock::time_point Start = Clock::now();
      std::vector<AnalysisResult> Results =
          Session.runMatrix(CellApp, CellKind);
      Seconds += secondsSince(Start);
      Log.record(Lo, TracedPass, false);
      const AnalysisResult &R = Results.front();
      ++S.Attempted;
      if (!R.ok()) {
        ++S.Failed;
        std::fprintf(stderr, "cell failed: %s\n", R.error().Message.c_str());
        continue;
      }
      if (!rowMatches(Expected, *R))
        ++S.Failed;
      if (TracedPass >= 0)
        Log.Passes[TracedPass].addCell(*R);
    }
  return Seconds;
}

//===----------------------------------------------------------------------===//
// Live sessions
//===----------------------------------------------------------------------===//

/// splitmix64: a fixed, portable generator, so one seed names the same
/// edit stream everywhere.
struct Rng {
  uint64_t State;
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
};

struct Edit {
  CellDelta Delta;
  std::string Class; ///< the dead class the edit wires or unwires
  bool Warm;         ///< insert-only wiring (else a retraction)
};

/// One session's stream: \p Edits / 2 insert-only bean wirings of unwired
/// `app.dead.DeadN` classes and as many retractions of earlier wirings, in
/// a random order. A wiring never names a class that is wired already, so
/// it stays on the warm path; every retraction takes the reset path.
std::vector<Edit> editStream(Rng &R, unsigned DeadClasses, unsigned Edits) {
  std::vector<unsigned> Unwired(DeadClasses);
  std::iota(Unwired.begin(), Unwired.end(), 0u);
  std::vector<std::pair<unsigned, std::string>> Wired; // class, config file
  unsigned WarmLeft = Edits / 2, ResetLeft = Edits - Edits / 2;
  std::vector<Edit> Stream;
  for (unsigned I = 0; I != Edits; ++I) {
    bool Warm = Wired.empty() || ResetLeft == 0 ||
                (WarmLeft != 0 && R.below(WarmLeft + ResetLeft) < WarmLeft);
    Edit E;
    E.Warm = Warm;
    if (Warm) {
      size_t Pick = R.below(Unwired.size());
      unsigned Cls = Unwired[Pick];
      Unwired.erase(Unwired.begin() + Pick);
      std::string Id = "edit" + std::to_string(I);
      E.Class = "app.dead.Dead" + std::to_string(Cls);
      E.Delta.AddConfigs.push_back(
          {Id + "-beans.xml", "<beans>\n  <bean id=\"" + Id + "\" class=\"" +
                                  E.Class + "\"/>\n</beans>\n"});
      Wired.push_back({Cls, Id + "-beans.xml"});
      --WarmLeft;
    } else {
      size_t Pick = R.below(Wired.size());
      auto [Cls, File] = Wired[Pick];
      Wired.erase(Wired.begin() + Pick);
      E.Class = "app.dead.Dead" + std::to_string(Cls);
      E.Delta.RetractConfigs.push_back(File);
      Unwired.push_back(Cls);
      --ResetLeft;
    }
    Stream.push_back(std::move(E));
  }
  return Stream;
}

/// Opens one live cell, applies \p Stream with an `explain` read after each
/// edit, and destroys the cell; the timed operations' latencies go to \p S.
/// Outside the timed region the cell's final digest must equal a
/// from-scratch open of the edited application. \p ReferenceExtra adds
/// edits to that reference only (the self-check's deliberate mismatch).
/// Returns the session's timed seconds.
double liveSession(AnalysisSession &Session, const Application &App,
                   const std::vector<Edit> &Stream,
                   const ExpectedRows &Expected, Samples &S, TraceLog &Log,
                   int TracedPass,
                   const std::vector<CellDelta> &ReferenceExtra = {}) {
  double Timed = 0;
  ++S.Attempted;
  S.reference();
  uint32_t Lo = Log.mark();
  Clock::time_point Start = Clock::now();
  CellResult Opened = Session.open(App, LiveKind);
  double OpenSeconds = secondsSince(Start);
  Log.record(Lo, TracedPass, false);
  Timed += OpenSeconds;
  if (!Opened.ok()) {
    ++S.Failed;
    std::fprintf(stderr, "open failed: %s\n", Opened.error().Message.c_str());
    return Timed;
  }
  std::unique_ptr<AnalysisCell> Cell = std::move(Opened).value();
  S.Open.push_back(OpenSeconds);
  if (!rowMatches(Expected, Cell->metrics()))
    ++S.Failed;
  if (TracedPass >= 0)
    Log.Passes[TracedPass].addCell(Cell->metrics());
  if (Log.Tracer)
    S.layer("provenance.tuples_recorded",
            static_cast<double>(Cell->metrics().ProvenanceTuplesRecorded));

  std::vector<CellDelta> Applied;
  bool Usable = true;
  for (const Edit &E : Stream) {
    ++S.Attempted;
    S.reference();
    Lo = Log.mark();
    Start = Clock::now();
    AnalysisResult R = Cell->update(E.Delta);
    double Seconds = secondsSince(Start);
    Log.record(Lo, TracedPass, true);
    Timed += Seconds;
    if (!R.ok()) {
      ++S.Failed;
      std::fprintf(stderr, "update failed: %s\n", R.error().Message.c_str());
      Usable = false;
      break;
    }
    (E.Warm ? S.Warm : S.Reset).push_back(Seconds);
    Applied.push_back(E.Delta);

    std::string Error;
    Start = Clock::now();
    size_t Trees = Cell->explain("Bean(\"" + E.Class + "\")", Error).size();
    double ExplainSeconds = secondsSince(Start);
    Timed += ExplainSeconds;
    if (Log.Tracer)
      S.layer("provenance.explain_s", ExplainSeconds);
    if (!Error.empty() || Trees != (E.Warm ? 1u : 0u)) {
      ++S.Failed;
      std::fprintf(stderr, "explain Bean(%s): %zu trees %s\n", E.Class.c_str(),
                   Trees, Error.c_str());
    }
  }

  std::string Digest = Usable ? Cell->canonicalDigest() : std::string();
  Start = Clock::now();
  Cell.reset();
  double Teardown = secondsSince(Start);
  Timed += Teardown;
  if (TracedPass >= 0)
    Log.Passes[TracedPass].Teardown += Teardown;
  if (!Usable)
    return Timed;

  Applied.insert(Applied.end(), ReferenceExtra.begin(), ReferenceExtra.end());
  CellResult Reference = Session.open(applyDelta(App, Applied), LiveKind);
  if (!Reference.ok() || Reference->canonicalDigest() != Digest) {
    ++S.Failed;
    std::fprintf(stderr, "%s: live digest differs from a from-scratch open\n",
                 App.Name.c_str());
  }
  return Timed;
}

//===----------------------------------------------------------------------===//
// Runs
//===----------------------------------------------------------------------===//

/// The untimed warm-up of one set-up: one grid pass over the warm-up app
/// (batch workloads) and one short live session, so that every collection
/// model's snapshot exists and every code path has run once. Its outputs
/// are checked like any other, but its latencies are not samples.
void warmUp(AnalysisSession &Session, const Workload &W,
            const ExpectedRows &Expected, Samples &S, Rng &R) {
  TraceLog None;
  Samples WarmUp;
  if (W.batch())
    batchPass(Session, {synth::applicationFor(W.WarmUpApp)}, W.Kinds,
              Expected, WarmUp, None, -1);
  const LiveApp &L = W.batch() ? W.Live[0] : LiveApp{W.WarmUpApp, 2};
  liveSession(Session, synth::applicationFor(L.Which),
              editStream(R, synth::profileFor(L.Which).DeadClasses, 2),
              Expected, WarmUp, None, -1);
  S.Attempted += WarmUp.Attempted;
  S.Failed += WarmUp.Failed;
}

/// One set-up, timed from \p Start: constructs a session and warms it up.
std::unique_ptr<AnalysisSession> setUp(const Workload &W, bool Trace,
                                       Clock::time_point Start,
                                       const ExpectedRows &Expected,
                                       Samples &S, Rng &R) {
  auto Session = std::make_unique<AnalysisSession>(sessionOptions(Trace));
  warmUp(*Session, W, Expected, S, R);
  S.Setup.push_back(secondsSince(Start));
  if (observe::Tracer *T = Session->tracer()) {
    std::vector<observe::Tracer::SpanRecord> Spans = T->snapshot();
    S.layer("snapshot.build_s",
            spanTimes(Spans, 0, static_cast<uint32_t>(Spans.size()))
                .incl("snapshot-build"));
  }
  return Session;
}

/// Resolves the traced run's span ranges into per-layer samples.
void finishTrace(const Workload &W, TraceLog &Log, Samples &S) {
  std::vector<observe::Tracer::SpanRecord> Spans = Log.Tracer->snapshot();
  for (const OpSpans &Op : Log.Ops) {
    SpanTimes T = spanTimes(Spans, Op.Lo, Op.Hi);
    if (Op.Pass >= 0)
      Log.Passes[Op.Pass].addSpans(T, W.batch());
    if (W.batch() ? Op.Pass >= 0 : Op.Update) {
      S.CoverWall += W.batch() ? T.MatrixWall : T.UpdateWall;
      S.CoverCovered += W.batch() ? T.MatrixCovered : T.UpdateCovered;
    }
    if (!Op.Update)
      continue;
    bool Warm = T.Mode == "warm";
    ++(Warm ? S.WarmModes : S.ResetModes);
    std::string Kind = Warm ? "update.warm." : "update.reset.";
    S.layer(Kind + "wall_s", T.incl("cell-update"));
    S.layer(Kind + "fixpoint_s", T.self("fixpoint"));
    S.layer(Kind + "collect_metrics_s", T.incl("collect-metrics"));
    S.layer(Kind + "evaluate_s", T.incl("evaluate"));
    if (!Warm) {
      S.layer("core.update_s", T.self("cell-update"));
      S.layer("provenance.cone_retracted", T.ConeRetracted);
    }
  }
  for (const PassLayers &P : Log.Passes) {
    S.layer("pointsto.fixpoint_s", P.Fixpoint);
    S.layer("core.teardown_s", P.Teardown);
    S.layer("core.collect_metrics_s", P.Collect);
    S.layer("facts.extract_s", P.Extract);
    S.layer("facts.base_load_s", P.BaseLoad);
    S.layer("core.populate_s", P.Populate);
    S.layer("snapshot.clone_s", P.Clone);
    S.layer("datalog.evaluate_s", P.Evaluate);
    S.layer("frameworks.glue_s", P.Glue);
    S.layer("pointsto.vpt_tuples", P.VptTuples);
    S.layer("pointsto.work_items", P.WorkItems);
    S.layer("pointsto.edges", P.Edges);
    S.layer("pointsto.rounds", P.Rounds);
    S.layer("datalog.tuples_derived", P.TuplesDerived);
  }
}

/// Runs workload \p W for \p Seconds. A traced run alternates passes
/// between a traced session and an untraced one; only the traced passes
/// feed the per-layer samples, and the untraced ones give the tracing
/// overhead.
Samples runWorkload(const Workload &W, uint64_t Seed, double Seconds,
                    bool Trace, const ExpectedRows &Expected) {
  Samples S;
  Rng R{Seed};
  // Set-ups run at times that depend on the host, so their warm-up edits
  // draw from a generator of their own to keep R's streams seeded.
  Rng SetUpRng{~Seed};
  // The first set-up, timed from process start, makes the session the
  // run uses.
  std::unique_ptr<AnalysisSession> Session =
      setUp(W, Trace, ProcessStart, Expected, S, SetUpRng);
  std::unique_ptr<AnalysisSession> Untraced;
  if (Trace) {
    Samples Discard;
    Untraced = setUp(W, false, Clock::now(), Expected, Discard, SetUpRng);
    S.Attempted += Discard.Attempted;
    S.Failed += Discard.Failed;
  }
  TraceLog Log;
  Log.Tracer = Session->tracer();

  Clock::time_point Start = Clock::now();
  // Work interleaved with the passes at times spread evenly over the run,
  // so that its samples see the same host as the passes do: the batch
  // workloads' probe sessions, and the other set-ups (each a fresh session,
  // warmed up and then discarded). Any left when the last pass ends run
  // after it.
  unsigned ProbesRun = 0, SetUpsRun = 1;
  auto Probe = [&] {
    const LiveApp &L = W.Live[0];
    liveSession(*Session, synth::applicationFor(L.Which),
                editStream(R, synth::profileFor(L.Which).DeadClasses,
                           L.EditsPerSession),
                Expected, S, Log, -1);
    ++ProbesRun;
  };
  auto ExtraSetUp = [&] {
    setUp(W, Trace, Clock::now(), Expected, S, SetUpRng);
    ++SetUpsRun;
  };
  auto Due = [&](unsigned Done, unsigned Total) {
    return Done != Total &&
           secondsSince(Start) >= (Done + 0.5) * Seconds / Total;
  };
  auto Interleave = [&] {
    if (Due(ProbesRun, W.ProbeSessions))
      Probe();
    if (Due(SetUpsRun - 1, SetupRepeats - 1))
      ExtraSetUp();
  };
  // A pass starts only when it is expected to end within the run.
  for (unsigned Pass = 0;; ++Pass) {
    bool Traced = Trace && Pass % 2 == 0;
    AnalysisSession &Current = Trace && !Traced ? *Untraced : *Session;
    TraceLog None;
    TraceLog &PassLog = Traced ? Log : None;
    int TracedPass = -1;
    if (Traced) {
      TracedPass = static_cast<int>(Log.Passes.size());
      Log.Passes.emplace_back();
    }
    Clock::time_point PassStart = Clock::now();
    double PassSeconds = 0;
    if (W.batch())
      PassSeconds = batchPass(Current, W.Apps, W.Kinds, Expected, S, PassLog,
                              TracedPass, Interleave);
    else
      for (const LiveApp &L : W.Live) {
        Interleave();
        PassSeconds += liveSession(
            Current, synth::applicationFor(L.Which),
            editStream(R, synth::profileFor(L.Which).DeadClasses,
                       L.EditsPerSession),
            Expected, S, PassLog, TracedPass);
      }
    (Trace && !Traced ? S.UntracedPass : S.Pass).push_back(PassSeconds);
    // A traced run needs one pass of each kind.
    if (Pass >= (Trace ? 1u : 0u) &&
        secondsSince(Start) + secondsSince(PassStart) > Seconds)
      break;
  }
  while (ProbesRun != W.ProbeSessions)
    Probe();
  while (SetUpsRun != SetupRepeats)
    ExtraSetUp();
  if (Trace)
    finishTrace(W, Log, S);
  return S;
}

//===----------------------------------------------------------------------===//
// Self-check
//===----------------------------------------------------------------------===//

/// Shows that the output checks count failures: a batch cell checked
/// against a corrupted copy of its expected row, and a live session whose
/// from-scratch reference also registers a dead class as a web.xml
/// listener (which makes its methods reachable, so the digests differ),
/// must each add exactly one failure, while the same operations checked
/// correctly add none.
int selfCheck(const ExpectedRows &Expected) {
  AnalysisSession Session(sessionOptions(false));
  Application App = synth::applicationFor(synth::BenchApp::Pybbs);
  std::string Key = App.Name + "/" + analysisName(AnalysisKind::CI);
  if (!Expected.count(Key)) {
    std::fprintf(stderr, "self-check: no expected row for %s\n", Key.c_str());
    return 1;
  }
  ExpectedRows Corrupted = Expected;
  Corrupted[Key] += "0";
  CellDelta Listener;
  Listener.AddConfigs.push_back(
      {"self-check-web.xml", "<web-app>\n  <listener>\n    <listener-class>"
                             "app.dead.Dead0</listener-class>\n  </listener>\n"
                             "</web-app>\n"});

  TraceLog None;
  Samples Good, BadRow, GoodLive, BadDigest;
  batchPass(Session, {App}, {AnalysisKind::CI}, Expected, Good, None, -1);
  batchPass(Session, {App}, {AnalysisKind::CI}, Corrupted, BadRow, None, -1);
  Rng R{1};
  std::vector<Edit> Stream =
      editStream(R, synth::profileFor(synth::BenchApp::Pybbs).DeadClasses, 4);
  liveSession(Session, App, Stream, Expected, GoodLive, None, -1);
  liveSession(Session, App, Stream, Expected, BadDigest, None, -1, {Listener});

  bool Ok = Good.Failed == 0 && BadRow.Failed == 1 && GoodLive.Failed == 0 &&
            BadDigest.Failed == 1;
  std::printf("self-check: correct row %llu failed, corrupted row %llu "
              "failed, matching digest %llu failed, mismatched digest %llu "
              "failed: %s\n",
              static_cast<unsigned long long>(Good.Failed),
              static_cast<unsigned long long>(BadRow.Failed),
              static_cast<unsigned long long>(GoodLive.Failed),
              static_cast<unsigned long long>(BadDigest.Failed),
              Ok ? "ok" : "FAILED");
  return Ok ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void appendArray(std::string &Out, const std::vector<double> &V) {
  Out += '[';
  char Buf[32];
  for (size_t I = 0; I != V.size(); ++I) {
    std::snprintf(Buf, sizeof Buf, "%s%.9g", I ? "," : "", V[I]);
    Out += Buf;
  }
  Out += ']';
}

std::string rawJson(const Workload &W, uint64_t Seed, bool Trace,
                    const Samples &S) {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  char Buf[256];
  std::snprintf(Buf, sizeof Buf,
                "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
                "\"cells_per_pass\":%zu,\"peak_rss_mb\":%.9g,"
                "\"attempted\":%llu,\"failed\":%llu",
                W.Name, static_cast<unsigned long long>(Seed), Trace ? 1 : 0,
                W.batch() ? W.Apps.size() * W.Kinds.size() : W.Live.size(),
                Usage.ru_maxrss / 1024.0,
                static_cast<unsigned long long>(S.Attempted),
                static_cast<unsigned long long>(S.Failed));
  std::string Out = Buf;
  auto Field = [&](const char *Name, const std::vector<double> &V) {
    Out += ",\"";
    Out += Name;
    Out += "\":";
    appendArray(Out, V);
  };
  Field("setup_s", S.Setup);
  Field("pass_s", S.Pass);
  Field("open_s", S.Open);
  Field("warm_s", S.Warm);
  Field("reset_s", S.Reset);
  Field("reference_s", S.Reference);
  if (Trace) {
    Field("untraced_pass_s", S.UntracedPass);
    std::snprintf(Buf, sizeof Buf,
                  ",\"update_modes\":{\"warm\":%llu,\"reset\":%llu},"
                  "\"coverage\":{\"covered_s\":%.9g,\"wall_s\":%.9g}",
                  static_cast<unsigned long long>(S.WarmModes),
                  static_cast<unsigned long long>(S.ResetModes),
                  S.CoverCovered, S.CoverWall);
    Out += Buf;
    Out += ",\"layers\":{";
    bool First = true;
    for (const auto &[Name, V] : S.Layers) {
      Out += First ? "\"" : ",\"";
      First = false;
      Out += Name;
      Out += "\":";
      appendArray(Out, V);
    }
    Out += '}';
  }
  Out += '}';
  return Out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 --expected FILE\n"
               "       perfbench_driver --self-check --expected FILE\n"
               "workloads: paper-grid small-ci live-edits\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench_driver: refusing to time a build without "
                       "NDEBUG; configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  // The session constructor reads JACKEE_PROVENANCE/TRACE/PROFILE even when
  // the options say off, and JACKEE_SNAPSHOT_DIR swaps the base-program
  // source: any JACKEE_* variable could change what is measured.
  for (char **Env = environ; *Env; ++Env)
    if (std::strncmp(*Env, "JACKEE_", 7) == 0) {
      std::string Name(*Env, std::strcspn(*Env, "="));
      std::fprintf(stderr, "perfbench_driver: refusing to run with %s set\n",
                   Name.c_str());
      return 2;
    }

  std::string WorkloadName, ExpectedPath;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  bool SelfCheck = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--self-check") {
      SelfCheck = true;
      continue;
    }
    if (I + 1 == argc)
      return usage();
    std::string Value = argv[++I];
    if (Arg == "--workload")
      WorkloadName = Value;
    else if (Arg == "--seed")
      Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Arg == "--trace")
      Trace = Value == "1" ? 1 : Value == "0" ? 0 : -1;
    else if (Arg == "--expected")
      ExpectedPath = Value;
    else
      return usage();
  }

  ExpectedRows Expected;
  if (ExpectedPath.empty() || !loadExpected(ExpectedPath, Expected)) {
    std::fprintf(stderr, "perfbench_driver: cannot read expected rows '%s'\n",
                 ExpectedPath.c_str());
    return 2;
  }
  if (SelfCheck)
    return selfCheck(Expected);

  Workload W = makeWorkload(WorkloadName);
  if (!W.Name || Seconds <= 0 || Trace < 0)
    return usage();
  Samples S = runWorkload(W, Seed, Seconds, Trace == 1, Expected);
  std::printf("%s\n", rawJson(W, Seed, Trace == 1, S).c_str());
  return 0;
}
