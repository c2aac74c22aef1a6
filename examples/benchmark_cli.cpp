//===- benchmark_cli.cpp - Command-line batch analysis driver --------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// A command-line front end over `core::AnalysisSession`: pick any set of
// benchmarks and analysis configurations, get the paper's metric rows for
// the full matrix. Cells decode cached base-program images and fan out
// across `--jobs` threads.
//
//   benchmark_cli                      # list benchmarks and analyses
//   benchmark_cli webgoat mod-2objH
//   benchmark_cli webgoat pybbs ci 2objH mod-2objH
//   benchmark_cli --jobs=4 all ci mod-2objH
//   benchmark_cli --jobs=2 --benchmark_out=BENCH_webgoat.json
//       webgoat ci mod-2objH          # also emit machine-readable JSON
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "core/Session.h"
#include "facts/Extractor.h"
#include "provenance/Explain.h"
#include "snapshot/Snapshot.h"
#include "synth/SynthApp.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace jackee;
using namespace jackee::core;
using namespace jackee::synth;

namespace {

struct NamedApp {
  const char *Name;
  BenchApp App;
};

constexpr NamedApp Apps[] = {
    {"alfresco", BenchApp::Alfresco},   {"bitbucket", BenchApp::Bitbucket},
    {"dotcms", BenchApp::DotCMS},       {"opencms", BenchApp::OpenCms},
    {"pybbs", BenchApp::Pybbs},         {"shopizer", BenchApp::Shopizer},
    {"springblog", BenchApp::SpringBlog}, {"webgoat", BenchApp::WebGoat},
};

constexpr AnalysisKind AllKinds[] = {
    AnalysisKind::DoopBaselineCI, AnalysisKind::CI,
    AnalysisKind::OneObjH,        AnalysisKind::TwoObjH,
    AnalysisKind::NoTreeNode2ObjH, AnalysisKind::Mod2ObjH,
};

std::string lowered(const std::string &Text) {
  std::string Out = Text;
  for (char &C : Out)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return Out;
}

std::optional<AnalysisKind> parseKind(const std::string &Text) {
  for (AnalysisKind Kind : AllKinds)
    if (Text == lowered(analysisName(Kind)))
      return Kind;
  return std::nullopt;
}

int usage() {
  std::printf("usage: benchmark_cli [options] <benchmark>... <analysis>...\n"
              "\nRuns the full benchmark x analysis matrix.\n\n");
  std::printf("options:\n"
              "  --jobs=N               matrix workers "
              "(default: JACKEE_JOBS or hardware) —\n"
              "                         results are bit-identical at any N\n"
              "  --snapshot-save=DIR    serialize the base program of every "
              "collection model\n"
              "                         the requested analyses use (all "
              "three when none are\n"
              "                         given) into DIR and exit — the "
              "AOT store\n"
              "  --snapshot-dir=DIR     cold-start base programs from the "
              "store in DIR instead\n"
              "                         of running the builders (also via "
              "JACKEE_SNAPSHOT_DIR);\n"
              "                         results are bit-identical, bad "
              "stores fall back\n"
              "  --benchmark_out=FILE   also write metric rows as "
              "google-benchmark-style JSON\n"
              "  --trace-out=FILE       trace every pipeline phase and "
              "write Chrome\n"
              "                         trace-event JSON (load in Perfetto "
              "or chrome://tracing);\n"
              "                         also prints a flame summary\n"
              "  --trace-structure=FILE write the timestamp-free span tree "
              "(bit-identical\n"
              "                         at any --jobs — for determinism "
              "diffs)\n"
              "  --profile              deep profiler (also via "
              "JACKEE_PROFILE): per-rule and\n"
              "                         per-relation cost attribution plus "
              "the points-to set\n"
              "                         census, printed per cell after the "
              "matrix\n"
              "  --profile-out=FILE     write the complete profiles "
              "(volatile timing fields\n"
              "                         included) as JSON — input to "
              "scripts/profile_report.py\n"
              "  --profile-text=FILE    write the deterministic text "
              "reports (bit-identical\n"
              "                         at any --jobs — for CI "
              "byte-diffs)\n"
              "  --explain=QUERY        run ONE (benchmark, analysis) cell "
              "with provenance\n"
              "                         recording and print the derivation "
              "tree of every tuple\n"
              "                         matching QUERY — 'Rel(\"a\", _)' or "
              "bare 'Rel'\n"
              "  --explain-json         render --explain trees as JSON "
              "instead of text\n"
              "  --edit=SCRIPT          replay the scripted edit sequence "
              "('petstore') through\n"
              "                         live AnalysisCell::update calls and "
              "print a deterministic\n"
              "                         per-step report (digest + metrics + "
              "explain)\n"
              "  --edit-scratch         replay the same script via "
              "from-scratch cells instead —\n"
              "                         the output must byte-match "
              "--edit's\n\n");
  std::printf("benchmarks:");
  for (const NamedApp &A : Apps)
    std::printf(" %s", A.Name);
  std::printf(" dacapo-like petstore all\nanalyses:  ");
  for (AnalysisKind Kind : AllKinds)
    std::printf(" %s", analysisName(Kind));
  std::printf("\n");
  return 1;
}

/// Writes the collected rows in the google-benchmark JSON layout
/// (`{"context": ..., "benchmarks": [...]}`), so the same
/// plotting/tracking tooling consumes both micro and end-to-end runs.
bool writeJson(const std::string &Path, const std::vector<Metrics> &Rows,
               const AnalysisSession::CacheStats &CS) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  // The session's cache counters ride in "context" — tooling that only
  // reads "benchmarks" (compare_bench.py, diff_metrics.py) ignores them.
  std::fprintf(Out,
               "{\n  \"context\": {\n    \"executable\": "
               "\"benchmark_cli\",\n    \"session\": %s\n  },\n"
               "  \"benchmarks\": [\n",
               cacheStatsToJson(CS, 4).c_str() + 4);
  for (size_t I = 0; I != Rows.size(); ++I)
    std::fprintf(Out, "%s%s\n", metricsToJson(Rows[I], 4).c_str(),
                 I + 1 == Rows.size() ? "" : ",");
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
  return true;
}

/// Writes every row's complete profile as `{"schema":1,"profiles":[...]}` —
/// the document `scripts/profile_report.py` diffs.
bool writeProfileJson(const std::string &Path,
                      const std::vector<Metrics> &Rows) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::vector<const observe::Profile *> Profiles;
  for (const Metrics &M : Rows)
    if (M.ProfileData)
      Profiles.push_back(M.ProfileData.get());
  std::fprintf(Out, "{\n  \"schema\": 1,\n  \"profiles\": [\n");
  for (size_t I = 0; I != Profiles.size(); ++I) {
    std::string Json = observe::profileToJson(*Profiles[I], 4);
    while (!Json.empty() && Json.back() == '\n')
      Json.pop_back();
    std::fprintf(Out, "%s%s\n", Json.c_str(),
                 I + 1 == Profiles.size() ? "" : ",");
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
  return true;
}

bool writeTextFile(const std::string &Path, const std::string &Text) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fwrite(Text.data(), 1, Text.size(), Out);
  std::fclose(Out);
  return true;
}

long parseCount(const char *Text) {
  long N = std::strtol(Text, nullptr, 10);
  return (N >= 1 && N <= 256) ? N : -1;
}

/// `--explain=QUERY`: run one cell with provenance capture and print every
/// matching tuple's derivation tree. Exercises exactly the path the
/// provenance subsystem is for — "why does the analysis believe this?".
int runExplain(AnalysisSession &Session, const Application &App,
               AnalysisKind Kind, const std::string &Query, bool Json) {
  CellResult Cell = Session.open(App, Kind);
  if (!Cell) {
    std::fprintf(stderr, "error [%s]: %s\n",
                 analysisErrorKindName(Cell.error().Kind),
                 Cell.error().Message.c_str());
    return 1;
  }

  std::string Error;
  std::vector<provenance::DerivationNode> Trees =
      Cell->explain(Query, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "explain: %s\n", Error.c_str());
    return 1;
  }
  if (Trees.empty()) {
    std::printf("explain: no tuple matches '%s'\n", Query.c_str());
    return 0;
  }

  std::printf("== %s/%s: %zu tuple(s) match '%s' ==\n", App.Name.c_str(),
              analysisName(Kind), Trees.size(), Query.c_str());
  for (const provenance::DerivationNode &Tree : Trees) {
    // Entity codes ("M#7") are opaque; decode method subjects for the
    // reader when the relation carries one.
    const datalog::Relation &Rel =
        Cell->database().relation(datalog::RelationId(Tree.Rel));
    std::string Legend;
    if (Rel.arity() >= 1) {
      const std::string &Text =
          Cell->database().symbols().text(Rel.tuple(Tree.TupleIdx)[0]);
      ir::MethodId M = facts::Extractor::decodeMethod(Text);
      if (M.isValid())
        Legend = "  (" + Text + " = " + Cell->program().qualifiedName(M) + ")";
    }
    std::printf("\n-- %s%s\n", Tree.Atom.c_str(), Legend.c_str());
    std::string Rendered = Json ? provenance::Explainer::renderJson(Tree)
                                : provenance::Explainer::renderText(Tree);
    std::fwrite(Rendered.data(), 1, Rendered.size(), stdout);
    if (Json)
      std::printf("\n");
  }

  const provenance::ProvenanceRecorder::Stats &PS = Cell->recorder().stats();
  std::printf("\nprovenance: %llu tuples recorded, %llu candidates seen, "
              "%zu glue events, %zu epochs\n",
              static_cast<unsigned long long>(PS.TuplesRecorded),
              static_cast<unsigned long long>(PS.CandidatesSeen),
              Cell->recorder().glueEvents().size(),
              Cell->recorder().epochCount());
  return 0;
}

/// Deterministic projection of a metrics row for the incremental replay:
/// only fields that must be bit-identical between a delta update and a
/// from-scratch analysis (no wall-clock, no solver effort counters).
void printStableMetrics(const Metrics &M) {
  std::printf("metrics: reach=%u/%u vpt=%llu cg=%llu polyvcall=%u "
              "mayfail=%u casts=%u beans=%u inject=%u entry=%u\n",
              M.AppReachableMethods, M.AppConcreteMethods,
              static_cast<unsigned long long>(M.VptTuplesTotal),
              static_cast<unsigned long long>(M.CallGraphEdges),
              M.AppPolyVCalls, M.AppMayFailCasts, M.AppCasts, M.BeansCreated,
              M.InjectionsApplied, M.EntryPointsExercised);
}

/// The scripted petstore edit sequence for `--edit=petstore`: four steps
/// exercising code+config insertion, config retraction, class retraction,
/// and a warm (insert-only) bean wiring. CI replays it twice — once
/// through live `AnalysisCell::update` calls and once from scratch via
/// `applyDelta` — and byte-diffs the stdout.
std::vector<CellDelta> petstoreEditScript() {
  std::vector<CellDelta> Steps;

  // Step 1: add an audit subsystem — a logger bean, a servlet that uses
  // it, and an (initially unwired) metrics class — plus the XML that wires
  // the first two.
  CellDelta S1;
  S1.AddCode = [](ir::Program &P, const javalib::JavaLib &L,
                  const frameworks::FrameworkLib &F) {
    auto appClass = [&](const char *Name, ir::TypeId Super) {
      return P.addClass(Name, ir::TypeKind::Class, Super, {}, false,
                        /*IsApplication=*/true);
    };

    ir::TypeId Logger = appClass("shop.AuditLogger", L.Object);
    P.addMethod(Logger, "<init>", {}, ir::TypeId::invalid());
    ir::MethodBuilder Log =
        P.addMethod(Logger, "log", {L.String}, ir::TypeId::invalid());
    {
      ir::VarId S = Log.local("s", L.String);
      Log.move(S, Log.param(0));
    }

    ir::TypeId Servlet = appClass("shop.AuditServlet", F.HttpServlet);
    ir::FieldId LoggerField = P.addField(Servlet, "auditLogger", Logger);
    ir::MethodBuilder DoGet = P.addMethod(
        Servlet, "doGet", {F.HttpServletRequest, F.HttpServletResponse},
        ir::TypeId::invalid());
    {
      ir::VarId Lg = DoGet.local("logger", Logger);
      ir::VarId Msg = DoGet.local("msg", L.String);
      DoGet.load(Lg, DoGet.thisVar(), LoggerField)
          .stringConst(Msg, "audit")
          .virtualCall(ir::VarId::invalid(), Lg, "log", {L.String}, {Msg});
    }

    ir::TypeId MetricsClass = appClass("shop.Metrics", L.Object);
    P.addMethod(MetricsClass, "<init>", {}, ir::TypeId::invalid());
    ir::MethodBuilder Tick =
        P.addMethod(MetricsClass, "tick", {}, ir::TypeId::invalid());
    {
      ir::VarId V = Tick.local("v", L.String);
      Tick.stringConst(V, "tick");
    }
  };
  S1.AddConfigs.push_back(
      {"audit-beans.xml",
       "<beans>\n"
       "  <bean id=\"auditLogger\" class=\"shop.AuditLogger\"/>\n"
       "</beans>\n"});
  S1.AddConfigs.push_back(
      {"web2.xml",
       "<web-app>\n"
       "  <servlet>\n"
       "    <servlet-class>shop.AuditServlet</servlet-class>\n"
       "  </servlet>\n"
       "</web-app>\n"});
  Steps.push_back(std::move(S1));

  // Step 2: unregister the servlet (config-only retraction).
  CellDelta S2;
  S2.RetractConfigs.push_back("web2.xml");
  Steps.push_back(std::move(S2));

  // Step 3: delete the audit classes and their bean definition.
  CellDelta S3;
  S3.RetractClasses.push_back("shop.AuditServlet");
  S3.RetractClasses.push_back("shop.AuditLogger");
  S3.RetractConfigs.push_back("audit-beans.xml");
  Steps.push_back(std::move(S3));

  // Step 4: wire the surviving Metrics class as a bean — insert-only, so
  // the warm (no-reset) update path runs.
  CellDelta S4;
  S4.AddConfigs.push_back(
      {"metrics-beans.xml",
       "<beans>\n"
       "  <bean id=\"metrics\" class=\"shop.Metrics\"/>\n"
       "</beans>\n"});
  Steps.push_back(std::move(S4));
  return Steps;
}

/// Prints the per-step replay report: stable metrics, the canonical
/// analysis digest, and a fixed explain query. Everything printed must be
/// bit-identical between the live-update and from-scratch replays.
int printEditStep(AnalysisCell &Cell, size_t Step) {
  std::printf("== step %zu ==\n", Step);
  printStableMetrics(Cell.metrics());
  std::printf("digest:\n%s", Cell.canonicalDigest().c_str());
  std::string Error;
  std::vector<provenance::DerivationNode> Trees =
      Cell.explain("ExercisedEntryPoint", Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "explain: %s\n", Error.c_str());
    return 1;
  }
  std::printf("explain: %zu entry-point tuple(s)\n", Trees.size());
  return 0;
}

/// `--edit=petstore`: replay the scripted edit sequence through live
/// `AnalysisCell::update` calls (or, with `--edit-scratch`, through
/// from-scratch cells built by `applyDelta`) and print a deterministic
/// per-step report for CI byte-diffing.
int runEditReplay(AnalysisSession &Session, AnalysisKind Kind, bool Scratch) {
  std::vector<CellDelta> Steps = petstoreEditScript();
  std::printf("edit replay: petstore/%s, %zu steps, mode=%s\n",
              analysisName(Kind), Steps.size(),
              Scratch ? "scratch" : "incremental");

  if (Scratch) {
    // Baseline: step K = cold analysis of base + deltas[0..K].
    {
      CellResult Cell = Session.open(petstoreApp(), Kind);
      if (!Cell) {
        std::fprintf(stderr, "error [%s]: %s\n",
                     analysisErrorKindName(Cell.error().Kind),
                     Cell.error().Message.c_str());
        return 1;
      }
      if (int RC = printEditStep(*Cell, 0))
        return RC;
    }
    std::vector<CellDelta> Applied;
    for (size_t I = 0; I != Steps.size(); ++I) {
      Applied.push_back(Steps[I]);
      Application Edited = applyDelta(petstoreApp(), Applied);
      CellResult Cell = Session.open(Edited, Kind);
      if (!Cell) {
        std::fprintf(stderr, "error [%s]: %s\n",
                     analysisErrorKindName(Cell.error().Kind),
                     Cell.error().Message.c_str());
        return 1;
      }
      if (int RC = printEditStep(*Cell, I + 1))
        return RC;
    }
    return 0;
  }

  CellResult Cell = Session.open(petstoreApp(), Kind);
  if (!Cell) {
    std::fprintf(stderr, "error [%s]: %s\n",
                 analysisErrorKindName(Cell.error().Kind),
                 Cell.error().Message.c_str());
    return 1;
  }
  if (int RC = printEditStep(*Cell, 0))
    return RC;
  for (size_t I = 0; I != Steps.size(); ++I) {
    AnalysisResult R = Cell->update(Steps[I]);
    if (!R) {
      std::fprintf(stderr, "error [%s]: %s\n",
                   analysisErrorKindName(R.error().Kind),
                   R.error().Message.c_str());
      return 1;
    }
    if (int RC = printEditStep(*Cell, I + 1))
      return RC;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  SessionOptions Options;
  std::string JsonPath;
  std::string TracePath;
  std::string TraceStructurePath;
  std::string ExplainQuery;
  bool ExplainJson = false;
  bool ProfileStdout = false;
  std::string ProfileJsonPath;
  std::string ProfileTextPath;
  std::string EditScript;
  bool EditScratch = false;
  std::string SnapshotSaveDir;
  std::vector<const char *> Positional;
  for (int I = 1; I != Argc; ++I) {
    if (std::strncmp(Argv[I], "--explain=", 10) == 0) {
      ExplainQuery = Argv[I] + 10;
    } else if (std::strcmp(Argv[I], "--explain-json") == 0) {
      ExplainJson = true;
    } else if (std::strncmp(Argv[I], "--edit=", 7) == 0) {
      EditScript = Argv[I] + 7;
    } else if (std::strcmp(Argv[I], "--edit-scratch") == 0) {
      EditScratch = true;
    } else if (std::strncmp(Argv[I], "--jobs=", 7) == 0) {
      long N = parseCount(Argv[I] + 7);
      if (N < 0) {
        std::printf("error: --jobs must be in 1..256\n\n");
        return usage();
      }
      Options.Jobs = static_cast<unsigned>(N);
    } else if (std::strncmp(Argv[I], "--snapshot-save=", 16) == 0) {
      SnapshotSaveDir = Argv[I] + 16;
    } else if (std::strncmp(Argv[I], "--snapshot-dir=", 15) == 0) {
      Options.SnapshotDir = Argv[I] + 15;
    } else if (std::strncmp(Argv[I], "--benchmark_out=", 16) == 0) {
      JsonPath = Argv[I] + 16;
    } else if (std::strncmp(Argv[I], "--trace-out=", 12) == 0) {
      TracePath = Argv[I] + 12;
      Options.Trace = true;
    } else if (std::strncmp(Argv[I], "--trace-structure=", 18) == 0) {
      TraceStructurePath = Argv[I] + 18;
      Options.Trace = true;
    } else if (std::strcmp(Argv[I], "--profile") == 0) {
      ProfileStdout = true;
      Options.Profile = true;
    } else if (std::strncmp(Argv[I], "--profile-out=", 14) == 0) {
      ProfileJsonPath = Argv[I] + 14;
      Options.Profile = true;
    } else if (std::strncmp(Argv[I], "--profile-text=", 15) == 0) {
      ProfileTextPath = Argv[I] + 15;
      Options.Profile = true;
    } else if (std::strncmp(Argv[I], "--", 2) == 0) {
      std::printf("error: unknown option '%s'\n\n", Argv[I]);
      return usage();
    } else {
      Positional.push_back(Argv[I]);
    }
  }
  if (!SnapshotSaveDir.empty()) {
    // Phase 1 of the AOT story: run the builders once per collection model
    // and persist the result. Analyses given as positionals narrow the set
    // of models; with none, write all three.
    std::set<javalib::CollectionModel> Models;
    for (const char *Arg : Positional)
      if (std::optional<AnalysisKind> Kind = parseKind(lowered(Arg)))
        Models.insert(collectionModel(*Kind));
    if (Models.empty())
      Models = {javalib::CollectionModel::OriginalJdk8,
                javalib::CollectionModel::OriginalNoTreeNodes,
                javalib::CollectionModel::SoundModulo};
    for (javalib::CollectionModel Model : Models) {
      auto Start = std::chrono::steady_clock::now();
      snapshot::BaseProgram B = snapshot::buildBase(Model);
      uint64_t Bytes = 0;
      if (std::string Err =
              snapshot::saveToDir(SnapshotSaveDir, B, Model, &Bytes);
          !Err.empty()) {
        std::fprintf(stderr, "error: snapshot save: %s\n", Err.c_str());
        return 1;
      }
      double Seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
      std::printf("saved %s (%llu bytes, %.3fs)\n",
                  snapshot::snapshotPath(SnapshotSaveDir, Model).c_str(),
                  static_cast<unsigned long long>(Bytes), Seconds);
    }
    return 0;
  }
  if (!EditScript.empty()) {
    if (EditScript != "petstore") {
      std::printf("error: unknown edit script '%s' (only 'petstore')\n\n",
                  EditScript.c_str());
      return usage();
    }
    std::optional<AnalysisKind> Kind =
        Positional.size() == 1 ? parseKind(lowered(Positional[0]))
                               : std::nullopt;
    if (!Kind) {
      std::printf("error: --edit needs exactly one analysis\n\n");
      return usage();
    }
    AnalysisSession EditSession(Options);
    return runEditReplay(EditSession, *Kind, EditScratch);
  }
  if (Positional.size() < 2)
    return usage();

  // Classify positionals: benchmark names first, analyses after. "all"
  // expands to the paper's eight benchmarks.
  std::vector<Application> Matrix;
  std::vector<AnalysisKind> Kinds;
  for (const char *Arg : Positional) {
    std::string Wanted = lowered(Arg);
    if (std::optional<AnalysisKind> Kind = parseKind(Wanted)) {
      Kinds.push_back(*Kind);
      continue;
    }
    if (Wanted == "all") {
      for (const NamedApp &A : Apps)
        Matrix.push_back(applicationFor(A.App));
      continue;
    }
    if (Wanted == "dacapo-like") {
      Matrix.push_back(dacapoLikeApp());
      continue;
    }
    if (Wanted == "petstore") {
      Matrix.push_back(petstoreApp());
      continue;
    }
    bool Found = false;
    for (const NamedApp &A : Apps)
      if (Wanted == A.Name) {
        Matrix.push_back(applicationFor(A.App));
        Found = true;
      }
    if (!Found) {
      std::printf("error: unknown benchmark or analysis '%s'\n\n", Arg);
      return usage();
    }
  }
  if (Matrix.empty() || Kinds.empty()) {
    std::printf("error: need at least one benchmark and one analysis\n\n");
    return usage();
  }

  AnalysisSession Session(Options);
  if (!ExplainQuery.empty()) {
    if (Matrix.size() != 1 || Kinds.size() != 1) {
      std::printf("error: --explain needs exactly one benchmark and one "
                  "analysis\n\n");
      return usage();
    }
    return runExplain(Session, Matrix[0], Kinds[0], ExplainQuery,
                      ExplainJson);
  }
  std::printf("%-12s %-10s %9s %9s %9s %10s %8s %8s %9s\n", "benchmark",
              "analysis", "reach(%)", "objs/var", "cg-edges", "polyvcall",
              "mayfail", "ju-share", "time(s)");

  auto Start = std::chrono::steady_clock::now();
  std::vector<AnalysisResult> Results = Session.runMatrix(Matrix, Kinds);
  double MatrixSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  std::vector<Metrics> Rows;
  for (const AnalysisResult &R : Results) {
    if (!R) {
      std::fprintf(stderr, "error [%s]: %s\n",
                   analysisErrorKindName(R.error().Kind),
                   R.error().Message.c_str());
      return 1;
    }
    const Metrics &M = *R;
    std::printf("%-12s %-10s %9.2f %9.1f %9llu %10u %8u %7.1f%% %9.3f\n",
                M.App.c_str(), M.Analysis.c_str(), M.reachabilityPercent(),
                M.AvgObjsPerVar,
                static_cast<unsigned long long>(M.CallGraphEdges),
                M.AppPolyVCalls, M.AppMayFailCasts,
                100.0 * M.javaUtilShare(), M.ElapsedSeconds);
    Rows.push_back(M);
  }

  AnalysisSession::CacheStats CS = Session.cacheStats();
  std::printf("\nmatrix: %zu cells in %.3fs wall (jobs=%u)\n", Rows.size(),
              MatrixSeconds, Session.jobCount());
  std::printf("snapshots: %llu built (%.3fs)\n",
              static_cast<unsigned long long>(CS.SnapshotBuilds),
              CS.BuildSeconds);
  if (CS.SnapshotLoads)
    std::printf("store: %llu read (%.3fs, %llu bytes)\n",
                static_cast<unsigned long long>(CS.SnapshotLoads),
                CS.LoadSeconds, static_cast<unsigned long long>(CS.StoreBytes));

  if (!JsonPath.empty()) {
    if (!writeJson(JsonPath, Rows, CS)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
      return 1;
    }
    std::printf("wrote %zu JSON rows to %s\n", Rows.size(),
                JsonPath.c_str());
  }

  if (ProfileStdout || !ProfileTextPath.empty() || !ProfileJsonPath.empty()) {
    // Row order is deterministic (app-major), so the concatenated text
    // report byte-diffs across job counts.
    std::string Text;
    size_t ProfileCount = 0;
    for (const Metrics &M : Rows)
      if (M.ProfileData) {
        Text += observe::renderProfileText(*M.ProfileData);
        ++ProfileCount;
      }
    if (ProfileStdout) {
      std::printf("\n");
      std::fwrite(Text.data(), 1, Text.size(), stdout);
    }
    if (!ProfileTextPath.empty()) {
      if (!writeTextFile(ProfileTextPath, Text)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     ProfileTextPath.c_str());
        return 1;
      }
      std::printf("wrote %zu profile reports to %s\n", ProfileCount,
                  ProfileTextPath.c_str());
    }
    if (!ProfileJsonPath.empty()) {
      if (!writeProfileJson(ProfileJsonPath, Rows)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     ProfileJsonPath.c_str());
        return 1;
      }
      std::printf("wrote %zu profile JSON objects to %s\n", ProfileCount,
                  ProfileJsonPath.c_str());
    }
  }

  if (const observe::Tracer *Tracer = Session.tracer()) {
    if (!TracePath.empty()) {
      if (!writeTextFile(TracePath, observe::writeChromeTrace(*Tracer))) {
        std::fprintf(stderr, "error: cannot write '%s'\n", TracePath.c_str());
        return 1;
      }
      std::printf("wrote %zu trace spans to %s\n", Tracer->spanCount(),
                  TracePath.c_str());
    }
    if (!TraceStructurePath.empty()) {
      if (!writeTextFile(TraceStructurePath,
                         observe::renderStructure(*Tracer))) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     TraceStructurePath.c_str());
        return 1;
      }
      std::printf("wrote span structure to %s\n",
                  TraceStructurePath.c_str());
    }
    std::printf("\n%s", traceFlameReport(*Tracer).c_str());
  }
  return 0;
}
