//===- Pipeline.h - End-to-end JackEE analysis driver -----------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level public API: assemble an application (Java library +
/// framework API + application code + XML configs), pick an analysis
/// configuration, run it, and collect the paper's metrics.
///
/// Analysis configurations (paper Section 5):
///   - `DoopBaselineCI` — context-insensitive, original collections, basic
///     servlet logic only: the "Doop" bars of Figure 4.
///   - `CI`             — context-insensitive with full framework models.
///   - `OneObjH`        — 1-object-sensitive+heap, full models.
///   - `TwoObjH`        — 2-object-sensitive+heap, original collections:
///     the paper's precise-but-expensive configuration.
///   - `Mod2ObjH`       — 2objH with the sound-modulo-analysis collection
///     models: JackEE's headline configuration.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_CORE_PIPELINE_H
#define JACKEE_CORE_PIPELINE_H

#include "frameworks/FrameworkLibrary.h"
#include "frameworks/FrameworkManager.h"
#include "javalib/JavaLibrary.h"
#include "observe/Profile.h"
#include "pointsto/Solver.h"

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace jackee {
namespace core {

/// The analysis configurations evaluated in the paper, plus the TreeNode
/// ablation (the paper singles out TreeNode elimination as the largest
/// complexity-removal factor of the rewrite; `NoTreeNode2ObjH` measures
/// that step alone).
enum class AnalysisKind {
  DoopBaselineCI,
  CI,
  OneObjH,
  TwoObjH,
  NoTreeNode2ObjH,
  Mod2ObjH,
};

/// Short display name ("ci", "2objH", "mod-2objH", ...).
const char *analysisName(AnalysisKind Kind);
/// Solver context configuration for \p Kind.
pointsto::SolverConfig solverConfig(AnalysisKind Kind);
/// True if \p Kind uses the sound-modulo-analysis collection models.
bool usesSoundModuloCollections(AnalysisKind Kind);
/// The collection model \p Kind analyzes against.
javalib::CollectionModel collectionModel(AnalysisKind Kind);
/// True if \p Kind runs only the Doop baseline servlet rules.
bool usesBaselineRulesOnly(AnalysisKind Kind);

/// An analyzable application: a populate callback plus optional plain-main
/// entry (for desktop-style programs analyzed without framework magic).
struct Application {
  std::string Name;

  /// Adds the application's classes to the program (the Java library and
  /// framework API types are already present) and returns its XML
  /// configuration files as (name, text) pairs.
  std::function<std::vector<std::pair<std::string, std::string>>(
      ir::Program &, const javalib::JavaLib &, const frameworks::FrameworkLib &)>
      Populate;

  /// If non-empty, the class whose static `main` is seeded as an entry
  /// point (desktop-style applications, the paper's DaCapo reference).
  std::string MainClass;

  /// Additional framework-model rule text registered on top of the
  /// built-in frameworks, as (file name, rule text) pairs — the
  /// custom-framework extension point (paper Section 3.2) lifted into the
  /// pipeline API. Parse and stratification problems surface as
  /// `AnalysisError`s instead of being unreportable.
  std::vector<std::pair<std::string, std::string>> ExtraRules;
};

/// Everything the paper reports per (application, analysis) cell.
struct Metrics {
  std::string App;
  std::string Analysis;
  double ElapsedSeconds = 0;

  // Figure 4 — completeness.
  uint32_t AppConcreteMethods = 0;
  uint32_t AppReachableMethods = 0;
  double reachabilityPercent() const {
    return AppConcreteMethods == 0
               ? 0.0
               : 100.0 * AppReachableMethods / AppConcreteMethods;
  }

  // Table 1 — precision.
  double AvgObjsPerVar = 0;
  double AvgObjsPerAppVar = 0;
  uint64_t CallGraphEdges = 0;
  uint32_t ReachableMethodsTotal = 0;
  uint32_t AppVirtualCallSites = 0; ///< static count (the "of ~N" column)
  uint32_t AppPolyVCalls = 0;
  uint32_t AppCasts = 0;            ///< static count
  uint32_t AppMayFailCasts = 0;

  // Figure 5 — cost attribution by cumulative context-sensitive
  // var-points-to inferences (the paper's heuristic).
  uint64_t VptTuplesTotal = 0;
  uint64_t VptTuplesJavaUtil = 0;
  double javaUtilShare() const {
    return VptTuplesTotal == 0
               ? 0.0
               : static_cast<double>(VptTuplesJavaUtil) / VptTuplesTotal;
  }
  double javaUtilSeconds() const { return ElapsedSeconds * javaUtilShare(); }
  double nonJavaUtilSeconds() const {
    return ElapsedSeconds - javaUtilSeconds();
  }

  // Framework-layer activity.
  uint32_t EntryPointsExercised = 0;
  uint32_t BeansCreated = 0;
  uint32_t InjectionsApplied = 0;

  // Solver effort (for ablations and sanity checks).
  uint64_t SolverWorkItems = 0;
  uint64_t SolverEdges = 0;
  uint64_t SolverRounds = 0;    ///< queue generations of the drains

  // Provenance recording (zero unless enabled via
  // `SessionOptions::Provenance` / `JACKEE_PROVENANCE`).
  bool ProvenanceEnabled = false;
  uint64_t ProvenanceTuplesRecorded = 0; ///< derived tuples with a record
  uint64_t ProvenanceCandidatesSeen = 0; ///< candidate derivations observed
  uint32_t ProvenanceGlueEvents = 0;     ///< framework audit-trail entries

  // Datalog engine effort.
  uint64_t DatalogTuplesDerived = 0; ///< tuples derived by framework rules
  uint32_t DatalogStrata = 0;

  // Session cost attribution (`AnalysisSession`): where the cell's wall
  // time went before solving. `ElapsedSeconds` above remains solve-only.
  // Making the base-program images is session set-up, counted in
  // `AnalysisSession::CacheStats`.
  double SnapshotCloneSeconds = 0; ///< decoding the base-program image
  double PopulateSeconds = 0;      ///< app classes + finalize + prepare

  // Observability registry samples (name-sorted, see observe/Metrics.h):
  // memory accounting (`db.relation_bytes`, `process.peak_rss_bytes`),
  // throughput (`datalog.stratum<I>.tuples_per_sec`), and round
  // delta-size histograms.
  // `metricsToJson` exports every sample under "observed.<name>".
  std::vector<std::pair<std::string, double>> Observed;

  // Deep profile (zero unless enabled via `EngineOptions::Profile` /
  // `JACKEE_PROFILE` / `benchmark_cli --profile`): per-rule and
  // per-relation cost attribution plus the points-to set census
  // (observe/Profile.h, DESIGN.md §14). Shared so matrix rows can be
  // copied without duplicating the report.
  std::shared_ptr<const observe::Profile> ProfileData;

  double totalSeconds() const {
    return SnapshotCloneSeconds + PopulateSeconds + ElapsedSeconds;
  }
};

} // namespace core

namespace datalog {
/// Unused: the Datalog engine has one join planner. The one-value enum
/// stays only because the end-to-end benchmark driver
/// (perfbench/driver.cpp) assigns `EngineOptions::Plan`.
enum class PlanMode : uint8_t { Greedy };
} // namespace datalog

namespace core {

/// Cross-cutting engine knobs (as opposed to per-analysis configuration),
/// shared by the one-shot `runAnalysis` wrapper and `SessionOptions` (which
/// inherits them). Environment-variable fallbacks follow one precedence
/// rule, implemented in support/Env.h: explicit option > env var > hardware
/// default.
struct EngineOptions {
  /// Unused: Datalog evaluation is sequential. The field stays only because
  /// the end-to-end benchmark driver (perfbench/driver.cpp) assigns it.
  unsigned DatalogThreads = 0;

  /// Unused: Datalog evaluation has one join planner. The field stays only
  /// because the end-to-end benchmark driver (perfbench/driver.cpp)
  /// assigns it.
  datalog::PlanMode Plan = datalog::PlanMode::Greedy;

  /// Unused: the points-to solver is sequential. The field stays only
  /// because the end-to-end benchmark driver (perfbench/driver.cpp)
  /// assigns it.
  unsigned SolverThreads = 0;

  /// Directory of an AOT snapshot store written by `benchmark_cli
  /// --snapshot-save=DIR` (src/snapshot/, DESIGN.md §13). When non-empty,
  /// base programs are read from the store instead of running
  /// the library builders; a file that is missing or fails validation
  /// falls back to the builders with a stderr warning. Empty resolves the
  /// `JACKEE_SNAPSHOT_DIR` environment variable; when that is unset too,
  /// snapshots always come from the builders. Results are bit-identical
  /// either way (CI byte-diffs the two paths).
  std::string SnapshotDir;

  /// Deep profiler (observe/Profile.h, DESIGN.md §14): per-rule /
  /// per-relation cost attribution, the points-to set census, and the
  /// structured event sink. False resolves the `JACKEE_PROFILE`
  /// environment variable ("1"/"true" enables, "0"/"false" does not; any
  /// other non-empty value enables *and* names the JSONL event-sink output
  /// path — see support/Env.h). The analysis
  /// results are unchanged either way; disabled-mode overhead is a single
  /// predictable branch per evaluation task (bench/micro_profile.cpp
  /// enforces <= 1%).
  bool Profile = false;
};

/// What can go wrong assembling and running an analysis. These used to be
/// `assert`s inside the pipeline — silent wrong results in Release builds;
/// now every failure mode is a first-class, testable outcome.
enum class AnalysisErrorKind {
  ConfigParse,        ///< an application XML configuration failed to parse
  RuleParse,          ///< `Application::ExtraRules` text failed to parse
  Stratification,     ///< the combined rule set has unstratifiable negation
  MainClassNotFound,  ///< `Application::MainClass` names no type
  MainMethodNotFound, ///< the main class has no `main()` method
  InvalidDelta,       ///< an `AnalysisCell::update` delta names unknown or
                      ///< un-retractable entities (see Session.h)
};

/// Stable display name ("config-parse", "stratification", ...).
const char *analysisErrorKindName(AnalysisErrorKind Kind);

/// A failed analysis: what kind of failure, plus the human diagnostic.
struct AnalysisError {
  AnalysisErrorKind Kind;
  std::string Message;
};

/// Expected-style outcome of one analysis cell: either `Metrics` or an
/// `AnalysisError`. Deliberately tiny — `ok()`, `*`/`->` for the metrics,
/// `error()` for the failure, and `value()` as the fatal-on-error accessor
/// that CLI drivers and benches use.
class [[nodiscard]] AnalysisResult {
public:
  /*implicit*/ AnalysisResult(Metrics M) : Value(std::move(M)) {}
  /*implicit*/ AnalysisResult(AnalysisError E) : Err(std::move(E)) {}

  bool ok() const { return Value.has_value(); }
  explicit operator bool() const { return ok(); }

  Metrics &operator*() {
    assert(ok() && "dereferencing a failed AnalysisResult");
    return *Value;
  }
  const Metrics &operator*() const {
    assert(ok() && "dereferencing a failed AnalysisResult");
    return *Value;
  }
  Metrics *operator->() { return &**this; }
  const Metrics *operator->() const { return &**this; }

  const AnalysisError &error() const {
    assert(!ok() && "error() on a successful AnalysisResult");
    return *Err;
  }

  /// The metrics on success; on failure prints the diagnostic to stderr
  /// and exits. For drivers where an analysis failure is unrecoverable —
  /// unlike the old `assert`s, the failure is loud in every build type.
  /// The lvalue overload copies; on an rvalue (`run(...).value()`) the
  /// metrics are moved out instead — `Observed` can be sizable.
  Metrics value() const &;
  Metrics value() &&;

private:
  std::optional<Metrics> Value;
  std::optional<AnalysisError> Err;
};

/// Runs \p Kind on \p App and collects metrics. Thin wrapper over a
/// single-cell `core::AnalysisSession` (see Session.h), which is the
/// batch/caching API underneath.
///
/// \param MockOptions tuning for the mock policy (ablation benches vary it).
AnalysisResult runAnalysis(const Application &App, AnalysisKind Kind,
                           frameworks::MockPolicyOptions MockOptions = {},
                           const EngineOptions &Options = {});

} // namespace core
} // namespace jackee

#endif // JACKEE_CORE_PIPELINE_H
