//===- Session.h - Analysis cells + batch analysis driver -------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `AnalysisSession`: the analysis-cell API underneath `runAnalysis`.
///
/// The paper's evaluation (Section 5) is a *matrix* — every application
/// run under several analysis configurations. The base program those cells
/// share (the Java library model plus the enterprise framework API types)
/// is immutable and identical for every cell with the same collection
/// model, yet the free-function pipeline rebuilt it from scratch per cell.
/// A session fixes both inefficiencies:
///
///  - **Snapshot cache.** Each `javalib::CollectionModel`'s base program
///    is kept as one immutable serialized image (snapshot/Snapshot.h):
///    the mapped AOT store's bytes, or the builders' output serialized
///    once. Every analysis cell decodes its own `SymbolTable`, unfinalized
///    `ir::Program`, `JavaLib` / `FrameworkLib` id bundles and base facts
///    from that image instead of re-running the library builders, then
///    populates its application on top.
///
///  - **Batch matrix driver.** `runMatrix(Apps, Kinds)` fans the cells out
///    over `SessionOptions::Jobs` threads (0 resolves `JACKEE_JOBS`, then
///    `hardware_concurrency`) that pull cell indexes from one shared
///    cursor. Cells are independent (own symbol table, program, database,
///    solver), so results are returned in deterministic app-major order
///    and are bit-identical to sequential execution at any job count.
///
///  - **Live cells.** `open(App, Kind)` runs a cell and *keeps it open* as
///    an `AnalysisCell`: the symbol table, program, fact database, rule
///    set, solver and provenance store stay live for post-hoc `explain()`
///    queries and — the point of the design — incremental re-analysis via
///    `AnalysisCell::update(CellDelta)`, which re-establishes the fixpoint
///    after an edit without rebuilding the cell (DESIGN.md §12).
///
/// Failure modes (config parse errors, unstratifiable rules, missing main
/// classes) surface as `AnalysisError`s through `AnalysisResult` /
/// `CellResult` instead of the old Release-silent `assert`s.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_CORE_SESSION_H
#define JACKEE_CORE_SESSION_H

#include "core/Pipeline.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "provenance/Explain.h"

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace jackee {
namespace core {

/// Session-wide knobs. Per-analysis configuration stays in `AnalysisKind`;
/// the engine knobs (`Plan`, `SnapshotDir`, `Profile`) are inherited from
/// `EngineOptions`, one struct shared with `runAnalysis`. `Jobs` is the
/// only parallelism: each cell runs on one thread.
struct SessionOptions : EngineOptions {
  /// Matrix workers for `runMatrix`. 0 resolves the `JACKEE_JOBS`
  /// environment variable, falling back to `hardware_concurrency`;
  /// 1 runs cells inline on the calling thread.
  unsigned Jobs = 0;

  /// Memoize each collection model's base-program image for the session.
  /// When false, every cell gets a freshly made image (store or builders),
  /// decoded by the same path as a memoized one.
  bool SnapshotCache = true;

  /// Record derivation provenance in every batch cell (see
  /// src/provenance/). When false, the `JACKEE_PROVENANCE` environment
  /// variable ("1"/"true") still enables it — the env-var path lets
  /// existing drivers measure recording overhead without an API change.
  /// Recording costs memory and a little time. Live cells opened with
  /// `open()` always record: `update()` needs the derivation store for
  /// its DRed support cone.
  bool Provenance = false;

  /// Collect spans for every phase the session drives (snapshot builds,
  /// cells, populate/solve, bean-wiring rounds, Datalog strata/rounds) in
  /// an `observe::Tracer` reachable via `tracer()`. When false, the
  /// `JACKEE_TRACE` environment variable still enables it: "1"/"true"
  /// just turn tracing on, "0"/"false" leave it off; any other non-empty
  /// value turns it on and names a file the session writes as Chrome
  /// trace-event JSON on destruction (see support/Env.h).
  /// The timestamp-stripped span structure (`observe::renderStructure`) is
  /// bit-identical at any `Jobs` setting — see observe/Trace.h for the
  /// contract.
  bool Trace = false;

  /// Mock-policy tuning, applied to every cell.
  frameworks::MockPolicyOptions MockOptions;
};

/// One incremental edit applied to a live `AnalysisCell`. Within one
/// update the parts apply in a fixed order — class retractions, method
/// retractions, config retractions, `AddCode`, config insertions — and
/// `applyDelta` replays the identical order when building the from-scratch
/// baseline, so both paths assign identical entity ids (the property the
/// differential oracle's canonical dumps rest on).
struct CellDelta {
  /// Registered configuration file names to deregister.
  std::vector<std::string> RetractConfigs;

  /// Configuration files to register, as (file name, XML text) pairs.
  std::vector<std::pair<std::string, std::string>> AddConfigs;

  /// Fully qualified names of application classes to tombstone, along with
  /// every method they declare. A class with live subtypes cannot be
  /// retracted — list the subtypes first (the vector applies in order).
  std::vector<std::string> RetractClasses;

  /// (class name, simple method name) pairs; tombstones every live
  /// overload of that name.
  std::vector<std::pair<std::string, std::string>> RetractMethods;

  /// Adds classes/methods/fields on top of the existing program, exactly
  /// like `Application::Populate` (construction may only *add* entities —
  /// never mutate existing ones). Configuration files have no analogue
  /// here; use `AddConfigs`.
  std::function<void(ir::Program &, const javalib::JavaLib &,
                     const frameworks::FrameworkLib &)>
      AddCode;

  bool empty() const {
    return RetractConfigs.empty() && AddConfigs.empty() &&
           RetractClasses.empty() && RetractMethods.empty() && !AddCode;
  }
};

/// A live analysis cell: the complete state of one (application, analysis)
/// run — symbol table, program, fact database, rule set, evaluator, solver
/// and provenance store — held open after the fixpoint for derivation
/// queries and incremental re-analysis. Obtained from
/// `AnalysisSession::open`; the session must outlive its cells (a cell
/// borrows the session's tracer).
///
/// `update(Delta)` re-establishes the analysis fixpoint after an edit
/// without rebuilding the cell (DESIGN.md §12). Retracted entities'
/// base facts are tombstoned in place, every derived tuple whose recorded
/// canonical derivation transitively depends on one is tombstoned too
/// (DRed-style over-deletion through the provenance support cone), and the
/// framework/solver coupling re-runs — the Datalog evaluator's naive seed
/// round re-derives everything still derivable, and the bean-wiring glue
/// replays against a fresh solver. The resulting points-to sets, call
/// graph and semantic metrics are bit-identical to analyzing the edited
/// application from scratch (see `applyDelta`); effort counters (rounds,
/// work items, tuples derived) legitimately differ.
class AnalysisCell {
public:
  ~AnalysisCell();
  AnalysisCell(const AnalysisCell &) = delete;
  AnalysisCell &operator=(const AnalysisCell &) = delete;

  /// Metrics of the most recent fixpoint (the `open()` run, or the last
  /// successful `update()`).
  const Metrics &metrics() const { return Current; }

  /// Applies \p Delta and re-solves. On success returns the new metrics
  /// (also retained in `metrics()`). Unknown entity/config names return
  /// `AnalysisErrorKind::InvalidDelta` with the cell untouched; a
  /// constraint failure discovered mid-apply (e.g. retracting a class
  /// whose subtypes are live) also returns `InvalidDelta` but leaves the
  /// cell unusable — open a fresh cell.
  AnalysisResult update(const CellDelta &Delta);

  /// Derivation trees for every live tuple matching \p Query
  /// (`Rel("a", _, b)` syntax — see provenance/Explain.h). On a parse or
  /// lookup error returns empty and sets \p Error.
  std::vector<provenance::DerivationNode> explain(std::string_view Query,
                                                  std::string &Error) const;

  /// `explain()` rendered as indented text, trees concatenated in tuple
  /// order.
  std::string explainText(std::string_view Query, std::string &Error) const;

  /// A canonical, entity-id-stable dump of the analysis result: sorted
  /// lines for reachable application methods, context-insensitive
  /// variable points-to (site identity spelled via populate-stable ids
  /// for program sites and unique labels for framework-created objects),
  /// and call-graph edges. Equal cell states — e.g. an updated cell vs. a
  /// from-scratch run of `applyDelta` — produce byte-identical dumps at
  /// any job count. The differential oracle of the incremental
  /// tests and CI.
  std::string canonicalDigest() const;

  /// Number of `update()` calls that have been applied.
  uint32_t updateCount() const { return Updates; }

  /// The deep profile of the most recent fixpoint (same object as
  /// `metrics().ProfileData`), or null when profiling is off for the
  /// session (see `EngineOptions::Profile`).
  std::shared_ptr<const observe::Profile> profile() const {
    return Current.ProfileData;
  }

  /// \name Cell state accessors (what `CellProvenance` used to hand out)
  /// @{
  const ir::Program &program() const { return *Prog; }
  const datalog::Database &database() const { return *DB; }
  const datalog::RuleSet &rules() const;
  const provenance::ProvenanceRecorder &recorder() const { return *Recorder; }
  const pointsto::Solver &solver() const { return *Solver_; }
  /// @}

private:
  friend class AnalysisSession;
  AnalysisCell() = default;

  /// Shared tail of open/update: semantic + effort metrics off the current
  /// fixpoint, registry fold, provenance stats, and — when profiling — the
  /// deep-profile assembly.
  void finishMetrics(Metrics &M);

  /// Assembles the cell's `observe::Profile` (rule attribution off the
  /// evaluator, relation byte accounting off the database, the points-to
  /// census off the solver, phase samples off \p M) and publishes the
  /// deterministic census gauges into the cell registry.
  std::shared_ptr<const observe::Profile> buildProfile(const Metrics &M);

  // Identity / configuration (immutable after open).
  std::string AppName;
  std::string MainClass;
  AnalysisKind Kind = AnalysisKind::CI;
  bool Profiled = false;            ///< deep profiler on for this cell
  observe::Tracer *Trace = nullptr; ///< session-owned; may be null
  observe::EventSink *Events = nullptr; ///< session-owned; may be null

  // Cell state. Declaration order is destruction-order-critical (members
  // destroy in reverse): the solver dies before the framework manager it
  // references, the recorder before the rule set (inside FM) and database
  // it indexes, the database before the symbol table.
  std::unique_ptr<SymbolTable> Symbols;
  std::unique_ptr<ir::Program> Prog;
  javalib::JavaLib Lib;
  frameworks::FrameworkLib Fw;
  std::unique_ptr<observe::MetricsRegistry> Registry; ///< fresh per update
  std::unique_ptr<datalog::Database> DB;
  std::unique_ptr<frameworks::FrameworkManager> FM;
  std::unique_ptr<provenance::ProvenanceRecorder> Recorder;
  std::unique_ptr<pointsto::Solver> Solver_;

  // Update bookkeeping.
  facts::ProgramWatermark Watermark;  ///< entity tables at last extraction
  uint32_t AllocWatermark = 0;        ///< alloc sites before solving (the
                                      ///< rest are framework-created)
  uint32_t Updates = 0;
  bool Poisoned = false; ///< a mid-apply failure left the cell inconsistent
  Metrics Current;
};

/// Outcome of `AnalysisSession::open`: a live cell or an `AnalysisError`.
/// Mirrors `AnalysisResult`'s tiny expected-style surface.
class [[nodiscard]] CellResult {
public:
  /*implicit*/ CellResult(std::unique_ptr<AnalysisCell> C)
      : Cell(std::move(C)) {}
  /*implicit*/ CellResult(AnalysisError E) : Err(std::move(E)) {}

  bool ok() const { return Cell != nullptr; }
  explicit operator bool() const { return ok(); }

  AnalysisCell &operator*() {
    assert(ok() && "dereferencing a failed CellResult");
    return *Cell;
  }
  AnalysisCell *operator->() { return &**this; }

  const AnalysisError &error() const {
    assert(!ok() && "error() on a successful CellResult");
    return *Err;
  }

  /// The cell on success; on failure prints the diagnostic to stderr and
  /// exits (the CLI-driver accessor, like `AnalysisResult::value`).
  std::unique_ptr<AnalysisCell> value() &&;

private:
  std::unique_ptr<AnalysisCell> Cell;
  std::optional<AnalysisError> Err;
};

/// The from-scratch equivalent of `open(App, Kind)` followed by
/// `update(Deltas[0])`, `update(Deltas[1])`, ...: an application whose
/// populate replays every delta, in the cell path's application order, on
/// top of \p Base's populate. Entity ids and tombstoned table slots come
/// out identical to the incremental path's, so `canonicalDigest()` dumps
/// are directly comparable — the differential oracle used by the
/// incremental tests and CI.
Application applyDelta(Application Base, std::vector<CellDelta> Deltas);

/// A cache of base-program snapshots, a parallel batch driver, and the
/// factory for live `AnalysisCell`s. Sessions are self-contained and
/// thread-safe with respect to their own workers; a single session must
/// not be driven from multiple external threads concurrently.
class AnalysisSession {
public:
  explicit AnalysisSession(SessionOptions Options = {});
  ~AnalysisSession();

  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  /// Runs one (application, analysis) cell to its fixpoint and returns it
  /// *live*, with provenance recording always on (updates need the
  /// derivation store). The session must outlive the cell.
  CellResult open(const Application &App, AnalysisKind Kind);

  /// Runs one (application, analysis) cell batch-style. Thin wrapper over
  /// `open` that keeps only the metrics.
  AnalysisResult run(const Application &App, AnalysisKind Kind);

  /// Runs the full \p Apps × \p Kinds matrix on the session's `Jobs`
  /// threads and returns one result per cell in app-major order
  /// (`Results[A * Kinds.size() + K]`). Results are bit-identical to
  /// sequential execution at any job count, modulo wall-clock fields.
  ///
  /// `Application::Populate` callbacks run concurrently at Jobs > 1 and
  /// must not mutate state shared across cells.
  std::vector<AnalysisResult> runMatrix(const std::vector<Application> &Apps,
                                        const std::vector<AnalysisKind> &Kinds);

  /// Session-lifetime image accounting: the set-up cost of base-program
  /// images. A missing image is made either by the builders
  /// (`SnapshotBuilds`) or — when a store directory is configured — by
  /// mapping and validating the AOT store (`SnapshotLoads`, see
  /// src/snapshot/). The per-cell decode is timed in
  /// `Metrics::SnapshotCloneSeconds`.
  struct CacheStats {
    uint64_t SnapshotBuilds = 0; ///< images built (one per model)
    uint64_t SnapshotLoads = 0;  ///< images mapped from the store
    uint64_t StoreBytes = 0;     ///< total store bytes mapped and validated
    double BuildSeconds = 0;     ///< builders + serialization
    double LoadSeconds = 0;
  };
  CacheStats cacheStats() const;

  /// The session's span tracer, or null when tracing is disabled (see
  /// `SessionOptions::Trace`). Valid for the session's lifetime; render
  /// with `observe::renderStructure` / `renderFlame` /
  /// `writeChromeTrace`.
  observe::Tracer *tracer() const { return Trace.get(); }

  /// The session's structured event sink, or null when profiling is
  /// disabled (see `EngineOptions::Profile`). Tracer span flushes,
  /// per-cell metric snapshots and matrix heartbeats all write through it;
  /// `JACKEE_PROFILE=<path>` streams it as JSONL.
  observe::EventSink *eventSink() const { return Events.get(); }

  /// True when cells run with the deep profiler attached.
  bool profilingEnabled() const { return ProfileCells; }

  /// The resolved matrix worker count.
  unsigned jobCount() const { return Jobs; }

  /// The job count a `Jobs == 0` session resolves to: `JACKEE_JOBS` if set
  /// to a positive integer, else `std::thread::hardware_concurrency()`,
  /// clamped to [1, 256].
  static unsigned defaultJobCount();

private:
  /// One collection model's base program as an immutable serialized image
  /// (snapshot/Snapshot.h). Everything application-independent, including
  /// the extracted base relation facts cells bulk-load instead of
  /// re-extracting (facts/BaseFacts.h).
  struct BaseImage {
    std::vector<uint8_t> Bytes;
    bool FromStore = false;  ///< mapped from the store, else built
    double LoadSeconds = 0;  ///< store path; 0 when built
  };

  /// The image for \p Model: the session's memoized one, or else a new
  /// one, memoized when `SnapshotCache` is on. A new image comes from the
  /// mmap-able AOT store (when `SnapshotDir` resolved non-empty; a failed
  /// load warns on stderr and falls through), else from the builders.
  /// Its `snapshot-load`/`snapshot-build` span is parented to
  /// \p ParentSpan (see `openCell`). Thread-safe.
  std::shared_ptr<const BaseImage> imageFor(javalib::CollectionModel Model,
                                            uint32_t ParentSpan);

  /// Builds and solves one cell end to end; the single code path under
  /// both `open` (keeps the cell) and `run`/`runMatrix` (keep only
  /// metrics). \p ForceProvenance overrides `SessionOptions::Provenance`
  /// (live cells always record). \p ParentSpan explicitly parents the
  /// cell's span — `runMatrix` passes the matrix span so cells running on
  /// worker threads still nest under it, and so does an image made for
  /// the cell, whichever cell of its model gets there first.
  CellResult openCell(const Application &App, AnalysisKind Kind,
                      bool ForceProvenance,
                      uint32_t ParentSpan = observe::Tracer::NoSpan);

  SessionOptions Options;
  unsigned Jobs = 1;        ///< resolved matrix worker count
  bool RecordProvenance = false; ///< Options.Provenance or JACKEE_PROVENANCE
  std::string SnapshotDir; ///< resolved AOT store directory ("" = disabled)
  bool ProfileCells = false; ///< Options.Profile or JACKEE_PROFILE
  // The sink is declared before the tracer that mirrors spans into it, so
  // it destructs after the tracer.
  std::unique_ptr<observe::EventSink> Events; ///< null unless profiling
  std::unique_ptr<observe::Tracer> Trace; ///< null when tracing is off
  std::string TraceOutPath; ///< from JACKEE_TRACE; written by the dtor

  mutable std::mutex CacheMutex;
  std::map<javalib::CollectionModel, std::shared_ptr<const BaseImage>> Cache;
  CacheStats Stats;
};

} // namespace core
} // namespace jackee

#endif // JACKEE_CORE_SESSION_H
