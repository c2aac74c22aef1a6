//===- Profile.h - Per-rule/relation cost attribution -----------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deep-profiling data model (DESIGN.md §14): an opt-in layer that
/// attributes analysis cost at rule/relation granularity so the next
/// optimization round (the ROADMAP items on compact points-to sets and
/// differential deletion) is driven by measurement instead of guesses.
/// Three pillars:
///
///  1. **Rule/relation attribution** — per-rule pass/round/derivation/match
///     counters plus planner estimated-vs-actual fanout and wall time, and
///     per-relation tuple/byte accounting, aggregated into top-K "hot
///     rules / hot relations" tables.
///  2. **Points-to set census** — at fixpoint, every var's points-to set is
///     hashed canonically to count distinct vs total sets, a size
///     histogram, and the bytes a hash-consing pass would reclaim (the
///     scouting report for the ROADMAP item on compact points-to sets; the
///     paper's `java.util` elephants light up in the package shares).
///  3. **JSONL event sink** — a shared append-only event log that tracer
///     spans, metrics snapshots, and matrix-driver per-cell heartbeats all
///     write through, so long corpus runs are observable in flight.
///
/// **Determinism contract.** Every field is classified as either
/// *deterministic* — bit-identical at any `JACKEE_JOBS` setting — or
/// *volatile* (wall time and RSS).
/// `renderProfileText` emits only deterministic fields, so the text report
/// byte-diffs across job counts;
/// `profileToJson` emits everything, with volatile keys named so
/// `scripts/profile_report.py` can threshold instead of exact-compare
/// them (`*_seconds`, `*_rss_*`).
///
/// The structs here are observe-layer plain data: the Datalog evaluator,
/// the points-to solver, and the session driver each fill in their slice
/// (`Evaluator::ruleProfiles`, `Solver::censusPointsTo`,
/// `AnalysisCell::profile`); this file only defines the model and the two
/// renderers plus the event sink.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_OBSERVE_PROFILE_H
#define JACKEE_OBSERVE_PROFILE_H

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jackee {
namespace observe {

/// Aggregated cost attribution for one Datalog rule (summed over every
/// stratum pass and semi-naive round of a cell's lifetime).
struct ProfileRule {
  std::string Name;   ///< head relation name + per-head ordinal ("VPT#2")
  std::string Origin; ///< rule-text provenance ("spring.dl", "vocabulary.dl")
  // Deterministic, and independent of the join order (see Evaluator.h).
  uint64_t Passes = 0;      ///< rule x delta evaluation passes emitted
  uint64_t RoundsFired = 0; ///< rounds with at least one pass for the rule
  uint64_t Derivations = 0; ///< matches deriving a barrier-fresh head tuple
  uint64_t Matches = 0;     ///< full join matches (planner "actual")
  // Deterministic, following the plan (it picks each pass's drive atom).
  uint64_t TuplesConsidered = 0; ///< drive-range tuples scanned
  double EstimatedFanout = 0;    ///< planner estimate, summed over passes
  // Volatile.
  double WallSeconds = 0;
};

/// Storage accounting for one relation at end of analysis.
struct ProfileRelationRow {
  std::string Name;
  uint32_t Arity = 0;
  // Deterministic.
  uint64_t Tuples = 0;    ///< dense tuple count (incl. tombstones)
  uint64_t Live = 0;      ///< live tuples
  uint64_t Dead = 0;      ///< tombstoned tuples
  uint64_t DataBytes = 0; ///< Tuples * Arity * sizeof(Symbol) — exact payload
  // Deterministic, but capacity-derived footprints (the names say
  // approximate); indexes are built lazily for the passes the plan runs.
  uint64_t StoreBytesApprox = 0; ///< tuple store + dedup table footprint
  uint64_t IndexBytesApprox = 0; ///< secondary index footprint
  uint64_t IndexesApprox = 0;    ///< number of indexes built
};

/// The points-to set census: every var node's set hashed canonically at
/// fixpoint. All fields deterministic.
struct ProfileCensus {
  uint64_t VarNodes = 0;        ///< var nodes in the solver graph
  uint64_t NonEmptySets = 0;    ///< vars with at least one value
  uint64_t DistinctSets = 0;    ///< distinct set contents among those
  uint64_t TotalEntries = 0;    ///< sum of set sizes
  uint64_t DistinctEntries = 0; ///< sum of sizes over distinct sets
  /// Heap bytes of those sets: order vectors plus bitsets, by capacity.
  uint64_t SetBytes = 0;
  /// The bytes of every set past the first, in node order, of its contents
  /// class: the share of SetBytes hash-consing frees.
  uint64_t ReclaimableBytes = 0;
  uint64_t MaxSetSize = 0;
  /// Power-of-two set-size histogram: bucket 0 counts size-1 sets, bucket
  /// `i` counts sizes in `(2^(i-1), 2^i]`. Trailing zero buckets trimmed.
  std::vector<uint64_t> Histogram;
  /// VarPointsTo tuples attributed to a package prefix of the var's
  /// declaring class — where the paper's `java.util` elephants show up.
  struct PackageShare {
    std::string Prefix;
    uint64_t Tuples = 0;
  };
  std::vector<PackageShare> Packages;

  /// Total vs distinct non-empty sets — the hash-consing upside. 1.0 when
  /// nothing is shared (or the census is empty).
  double sharingRatio() const {
    return DistinctSets ? double(NonEmptySets) / double(DistinctSets) : 1.0;
  }
};

/// One pipeline phase boundary sample (extract / wiring / solve / report).
/// Both fields volatile; the phase *names and order* are deterministic.
struct ProfilePhase {
  std::string Name;
  double Seconds = 0;
  uint64_t PeakRssBytes = 0;
};

/// A complete profile for one analysis cell.
struct Profile {
  std::string Label; ///< "app/analysis"
  std::vector<ProfileRule> Rules;            ///< rule-definition order
  std::vector<ProfileRelationRow> Relations; ///< relation-id order
  ProfileCensus Census;
  std::vector<ProfilePhase> Phases;
};

/// Renders the deterministic report: top-\p TopK hot rules (by derivations)
/// and hot relations (by payload bytes) plus the full census. Emits only
/// deterministic fields, so the output is bit-identical across job counts
/// (the profile-smoke CI byte-diff).
std::string renderProfileText(const Profile &P, size_t TopK = 10);

/// Renders the complete profile — volatile fields included — as a JSON
/// object, indented by \p Indent spaces per level starting at \p BaseIndent.
/// Input to `scripts/profile_report.py`.
std::string profileToJson(const Profile &P, unsigned BaseIndent = 0);

//===----------------------------------------------------------------------===//
// EventSink
//===----------------------------------------------------------------------===//

/// Append-only JSONL event log. Each event is one line —
/// `{"seq":N,"event":"kind",...fields}` — committed atomically under one
/// mutex, so writers on any thread (tracer span flushes, per-cell metric
/// snapshots, matrix heartbeats) interleave at line granularity and `tail
/// -f` of a corpus run always sees complete records. Events append to an
/// in-memory buffer, or stream to a file once `openFile` succeeds.
class EventSink {
public:
  EventSink() = default;
  ~EventSink();
  EventSink(const EventSink &) = delete;
  EventSink &operator=(const EventSink &) = delete;

  /// Builder for one event line; fields append in call order and the line
  /// commits when the builder is destroyed.
  class Event {
  public:
    Event(Event &&Other) noexcept : Sink(Other.Sink), Line(std::move(Other.Line)) {
      Other.Sink = nullptr;
    }
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    Event &operator=(Event &&) = delete;
    ~Event();

    Event &str(std::string_view Key, std::string_view Value);
    Event &num(std::string_view Key, double Value);
    Event &num(std::string_view Key, uint64_t Value);

  private:
    friend class EventSink;
    Event(EventSink *Sink, std::string_view Kind);
    EventSink *Sink;
    std::string Line;
  };

  /// Begins an event of kind \p Kind.
  Event event(std::string_view Kind) { return Event(this, Kind); }

  /// Streams subsequent (and already-buffered) events to \p Path,
  /// truncating it. \returns false (and keeps buffering) if the file can't
  /// be opened.
  bool openFile(const std::string &Path);

  uint64_t eventCount() const;
  uint64_t bytesWritten() const;

  /// The buffered events (empty once a file is attached — lines stream out
  /// instead of accumulating). For tests.
  std::string buffered() const;

private:
  void commit(std::string &Line);

  mutable std::mutex Mutex;
  std::FILE *Out = nullptr;
  std::string Buffer;
  uint64_t Seq = 0;
  uint64_t Bytes = 0;
};

} // namespace observe
} // namespace jackee

#endif // JACKEE_OBSERVE_PROFILE_H
