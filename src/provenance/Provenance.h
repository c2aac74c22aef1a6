//===- Provenance.h - Derivation recording ----------------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Derivation recording for the Datalog engine and the framework glue around
/// it. A `ProvenanceRecorder` attaches to a `datalog::Evaluator` as its
/// `DerivationObserver` and keeps, for every derived tuple, the canonical
/// (rule, witness tuples) derivation that produced it — canonical meaning
/// the least candidate of the round the tuple first appeared in, ordered by
/// rule index and then by the witness tuples' *contents* (not their dense
/// indexes: a round's new tuples are appended in derivation order, which
/// follows the join plan, so indexes change with the join order while
/// contents never do). No join order can change the surviving derivation
/// (see DESIGN.md §8). Base facts carry no
/// derivation; instead they are attributed to the *epoch* (extraction,
/// bean-wiring round N, ...) during which they were inserted, via
/// relation-size watermarks taken at each `beginEpoch` call.
///
/// On top of tuple provenance, the recorder keeps an audit trail of *glue
/// events*: the imperative actions the framework layer performs between
/// evaluator runs (mock-object creation, bean instantiation, injections,
/// `getBean` resolution, entry-point discovery) that pure Datalog provenance
/// cannot see. Together they answer "why is this entry point exercised?"
/// all the way down to base facts — the `explain()` query engine in
/// Explain.h materializes that answer as a tree.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_PROVENANCE_PROVENANCE_H
#define JACKEE_PROVENANCE_PROVENANCE_H

#include "datalog/Evaluator.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace jackee {
namespace provenance {

/// Records the canonical derivation of every tuple derived while attached
/// to an evaluator, plus epoch watermarks and framework glue events.
///
/// Memory discipline: records live in flat append-only vectors (one
/// `Record` plus its witness refs per derived tuple); a replaced candidate
/// leaves at most a few stale refs in the arena, bounded by the number of
/// same-round duplicate derivations. There is no per-tuple allocation.
class ProvenanceRecorder : public datalog::DerivationObserver {
public:
  /// Sentinel: "no record" / "no rule".
  static constexpr uint32_t None = ~uint32_t(0);

  /// The canonical derivation of one tuple: rule `RuleIdx` of the attached
  /// rule set matched the witness tuples `refs(record)` — one dense tuple
  /// index per positive body atom, in body order (the witness's relation is
  /// the body atom's relation).
  struct Record {
    uint32_t RuleIdx = None;
    uint32_t RefBegin = 0;
    uint32_t RefCount = 0;
  };

  /// One imperative action of the framework layer, recorded at the solver
  /// round it happened in. `Subject` names the affected entity (method id,
  /// bean id, class name); `Detail` carries kind-specific context.
  struct GlueEvent {
    enum class Kind {
      EntryPointExercised, ///< entry-point method handed to the analysis
      MockObjectCreated,   ///< mock receiver/argument object synthesized
      BeanObjectCreated,   ///< bean instantiated from a definition
      FieldInjection,      ///< bean wired into a field
      MethodInjection,     ///< bean wired through a setter/ctor parameter
      GetBeanResolved,     ///< programmatic getBean() call resolved
    };
    Kind EventKind;
    std::string Subject;
    std::string Detail;
    uint32_t Round = 0; ///< bean-wiring round (0 = initial)
  };

  struct Stats {
    uint64_t CandidatesSeen = 0;   ///< onDerivation calls
    uint64_t TuplesRecorded = 0;   ///< tuples with a derivation record
    uint64_t CandidatesReplaced = 0; ///< keep-min replacements
    uint64_t WitnessRefs = 0;      ///< live refs (excl. stale arena slack)
  };

  /// A tuple address: relation id index + dense tuple index. What the
  /// DRed support-cone queries traffic in.
  struct TupleRef {
    uint32_t Rel = 0;
    uint32_t Index = 0;
  };

  /// Creates a recorder over \p DB and \p Rules (the rule set the observed
  /// evaluator runs — candidate comparison needs each witness's relation).
  /// The recorder never mutates either; the database is also used to take
  /// relation-size watermarks at `beginEpoch`.
  ProvenanceRecorder(const datalog::Database &DB,
                     const datalog::RuleSet &Rules)
      : DB(DB), Rules(Rules) {}

  /// datalog::DerivationObserver: keeps the least candidate per tuple,
  /// ordered by rule index then witness contents. Serialized by the engine.
  void onDerivation(uint32_t Rel, uint32_t TupleIndex, uint32_t RuleIdx,
                    std::span<const uint32_t> BodyRefs) override;

  /// Starts a new attribution epoch labelled \p Label; tuples inserted from
  /// now on (until the next `beginEpoch`) that never get a derivation
  /// record are attributed to it. Call before inserting base facts (e.g.
  /// "extraction") and at every bean-wiring round boundary ("bean-wiring
  /// round 2"). Idempotent for back-to-back calls with no insertions in
  /// between only in the sense that the earlier empty epoch simply covers
  /// no tuples.
  void beginEpoch(std::string Label);

  /// The canonical derivation of tuple \p TupleIndex of relation \p Rel, or
  /// nullptr if the tuple is a base fact (or was inserted while detached).
  const Record *derivationOf(uint32_t Rel, uint32_t TupleIndex) const;

  /// DRed support cone: every recorded tuple whose canonical derivation
  /// transitively cites one of \p Seeds as a witness (the seeds themselves
  /// are not returned). `AnalysisCell::update` tombstones the cone before
  /// re-deriving; keeping only the canonical derivation per tuple is safe
  /// because canonical witnesses always predate their head tuple (candidates
  /// arrive in the head's first-appearance round and cite earlier-round
  /// tuples), so any tuple outside the cone retains an acyclic derivation
  /// chain grounded in live base facts. Deterministic for a fixed recorder
  /// state and seed order; see DESIGN.md §12.
  std::vector<TupleRef> supportCone(std::span<const TupleRef> Seeds) const;

  /// Every recorded tuple whose canonical rule is marked in \p RuleMask
  /// (indexed by rule index; out-of-range = unmarked). The update path
  /// seeds the support cone with all tuples derived by rules containing
  /// negation when a delta retracts facts — deletion can create new
  /// derivations through `!atom`, which DRed's delete/re-derive alone
  /// cannot discover.
  std::vector<TupleRef> tuplesDerivedBy(const std::vector<bool> &RuleMask) const;

  /// Drops the derivation record of (\p Rel, \p TupleIndex) — used when the
  /// tuple is tombstoned during an update so a later re-derivation at a
  /// fresh index starts clean. Adjusts `stats()` accordingly. No-op for
  /// unrecorded tuples.
  void invalidate(uint32_t Rel, uint32_t TupleIndex);

  /// The witness tuple indexes of \p R (positive body atoms, body order).
  std::span<const uint32_t> refs(const Record &R) const {
    return std::span<const uint32_t>(RefArena.data() + R.RefBegin,
                                     R.RefCount);
  }

  /// The label of the epoch tuple \p TupleIndex of \p Rel was inserted in
  /// ("unknown" when no epoch was begun before the tuple appeared).
  const std::string &epochOf(uint32_t Rel, uint32_t TupleIndex) const;

  /// Number of epochs begun so far.
  size_t epochCount() const { return Epochs.size(); }

  /// Appends a glue event to the audit trail.
  void recordGlue(GlueEvent::Kind Kind, std::string Subject,
                  std::string Detail, uint32_t Round);

  const std::vector<GlueEvent> &glueEvents() const { return Glue; }

  const Stats &stats() const { return RecStats; }

  /// Human-readable name for a glue-event kind.
  static const char *glueKindName(GlueEvent::Kind Kind);

private:
  struct Epoch {
    std::string Label;
    std::vector<uint32_t> Watermark; ///< relation sizes at epoch start
  };

  /// True if candidate (\p RuleIdx, \p Refs) orders before the stored
  /// record \p Old (rule index first, then witness contents per positive
  /// body atom).
  bool candidateLess(uint32_t RuleIdx, std::span<const uint32_t> Refs,
                     const Record &Old) const;

  const datalog::Database &DB;
  const datalog::RuleSet &Rules;

  /// Per relation id: record slot per tuple index (`None` = no record).
  std::vector<std::vector<uint32_t>> RecordOf;
  std::vector<Record> Records;
  std::vector<uint32_t> RefArena;

  std::vector<Epoch> Epochs;
  std::vector<GlueEvent> Glue;
  Stats RecStats;
};

} // namespace provenance
} // namespace jackee

#endif // JACKEE_PROVENANCE_PROVENANCE_H
