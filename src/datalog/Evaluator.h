//===- Evaluator.h - Semi-naive stratified Datalog evaluation ---*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bottom-up Datalog evaluation: predicates are stratified by Tarjan SCCs of
/// the "feeds" graph (negation must not cross into its own stratum), and each
/// stratum runs semi-naive iteration where recursive atoms range over the
/// previous round's delta. Re-running an evaluator after externally
/// inserting more facts is supported and derives exactly the new
/// consequences — the JackEE bean-wiring loop relies on this (rules consume
/// analysis results and feed new ones back, Section 3.5 of the paper).
///
/// Evaluation is sequential: each round's rule×delta passes run one after
/// another and insert derived tuples directly. The paper runs Doop on
/// parallel Soufflé because Datalog is its whole analysis; here Datalog only
/// evaluates the framework vocabulary, under 1% of a cell's wall time.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_DATALOG_EVALUATOR_H
#define JACKEE_DATALOG_EVALUATOR_H

#include "datalog/Rule.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jackee {
namespace datalog {

/// Observer of tuple derivations, attached via `Evaluator::setObserver`
/// (implemented by `provenance::ProvenanceRecorder`; the interface lives
/// here so the engine does not depend on the provenance library).
///
/// The evaluator reports every *candidate* derivation of each tuple that
/// first appears in the current semi-naive round — and never calls again
/// for a tuple once the round it appeared in is over, so a tuple's
/// provenance is fixed at its first round. The set of candidates of a
/// round is snapshot-bounded (joins only range over tuples present at the
/// round barrier) and therefore identical under every join plan — as
/// tuple *contents*; the dense indexes in `BodyRefs` are not
/// plan-invariant, because a round's new tuples are appended in derivation
/// order, which follows the plan's enumeration order. An observer that
/// keeps the least candidate per tuple ordered by `RuleIdx` and then by the
/// referenced tuples' contents records derivations that are bit-identical
/// under any `JACKEE_PLAN` (`provenance::ProvenanceRecorder` does exactly
/// that). Calls happen on the thread that called `run()`, so
/// implementations need no locking.
class DerivationObserver {
public:
  virtual ~DerivationObserver() = default;

  /// One candidate derivation of tuple \p TupleIndex of relation \p Rel:
  /// rule \p RuleIdx (index into the evaluator's rule set) matched with
  /// the witness tuples in \p BodyRefs — one dense tuple index per
  /// *positive* body atom, in body order. Negated atoms and constraints
  /// contribute no witnesses; fact rules have an empty span. Witnesses
  /// always predate the round (their indexes are below the round-barrier
  /// snapshot), so the derivation graph is acyclic by construction.
  virtual void onDerivation(uint32_t Rel, uint32_t TupleIndex,
                            uint32_t RuleIdx,
                            std::span<const uint32_t> BodyRefs) = 0;
};

/// Evaluates a rule set over a database to fixpoint.
class Evaluator {
public:
  /// Per-stratum observability record.
  ///
  /// Every field accumulates across `run()` calls — the bean-wiring loop
  /// re-runs the evaluator once per solver round, and each re-run adds its
  /// rounds, passes, tuples, and wall seconds on top of the previous
  /// totals (nothing resets, `Rounds` included). All counters are
  /// therefore monotone non-decreasing over an evaluator's lifetime.
  struct StratumStats {
    uint32_t Rules = 0;          ///< rules whose head is in this stratum
    uint32_t Rounds = 0;         ///< semi-naive rounds (incl. seed rounds)
    uint64_t RuleEvaluations = 0; ///< rule×delta evaluation passes
    uint64_t TuplesDerived = 0;  ///< new tuples inserted by rule heads
    double WallSeconds = 0;      ///< wall time spent in this stratum
  };

  struct Stats {
    uint64_t TuplesDerived = 0; ///< new tuples inserted by rule heads
    uint64_t RuleEvaluations = 0; ///< rule×delta evaluation passes
    uint32_t StratumCount = 0;
    std::vector<StratumStats> Strata; ///< per stratum, in execution order
  };

  /// Per-rule cost attribution (DESIGN.md §14), accumulated across `run()`
  /// calls while rule profiling is enabled. The counter fields are
  /// **deterministic** — identical under both plan modes, because they are
  /// derived from the pass set and the round-snapshot-bounded match set,
  /// never from enumeration order:
  ///  - `Passes` / `RoundsFired` count emitted passes (`appendPassTasks`
  ///    looks only at the body and the snapshot);
  ///  - `Matches` counts full join matches (binding satisfies every atom
  ///    and guard over the round snapshot — enumeration-order-free);
  ///  - `Derivations` counts matches whose head tuple was absent at the
  ///    round barrier (the provenance candidate criterion, proven
  ///    plan-invariant in DESIGN.md §8), i.e. derivations of this
  ///    round's fresh tuples with multiplicity — the attribution-grade
  ///    refinement of `TuplesDerived`, which credits no rule.
  /// `TuplesConsidered` (drive-range tuples scanned) and `EstimatedFanout`
  /// are **plan-dependent** — the planner picks each pass's drive atom;
  /// `WallSeconds` is volatile.
  struct RuleProfile {
    uint64_t Passes = 0;
    uint64_t RoundsFired = 0;
    uint64_t TuplesConsidered = 0;
    uint64_t Derivations = 0;
    uint64_t Matches = 0;
    double EstimatedFanout = 0;
    double WallSeconds = 0;
  };

  /// Prepares strata for \p Rules over \p DB's schema.
  ///
  /// \p Plan selects how rule bodies are join-ordered (see `PlanMode`);
  /// `Auto` resolves the `JACKEE_PLAN` environment variable, defaulting to
  /// the greedy cost-guided planner. Relation contents, provenance, and the
  /// deterministic trace structure are identical in every mode — the plan
  /// only changes how fast the fixpoint is reached.
  Evaluator(Database &DB, const RuleSet &Rules,
            PlanMode Plan = PlanMode::Auto);

  /// Checks stratifiability. \returns empty string if OK, else a diagnostic
  /// naming the offending predicate. `run` must not be called on an
  /// unstratifiable program.
  std::string validate() const { return StratificationError; }

  /// Runs all strata to fixpoint. May be called repeatedly; later calls pick
  /// up facts inserted into the database in between.
  void run();

  const Stats &stats() const { return EvalStats; }

  /// Attaches \p O as the derivation observer (nullptr detaches). Set it
  /// before the first `run()`; derivations of tuples inserted while no
  /// observer was attached are lost. With no observer attached the hot
  /// insert path is unchanged (a single pointer test guards all recording
  /// work — see `bench/micro_provenance.cpp` for the on/off comparison).
  void setObserver(DerivationObserver *O) { Observer = O; }
  DerivationObserver *observer() const { return Observer; }

  /// Attaches \p T as the span tracer (nullptr detaches). Strata and
  /// semi-naive rounds emit structural `datalog`-category spans whose args
  /// (round index, tuple/pass counts) are plan-invariant — see
  /// observe/Trace.h. With no tracer the hot paths gain a single pointer
  /// test.
  void setTracer(observe::Tracer *T) { Trace = T; }
  observe::Tracer *tracer() const { return Trace; }

  /// Attaches \p R as the metrics registry (nullptr detaches). The engine
  /// records round delta sizes (`datalog.round_delta_tuples`) and per-round
  /// join planner histograms: `datalog.plan.reorder_distance` and
  /// `datalog.plan.guard_hoist_depth` (how far the planner moved atoms and
  /// guards off textual order), `datalog.plan.estimated_fanout` (the cost
  /// model's prediction), and `datalog.plan.actual_matches` (full join
  /// matches — plan-invariant, the estimate's ground truth).
  void setMetricsRegistry(observe::MetricsRegistry *R) { Registry = R; }
  observe::MetricsRegistry *metricsRegistry() const { return Registry; }

  /// Turns on per-rule profiling (idempotent; there is no off switch — the
  /// profiler is per-cell and cells are created with it on or not at all).
  /// Call before the first `run()`: passes run while profiling was off are
  /// not attributed. When off, the only hot-path cost is one branch per
  /// pass and per duplicate head emit (see `bench/micro_profile.cpp` for
  /// the measured non-cost).
  void enableRuleProfiling();
  bool ruleProfilingEnabled() const { return Profiling; }

  /// Per-rule attribution, indexed like `Rules.rules()`. Empty unless
  /// `enableRuleProfiling` was called.
  const std::vector<RuleProfile> &ruleProfiles() const {
    return RuleProfiles;
  }

  /// The resolved join-plan mode (never `Auto`).
  PlanMode planMode() const { return Planning; }

private:
  struct Stratum {
    std::vector<uint32_t> RuleIndexes;  ///< into Rules.rules()
    std::vector<uint32_t> MemberRels;   ///< relation ids in this stratum
    std::vector<bool> IsMember;         ///< indexed by relation id
  };

  /// One (rule, delta-atom) pass of a round, its drive atom restricted to
  /// `[DriveFrom, DriveTo)`.
  struct Task {
    uint32_t RuleIdx;     ///< into Rules.rules()
    int DeltaAtom;        ///< body index, or -1 for a full (naive) pass
    uint32_t PlanIdx;     ///< into the round's plan cache
    uint32_t DriveFrom;   ///< drive-atom tuple range restriction
    uint32_t DriveTo;
    bool HasDrive;        ///< false for fact rules (empty positive body)
  };

  /// Join scratch, reused across `evaluateRule` calls so the innermost join
  /// loops never allocate once the buffers reach steady-state size (they
  /// are only ever grown, never shrunk).
  struct JoinScratch {
    std::vector<Symbol> Bindings;   ///< variable values, by VarIndex
    std::vector<char> BoundFlags;   ///< 1 if the variable is bound
    std::vector<uint32_t> Trail;    ///< bound-variable undo stack
    std::vector<Symbol> Key;        ///< bound-column lookup key
    std::vector<Symbol> Tuple;      ///< negation-probe / head-emit tuple
    std::vector<uint32_t> MatchIdx; ///< observer mode: match per body atom
    std::vector<uint32_t> Refs;     ///< observer mode: witness refs
    uint64_t Matches = 0; ///< full join matches (guards passed) this round
  };

  void stratify();
  void runStratum(const Stratum &S, StratumStats &SS);

  /// Appends the task for one (rule, delta) pass to \p Tasks, planning it
  /// against \p Sizes (the round's snapshot, by relation id). A pass that
  /// cannot match — empty delta range, or any positive atom with an empty
  /// snapshot — is skipped entirely, before planning, so the emitted pass
  /// set (and with it `RuleEvaluations` and the trace round args) is
  /// identical for every plan mode. For a seed pass (\p DeltaAtom < 0)
  /// the drive range is `[0, Sizes[drive atom's relation])` with the drive
  /// atom chosen by the plan; \p DeltaFrom/\p DeltaTo are the delta range
  /// otherwise.
  void appendPassTasks(std::vector<Task> &Tasks,
                       std::vector<JoinPlan> &Plans, uint32_t RuleIdx,
                       int DeltaAtom, uint32_t DeltaFrom, uint32_t DeltaTo,
                       const std::vector<uint32_t> &Sizes);

  /// Executes one round's tasks in order, inserting derived tuples
  /// directly.
  void executeRound(const std::vector<Task> &Tasks,
                    const std::vector<JoinPlan> &Plans,
                    const std::vector<uint32_t> &Limit, StratumStats &SS);

  /// Evaluates one rule over \p Plan, inserting derived tuples directly.
  /// \p DeltaAtom is the body index of the delta-restricted atom (or -1 for
  /// a full/naive pass); the drive atom (first plan position) ranges over
  /// `[DriveFrom, DriveTo)` — the delta range for a delta pass, the
  /// snapshot for a seed pass. \p Limit caps the tuple range of every other
  /// positive atom, indexed by relation id. \p RuleIdx is R's index in the
  /// rule set, used for provenance and profiling.
  void evaluateRule(uint32_t RuleIdx, const JoinPlan &Plan, int DeltaAtom,
                    uint32_t DriveFrom, uint32_t DriveTo, bool HasDrive,
                    const std::vector<uint32_t> &Limit);

  Database &DB;
  const RuleSet &Rules;
  std::vector<Stratum> Strata;
  std::string StratificationError;
  Stats EvalStats;

  PlanMode Planning;                     ///< resolved, never Auto
  JoinScratch Scratch;

  DerivationObserver *Observer = nullptr;
  observe::Tracer *Trace = nullptr;
  observe::MetricsRegistry *Registry = nullptr;

  // Rule profiling (enableRuleProfiling).
  bool Profiling = false;
  std::vector<RuleProfile> RuleProfiles; ///< indexed like Rules.rules()
  std::vector<uint64_t> RuleLastRound;   ///< round stamp per rule
  uint64_t RoundSerial = 0;              ///< bumped once per executeRound
};

} // namespace datalog
} // namespace jackee

#endif // JACKEE_DATALOG_EVALUATOR_H
