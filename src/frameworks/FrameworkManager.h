//===- FrameworkManager.h - Rules + analysis coupling -----------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Orchestrates the framework-modeling layer and couples it to the
/// points-to solver as a `Plugin` (the paper's recursive framework/analysis
/// interaction, Section 3.5):
///
///   1. the base facts some rule reads are extracted from the IR and XML
///      configs;
///   2. registered rule sets (vocabulary + per-framework models) are
///      evaluated to derive EntryPointClass / ExercisedEntryPoint / Bean /
///      BeanFieldInjection / GetBeanInvocation;
///   3. C++ glue realizes the consequences inside the solver:
///      - the framework-independent **mock policy** (Section 3.3):
///        per-type mock receivers, per-subtype argument mocks with
///        cast-based discovery, recursive constructor exercising;
///      - bean objects (`GeneratedObject`) and field injection
///        (`ObjectFieldPointsTo` seeding);
///      - programmatic `getBean(name)` resolution against the *current*
///        points-to results of the name argument — which is why this runs
///        as a fixpoint plugin rather than a preprocessing step.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_FRAMEWORKS_FRAMEWORKMANAGER_H
#define JACKEE_FRAMEWORKS_FRAMEWORKMANAGER_H

#include "datalog/Database.h"
#include "datalog/Evaluator.h"
#include "datalog/Parser.h"
#include "facts/BaseFacts.h"
#include "facts/Extractor.h"
#include "pointsto/Solver.h"
#include "provenance/Provenance.h"
#include "xml/Xml.h"

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace jackee {
namespace frameworks {

/// Tuning knobs for the mock policy.
struct MockPolicyOptions {
  /// Cap on distinct mock types per entry-point parameter; keeps the
  /// analysis scalable when a parameter is declared as a very general type
  /// (the paper's one-mock-per-type rule serves the same purpose).
  uint32_t MaxMockTypesPerParam = 32;
};

/// The framework layer. Lifetime: construct, register rules and configs,
/// `prepare()`, then install into a solver via `Solver::addPlugin`.
class FrameworkManager : public pointsto::Plugin {
public:
  /// \p P is mutated (synthetic bean/mock objects are added). \p DB must
  /// share P's symbol table. \p Plan is forwarded to the Datalog evaluator
  /// (`Auto` = `JACKEE_PLAN` env var / greedy cost-guided join ordering —
  /// see `datalog::PlanMode`).
  FrameworkManager(ir::Program &P, datalog::Database &DB,
                   MockPolicyOptions Options = {},
                   datalog::PlanMode Plan = datalog::PlanMode::Auto);

  /// Registers framework-model rule text. \returns an empty string on
  /// success, else the parse diagnostic. The vocabulary is pre-registered.
  std::string addRules(std::string_view Name, std::string_view Text);

  /// Registers all built-in framework models (servlet, Spring, EJB, JAX-RS,
  /// Struts 2).
  void addDefaultFrameworks();

  /// Registers only the basic servlet logic — the paper's Doop baseline.
  void addServletBaselineOnly();

  /// Parses and registers an XML configuration file (Spring beans, web.xml,
  /// struts.xml). \returns empty string or the parse diagnostic. Before
  /// `prepare()` the facts are extracted by `prepare()`; called on a
  /// prepared manager (an incremental update) the file's facts are
  /// extracted immediately.
  std::string addConfigXml(std::string_view FileName, std::string_view Text);

  /// Incremental update: deregisters configuration file \p FileName and
  /// tombstones its XML facts, appending the tombstoned (relation, tuple)
  /// pairs — DRed support-cone seeds — to \p Seeds. \returns empty string,
  /// or a diagnostic when no such config is registered.
  std::string removeConfigXml(std::string_view FileName,
                              std::vector<std::pair<uint32_t, uint32_t>> &Seeds);

  /// Incremental update: forgets all cross-round glue progress (mock/bean
  /// objects, exercised entry points, applied injections and getBean
  /// resolutions, wiring-round counter, stats) so the next solve replays
  /// the framework reactions against a fresh solver. Rules, configs, the
  /// evaluator and the fact database are kept.
  void resetForResolve();

  /// Attaches \p R as the provenance sink: derivations of all rule
  /// evaluations are recorded, base facts are attributed to epochs
  /// ("extraction", "bean-wiring round N"), and the mock/bean/injection
  /// glue appends audit events. Call before `prepare()` (the extraction
  /// epoch must start before facts exist); nullptr detaches. The recorder
  /// must outlive this manager.
  void setProvenance(provenance::ProvenanceRecorder *R) {
    assert(!Prepared && "attach provenance before prepare()");
    Provenance = R;
  }

  /// Attaches \p T as the span tracer (nullptr detaches). Call before
  /// `prepare()` so the extraction spans are captured and the tracer is
  /// forwarded to the Datalog evaluator. Each bean-wiring round emits a
  /// structural `frameworks`-category span tree (evaluate + one span per
  /// glue action); all args are deterministic.
  void setTracer(observe::Tracer *T) {
    assert(!Prepared && "attach the tracer before prepare()");
    Trace = T;
  }

  /// Attaches \p R as the metrics registry (nullptr detaches); forwarded to
  /// the Datalog evaluator by `prepare()`.
  void setMetricsRegistry(observe::MetricsRegistry *R) {
    assert(!Prepared && "attach the registry before prepare()");
    Registry = R;
  }

  /// Re-points the metrics registry after `prepare()` — each incremental
  /// update collects into a fresh registry so per-update gauges are not
  /// double-counted. Forwards to the evaluator.
  void rebindMetricsRegistry(observe::MetricsRegistry *R);

  /// Turns on per-rule profiling (DESIGN.md §14) on the evaluator
  /// `prepare()` builds; `Evaluator::ruleProfiles` then attributes every
  /// bean-wiring evaluation. Call before `prepare()`.
  void enableRuleProfiling() {
    assert(!Prepared && "enable profiling before prepare()");
    ProfileRules = true;
  }

  /// The per-rule attribution collected so far; null before `prepare()` or
  /// when profiling was never enabled.
  const std::vector<datalog::Evaluator::RuleProfile> *ruleProfiles() const {
    return Eval && ProfileRules ? &Eval->ruleProfiles() : nullptr;
  }

  /// Provides pre-extracted base-program facts from a snapshot (what a
  /// session cell decodes from its model's image). `prepare()` then
  /// bulk-loads them and extracts only the entities past the snapshot
  /// watermark (`extractProgramDelta`) instead of re-walking the whole
  /// base library. Per-relation tuple order is identical to a full
  /// extraction (see facts/BaseFacts.h), so results — including explain
  /// trees — cannot diverge. Only `prepare()` reads the set, so it must
  /// outlive that call; nullptr (the default) keeps the full-extraction
  /// path.
  void setBaseFacts(const facts::BaseFactSet *Facts) {
    assert(!Prepared && "provide base facts before prepare()");
    BaseFacts = Facts;
  }

  /// The fact extractor bound to this manager's database, built by
  /// `prepare()` — the update path drives
  /// `extractProgramDelta`/`retractEntityFacts` through it.
  facts::Extractor &facts() {
    assert(Facts && "the extractor exists once prepare() ran");
    return *Facts;
  }

  /// True when the glue already materialized the per-class abstract object
  /// for \p T (as a mock or a bean). The update path's warm-path check: a
  /// new config that turns an existing *mock* into a *bean* is non-monotone
  /// (the object's kind and label would change), so such deltas must take
  /// the reset path.
  bool hasClassObject(ir::TypeId T) const {
    return ClassObject.count(T.rawValue()) != 0;
  }

  /// True when configuration file \p FileName is registered.
  bool hasConfigXml(std::string_view FileName) const {
    for (const auto &[Name, Doc] : Configs)
      if (Name == FileName)
        return true;
    return false;
  }

  /// The registered rule set (vocabulary + frameworks); rule indexes in
  /// provenance records point into this.
  const datalog::RuleSet &rules() const { return Rules; }

  /// Computes the cell's demand set — every base relation read in a rule
  /// body of `rules()`: the vocabulary, the framework models or the
  /// baseline, and any extra rules — then extracts (or bulk-loads) exactly
  /// those relations from the program and XML configs and builds the
  /// evaluator. Call after `P.finalize()` and after all rules/configs are
  /// registered. \returns empty string or a stratification diagnostic.
  std::string prepare();

  /// Plugin hook: evaluates rules against current facts and injects
  /// consequences. \returns true if anything new was injected.
  bool onFixpoint(pointsto::Solver &S) override;

  struct Stats {
    double EvaluatorSeconds = 0;
    double GlueSeconds = 0;
    uint32_t EntryPointsExercised = 0;
    uint32_t MockObjectsCreated = 0;
    uint32_t BeansCreated = 0;
    uint32_t InjectionsApplied = 0;
    uint32_t GetBeanResolutions = 0;
  };
  const Stats &stats() const { return FrameworkStats; }

  /// Per-stratum evaluator observability (see `Evaluator::Stats`); null
  /// before `prepare()`.
  const datalog::Evaluator::Stats *evaluatorStats() const {
    return Eval ? &Eval->stats() : nullptr;
  }

  datalog::Database &database() { return DB; }

private:
  /// One framework-made abstract object per class (mock receiver == bean
  /// object, so injected state is visible to entry points).
  pointsto::ValueId objectForClass(ir::TypeId T, pointsto::Solver &S,
                                   bool &CreatedNew);

  /// Exercises one entry-point method per the mock policy. \returns true if
  /// it was new.
  bool exerciseEntryPoint(ir::MethodId M, pointsto::Solver &S);

  /// Mock candidates for a parameter of declared type \p T in method \p M.
  std::vector<ir::TypeId> mockCandidates(ir::TypeId T, const ir::Method &M);

  bool processGeneratedObjects(pointsto::Solver &S);
  bool processInjections(pointsto::Solver &S);
  bool processMethodInjections(pointsto::Solver &S);
  bool processEntryPoints(pointsto::Solver &S);
  bool processGetBean(pointsto::Solver &S);

  ir::Program &P;
  datalog::Database &DB;
  MockPolicyOptions Options;
  datalog::PlanMode Plan;
  datalog::RuleSet Rules;
  std::unique_ptr<datalog::Evaluator> Eval;
  std::optional<facts::Extractor> Facts;

  std::vector<std::pair<std::string, xml::Document>> Configs;

  // Progress tracking across plugin rounds.
  std::unordered_map<uint32_t, pointsto::ValueId> ClassObject; // by TypeId
  std::unordered_set<uint32_t> ExercisedMethods;               // by MethodId
  std::unordered_set<uint64_t> AppliedInjections; // (field, beanClass)
  std::unordered_set<uint64_t> AppliedMethodInjections; // (method, beanClass)
  std::unordered_set<uint64_t> AppliedGetBeans;   // (invoke, beanClass)
  std::vector<ir::TypeId> PendingConstructorTypes;

  Stats FrameworkStats;
  bool Prepared = false;
  bool ProfileRules = false;
  const facts::BaseFactSet *BaseFacts = nullptr;

  provenance::ProvenanceRecorder *Provenance = nullptr;
  observe::Tracer *Trace = nullptr;
  observe::MetricsRegistry *Registry = nullptr;
  uint32_t WiringRound = 0; ///< onFixpoint invocations so far
};

} // namespace frameworks
} // namespace jackee

#endif // JACKEE_FRAMEWORKS_FRAMEWORKMANAGER_H
