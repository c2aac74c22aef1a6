//===- Session.cpp --------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"

#include "datalog/Database.h"
#include "snapshot/Snapshot.h"
#include "support/Env.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <thread>
#include <unordered_map>

using namespace jackee;
using namespace jackee::core;
using namespace jackee::ir;
using namespace jackee::pointsto;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Fills the static (program-shape) metric denominators and the dynamic
/// (analysis-result) numerators in one pass over the fixpoint, with dense
/// id-indexed vectors instead of hash tables (DESIGN.md §3.5). Retracted
/// entities are skipped so the static denominators of an updated cell
/// match the from-scratch baseline.
void collectMetrics(Metrics &M, const Program &P, const Solver &S) {
  // Completeness.
  for (uint32_t MI = 0; MI != P.methodCount(); ++MI) {
    MethodId Method(MI);
    bool Reached = S.isMethodReachable(Method);
    M.ReachableMethodsTotal += Reached;
    if (!P.isAppConcreteMethod(Method))
      continue;
    ++M.AppConcreteMethods;
    M.AppReachableMethods += Reached;
  }

  // Precision.
  Solver::VarPointsToAverages Averages = S.averageVarPointsTo();
  M.AvgObjsPerVar = Averages.All;
  M.AvgObjsPerAppVar = Averages.App;
  M.CallGraphEdges = S.callGraphEdges().size();

  // One walk over application statements: the static virtual-call and cast
  // counts, and which invocations are application virtual calls.
  std::vector<bool> AppVirtualInvoke(P.invokeCount(), false);
  for (uint32_t MI = 0; MI != P.methodCount(); ++MI) {
    const Method &Meth = P.method(MethodId(MI));
    const Type &Decl = P.type(Meth.DeclaringType);
    if (Meth.IsRetracted || Decl.IsRetracted || !Decl.IsApplication)
      continue;
    for (const Statement &Stmt : Meth.Statements) {
      if (Stmt.Op == Opcode::VirtualCall) {
        ++M.AppVirtualCallSites;
        AppVirtualInvoke[Stmt.Invoke.index()] = true;
      } else if (Stmt.Op == Opcode::Cast) {
        ++M.AppCasts;
      }
    }
  }

  // Poly v-calls: application virtual invocations with >= 2 resolved
  // targets. Call-graph edges are distinct (invocation, target) pairs, so
  // counting edges per invocation counts its targets.
  std::vector<uint32_t> TargetsPerInvoke(P.invokeCount(), 0);
  for (uint64_t Edge : S.callGraphEdges()) {
    uint32_t Invoke = static_cast<uint32_t>(Edge >> 32);
    if (AppVirtualInvoke[Invoke] && ++TargetsPerInvoke[Invoke] == 2)
      ++M.AppPolyVCalls;
  }

  // Casts: may-fail when any pointed-to object fails the target type under
  // any context instance.
  for (const Solver::CastRecord &Rec : S.castRecords()) {
    if (!Rec.InApplication)
      continue;
    bool MayFail = false;
    for (NodeId N : Rec.SourceNodes) {
      for (uint32_t Raw : S.pointsTo(N))
        if (!P.isSubtype(S.valueType(ValueId(Raw)), Rec.TargetType)) {
          MayFail = true;
          break;
        }
      if (MayFail)
        break;
    }
    if (MayFail)
      ++M.AppMayFailCasts;
  }

  // Figure 5 cost attribution.
  M.VptTuplesTotal = S.varPointsToTuplesTotal();
  M.VptTuplesJavaUtil = S.varPointsToTuples("java.util");

  M.SolverWorkItems = S.stats().WorkItems;
  M.SolverEdges = S.stats().EdgesAdded;
  M.SolverRounds = S.stats().Rounds;
}

} // namespace

//===----------------------------------------------------------------------===//
// AnalysisCell
//===----------------------------------------------------------------------===//

AnalysisCell::~AnalysisCell() = default;

const datalog::RuleSet &AnalysisCell::rules() const { return FM->rules(); }

void AnalysisCell::finishMetrics(Metrics &M) {
  Program &P = *Prog;
  Solver &S = *Solver_;
  {
    observe::Span CollectSpan(Trace, "collect-metrics", "session");
    collectMetrics(M, P, S);
  }
  M.EntryPointsExercised = FM->stats().EntryPointsExercised;
  M.BeansCreated = FM->stats().BeansCreated;
  M.InjectionsApplied = FM->stats().InjectionsApplied;
  if (const datalog::Evaluator::Stats *ES = FM->evaluatorStats()) {
    M.DatalogTuplesDerived = ES->TuplesDerived;
    M.DatalogStrata = ES->StratumCount;
  }
  // Fold the cell's registry into the exported metrics. The gauges set
  // here are end-of-cell state; everything else accumulated during
  // evaluation.
  Registry->set("db.relation_bytes", static_cast<double>(DB->bytes()));
  Registry->set("db.index_bytes", static_cast<double>(DB->indexBytes()));
  Registry->set("process.peak_rss_bytes",
                static_cast<double>(observe::processPeakRssBytes()));
  // Phase-boundary RSS sample (report): metrics collection just walked the
  // program and solver state.
  Registry->set("process.peak_rss.report_bytes",
                static_cast<double>(observe::processPeakRssBytes()));
  // Deep profile: assembled before the registry fold so the deterministic
  // census gauges it publishes land in `Observed` too.
  if (Profiled)
    M.ProfileData = buildProfile(M);
  for (const observe::MetricsRegistry::Sample &Sample : Registry->snapshot())
    M.Observed.emplace_back(Sample.Name, Sample.Value);

  if (Recorder) {
    M.ProvenanceEnabled = true;
    M.ProvenanceTuplesRecorded = Recorder->stats().TuplesRecorded;
    M.ProvenanceCandidatesSeen = Recorder->stats().CandidatesSeen;
    M.ProvenanceGlueEvents =
        static_cast<uint32_t>(Recorder->glueEvents().size());
  }
}

std::shared_ptr<const observe::Profile>
AnalysisCell::buildProfile(const Metrics &M) {
  auto P = std::make_shared<observe::Profile>();
  P->Label = M.App + "/" + M.Analysis;

  // Rule attribution: evaluator counters joined with the rule set's head
  // names and origins. Rules sharing a head relation get an ordinal suffix
  // (definition order, so names are stable across runs).
  if (const std::vector<datalog::Evaluator::RuleProfile> *RPs =
          FM->ruleProfiles()) {
    const std::vector<datalog::Rule> &Rules = FM->rules().rules();
    std::unordered_map<uint32_t, uint32_t> HeadSeen;
    size_t N = std::min(Rules.size(), RPs->size());
    P->Rules.reserve(N);
    for (size_t I = 0; I != N; ++I) {
      const datalog::Rule &R = Rules[I];
      uint32_t Ord = HeadSeen[R.Head.Rel.index()]++;
      observe::ProfileRule PR;
      PR.Name =
          DB->relation(R.Head.Rel).name() + "#" + std::to_string(Ord);
      PR.Origin = R.Origin;
      const datalog::Evaluator::RuleProfile &E = (*RPs)[I];
      PR.Passes = E.Passes;
      PR.RoundsFired = E.RoundsFired;
      PR.Derivations = E.Derivations;
      PR.Matches = E.Matches;
      PR.TuplesConsidered = E.TuplesConsidered;
      PR.EstimatedFanout = E.EstimatedFanout;
      PR.WallSeconds = E.WallSeconds;
      P->Rules.push_back(std::move(PR));
    }
  }

  // Relation storage accounting, in relation-id (declaration) order.
  // DataBytes is exact payload (tuples x arity x symbol width) and thus
  // deterministic; the capacity/index figures vary with plan mode and are
  // marked *_approx so the diff tooling thresholds them.
  P->Relations.reserve(DB->relationCount());
  for (size_t I = 0; I != DB->relationCount(); ++I) {
    const datalog::Relation &R =
        DB->relation(datalog::RelationId(static_cast<uint32_t>(I)));
    observe::ProfileRelationRow Row;
    Row.Name = R.name();
    Row.Arity = R.arity();
    Row.Tuples = R.size();
    Row.Live = R.liveSize();
    Row.Dead = R.deadCount();
    Row.DataBytes = uint64_t(R.size()) * R.arity() * sizeof(Symbol);
    Row.IndexBytesApprox = R.indexBytes();
    Row.StoreBytesApprox = R.bytes() - R.indexBytes();
    Row.IndexesApprox = R.indexStats().size();
    P->Relations.push_back(std::move(Row));
  }

  // Points-to set census — the hash-consing scouting report for the
  // ROADMAP item on compact points-to sets. Package shares use the paper's
  // Figure 5 attribution prefixes; the `java.util` elephants show up here.
  P->Census = Solver_->censusPointsTo(
      {"java.util", "java.lang", "java.io", "javax", "org", "com"});

  // Phase boundary samples (volatile fields; names/order deterministic).
  // The per-phase RSS gauges were recorded as the phases finished.
  auto Gauge = [this](std::string_view Name) -> uint64_t {
    for (const observe::MetricsRegistry::Sample &S : Registry->snapshot())
      if (S.Name == Name)
        return static_cast<uint64_t>(S.Value);
    return 0;
  };
  P->Phases.push_back({"extract", M.SnapshotCloneSeconds + M.PopulateSeconds,
                       Gauge("process.peak_rss.extract_bytes")});
  P->Phases.push_back({"wiring",
                       FM->stats().EvaluatorSeconds + FM->stats().GlueSeconds,
                       Gauge("process.peak_rss.wiring_bytes")});
  P->Phases.push_back({"solve", M.ElapsedSeconds,
                       Gauge("process.peak_rss.solve_bytes")});
  P->Phases.push_back({"report", 0.0, observe::processPeakRssBytes()});

  // Deterministic census gauges, folded into `Observed` by finishMetrics
  // (scripts/diff_metrics.py compares them exactly); the sink gauges are
  // volatile (event counts depend on tracing and job interleaving) and
  // live under the `profile.sink` volatile prefix.
  Registry->set("profile.census.var_nodes",
                static_cast<double>(P->Census.VarNodes));
  Registry->set("profile.census.nonempty_sets",
                static_cast<double>(P->Census.NonEmptySets));
  Registry->set("profile.census.distinct_sets",
                static_cast<double>(P->Census.DistinctSets));
  Registry->set("profile.census.total_entries",
                static_cast<double>(P->Census.TotalEntries));
  Registry->set("profile.census.reclaimable_bytes",
                static_cast<double>(P->Census.ReclaimableBytes));
  if (Events) {
    Registry->set("profile.sink.events",
                  static_cast<double>(Events->eventCount()));
    Registry->set("profile.sink.bytes",
                  static_cast<double>(Events->bytesWritten()));
    Events->event("profile")
        .str("cell", P->Label)
        .num("rules", static_cast<uint64_t>(P->Rules.size()))
        .num("relations", static_cast<uint64_t>(P->Relations.size()))
        .num("census_nonempty_sets", P->Census.NonEmptySets)
        .num("census_distinct_sets", P->Census.DistinctSets);
  }
  return P;
}

std::vector<provenance::DerivationNode>
AnalysisCell::explain(std::string_view Query, std::string &Error) const {
  // A base relation outside the demand set was never extracted; "no tuple
  // matches" would wrongly say the program has no such facts.
  std::string_view Rel = provenance::Explainer::queryRelation(Query);
  if (std::optional<size_t> Base = facts::findBaseRelation(Rel);
      Base && !FM->facts().demand()[*Base]) {
    Error = "'" + std::string(Rel) +
            "' is not extracted in this cell: no rule reads it";
    return {};
  }
  provenance::Explainer E(*DB, FM->rules(), *Recorder);
  return E.explainQuery(Query, Error);
}

std::string AnalysisCell::explainText(std::string_view Query,
                                      std::string &Error) const {
  std::string Out;
  for (const provenance::DerivationNode &N : explain(Query, Error))
    Out += provenance::Explainer::renderText(N);
  return Out;
}

std::string AnalysisCell::canonicalDigest() const {
  const Program &P = *Prog;
  const Solver &S = *Solver_;
  std::vector<std::string> Lines;

  // Framework-created sites (mock/bean) are re-created by every re-solve
  // and may land on different site ids than a from-scratch run; their
  // labels ("<mock C>"/"<bean C>") are unique per class, so they name the
  // object instead. Program sites are populate-created and id-stable.
  auto siteKey = [&](AllocSiteId Site) {
    const AllocSite &AS = P.allocSite(Site);
    std::string Key{P.symbols().text(P.type(AS.ObjectType).Name)};
    Key += '/';
    if (AS.Kind == AllocKind::Mock || AS.Kind == AllocKind::Generated)
      Key += P.symbols().text(AS.Label);
    else
      Key += "site#" + std::to_string(Site.rawValue());
    return Key;
  };

  for (MethodId M : S.reachableMethods())
    if (P.isAppConcreteMethod(M))
      Lines.push_back("reach " + P.qualifiedName(M));

  for (uint32_t VI = 0; VI != P.variableCount(); ++VI) {
    VarId V(VI);
    const Variable &Var = P.variable(V);
    std::vector<AllocSiteId> Sites = S.varPointsToSites(V);
    if (Sites.empty())
      continue;
    std::string Prefix = "vpt " + P.qualifiedName(Var.DeclaringMethod) +
                         "." + std::string(P.symbols().text(Var.Name)) +
                         " -> ";
    for (AllocSiteId Site : Sites)
      Lines.push_back(Prefix + siteKey(Site));
  }

  for (uint64_t Edge : S.callGraphEdges()) {
    InvokeId Inv(static_cast<uint32_t>(Edge >> 32));
    MethodId Callee(static_cast<uint32_t>(Edge));
    const InvokeSite &Site = P.invokeSite(Inv);
    Lines.push_back("cg " + P.qualifiedName(Site.Caller) + "#" +
                    std::to_string(Site.StatementIndex) + " -> " +
                    P.qualifiedName(Callee));
  }

  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &Line : Lines) {
    Out += Line;
    Out += '\n';
  }
  return Out;
}

AnalysisResult AnalysisCell::update(const CellDelta &Delta) {
  Program &P = *Prog;
  frameworks::FrameworkManager &FMRef = *FM;

  auto Invalid = [&](std::string Msg) -> AnalysisResult {
    return AnalysisError{AnalysisErrorKind::InvalidDelta,
                         AppName + ": " + std::move(Msg)};
  };
  auto Poison = [&](AnalysisErrorKind K, std::string Msg) -> AnalysisResult {
    Poisoned = true;
    return AnalysisError{K, AppName + ": " + std::move(Msg) +
                                " (cell is no longer usable)"};
  };
  if (Poisoned)
    return Invalid("update on a poisoned cell (a previous delta failed "
                   "mid-apply)");
  if (Delta.empty())
    return Current;

  // --- Validate every name before mutating anything, so the common
  // errors (typos, double retractions) leave the cell untouched — and
  // uncounted by `updateCount()`.
  for (const std::string &Name : Delta.RetractClasses)
    if (!P.findType(Name).isValid())
      return Invalid("retract of unknown class '" + Name + "'");
  for (const auto &[Cls, MethName] : Delta.RetractMethods) {
    TypeId T = P.findType(Cls);
    if (!T.isValid())
      return Invalid("retract of method on unknown class '" + Cls + "'");
    bool AnyLive = false;
    for (MethodId MId : P.type(T).Methods)
      AnyLive |= !P.method(MId).IsRetracted &&
                 P.symbols().text(P.method(MId).Name) == MethName;
    if (!AnyLive)
      return Invalid("no live method '" + MethName + "' on '" + Cls + "'");
  }
  for (const std::string &File : Delta.RetractConfigs)
    if (!FMRef.hasConfigXml(File))
      return Invalid("retract of unregistered config '" + File + "'");
  std::vector<std::pair<std::string, xml::Document>> NewDocs;
  for (const auto &[Name, Text] : Delta.AddConfigs) {
    xml::ParseResult PR = xml::Parser::parse(Text);
    if (!PR.ok())
      return AnalysisError{AnalysisErrorKind::ConfigParse,
                           AppName + "/" + Name + ": " + PR.Error};
    NewDocs.emplace_back(Name, std::move(*PR.Doc));
  }

  ++Updates;
  observe::Span UpdateSpan(Trace, "cell-update", "session");
  UpdateSpan.arg("app", AppName);
  UpdateSpan.arg("update", Updates);

  Metrics M;
  M.App = AppName;
  M.Analysis = analysisName(Kind);

  // --- Classify. Config-only insertions are monotone — keep the solver
  // and let the fixpoint grow — *unless* a new config mentions a class
  // whose abstract object already exists: a mock becoming a bean changes
  // the object's kind (non-monotone), which forces the reset path.
  bool HasRetraction = !Delta.RetractConfigs.empty() ||
                       !Delta.RetractClasses.empty() ||
                       !Delta.RetractMethods.empty();
  bool Warm = !HasRetraction && !Delta.AddCode;
  for (const auto &[Name, Doc] : NewDocs) {
    if (!Warm)
      break;
    auto Mentions = [&](const std::string &Value) {
      TypeId T = P.findType(Value);
      return T.isValid() && FMRef.hasClassObject(T);
    };
    for (const xml::Element &E : Doc.elements()) {
      for (const xml::Attribute &A : E.Attributes)
        if (Mentions(A.Value))
          Warm = false;
      if (!E.Text.empty() && Mentions(E.Text))
        Warm = false;
    }
  }
  UpdateSpan.arg("mode", Warm ? "warm" : "reset");

  // Per-update metrics registry: `Solver::publishMetrics` and the
  // evaluator add into whatever registry is bound, so reusing the open()
  // registry would double-count gauges.
  Registry = std::make_unique<observe::MetricsRegistry>();
  FMRef.rebindMetricsRegistry(Registry.get());
  // New base facts (configs, delta extraction) attribute to this epoch.
  Recorder->beginEpoch("update " + std::to_string(Updates));

  auto SolveStart = Clock::now();
  if (Warm) {
    Solver_->setMetricsRegistry(Registry.get());
    for (const auto &[Name, Text] : Delta.AddConfigs)
      if (std::string Err = FMRef.addConfigXml(Name, Text); !Err.empty())
        return Poison(AnalysisErrorKind::ConfigParse,
                      Name + ": " + Err);
    // Monotone growth: the next plugin round evaluates the new facts and
    // the solver extends the existing fixpoint. Glue dedup sets prevent
    // double-application, so cumulative framework stats still match a
    // from-scratch run.
    Solver_->solve();
  } else {
    // 1. The solver dies first: its reactions hold `ir::Statement`
    //    pointers, and its values reference the framework-created
    //    allocation sites about to be truncated.
    Solver_.reset();
    P.truncateAllocSites(AllocWatermark);

    // 2. IR tombstones. Type ids are captured before `retractClass`
    //    frees the name.
    std::vector<TypeId> DeadTypes;
    std::vector<MethodId> DeadMethods;
    for (const std::string &Name : Delta.RetractClasses) {
      TypeId T = P.findType(Name);
      if (std::string Err = P.retractClass(Name); !Err.empty())
        return Poison(AnalysisErrorKind::InvalidDelta, Err);
      DeadTypes.push_back(T);
    }
    for (const auto &[Cls, MethName] : Delta.RetractMethods) {
      TypeId T = P.findType(Cls);
      for (MethodId MId : P.type(T).Methods)
        if (!P.method(MId).IsRetracted &&
            P.symbols().text(P.method(MId).Name) == MethName)
          DeadMethods.push_back(MId);
      if (std::string Err = P.retractMethod(Cls, MethName); !Err.empty())
        return Poison(AnalysisErrorKind::InvalidDelta, Err);
    }

    // 3. Tombstone their base facts; the tombstoned (relation, tuple)
    //    pairs seed the DRed support cone.
    std::vector<std::pair<uint32_t, uint32_t>> Seeds =
        FMRef.facts().retractEntityFacts(P, DeadTypes, DeadMethods);
    for (const std::string &File : Delta.RetractConfigs)
      if (std::string Err = FMRef.removeConfigXml(File, Seeds);
          !Err.empty())
        return Poison(AnalysisErrorKind::InvalidDelta, Err);

    // 4. DRed over-deletion: every derived tuple whose recorded canonical
    //    derivation is grounded in a tombstoned fact dies too; the
    //    evaluator's naive seed round re-derives whatever is still
    //    derivable. With negation in the rule set, *insertions* are
    //    non-monotone as well — a tuple derived under ¬A dies when A
    //    appears — so every tuple derived by a negating rule joins the
    //    seed set on any reset update: over-deleting them is safe, since
    //    re-derivation restores exactly the still-derivable ones.
    std::vector<provenance::ProvenanceRecorder::TupleRef> ConeSeeds;
    ConeSeeds.reserve(Seeds.size());
    for (auto [Rel, Idx] : Seeds)
      ConeSeeds.push_back({Rel, Idx});
    const std::vector<datalog::Rule> &Rules = FMRef.rules().rules();
    std::vector<bool> NegMask(Rules.size(), false);
    bool AnyNegation = false;
    for (size_t I = 0; I != Rules.size(); ++I)
      for (const datalog::Atom &A : Rules[I].Body)
        if (A.Negated)
          NegMask[I] = AnyNegation = true;
    std::vector<provenance::ProvenanceRecorder::TupleRef> NegSeeds;
    if (AnyNegation)
      NegSeeds = Recorder->tuplesDerivedBy(NegMask);
    ConeSeeds.insert(ConeSeeds.end(), NegSeeds.begin(), NegSeeds.end());

    std::vector<provenance::ProvenanceRecorder::TupleRef> Cone =
        Recorder->supportCone(ConeSeeds);
    // The negation-guard seeds are derived tuples themselves (the base
    // seeds are already dead); retract them along with their cone.
    Cone.insert(Cone.end(), NegSeeds.begin(), NegSeeds.end());
    uint64_t ConeRetracted = 0;
    for (const provenance::ProvenanceRecorder::TupleRef &Ref : Cone) {
      datalog::Relation &R = DB->relation(datalog::RelationId(Ref.Rel));
      if (!R.isLive(Ref.Index))
        continue; // seed-set overlap
      R.retract(Ref.Index);
      Recorder->invalidate(Ref.Rel, Ref.Index);
      ++ConeRetracted;
    }
    UpdateSpan.arg("base_retracted", Seeds.size());
    UpdateSpan.arg("cone_retracted", ConeRetracted);

    // 5. New code and configs; re-finalize (dispatch tables and subtype
    //    bits honor the tombstones), then extract only the new entities.
    if (Delta.AddCode)
      Delta.AddCode(P, Lib, Fw);
    P.finalize();
    for (const auto &[Name, Text] : Delta.AddConfigs)
      if (std::string Err = FMRef.addConfigXml(Name, Text); !Err.empty())
        return Poison(AnalysisErrorKind::ConfigParse, Name + ": " + Err);
    FMRef.facts().extractProgramDelta(P, Watermark);
    Watermark = facts::Extractor::watermarkOf(P);
    AllocWatermark = P.allocSiteCount();

    // 6. Replay the framework/solver coupling against a fresh solver. The
    //    evaluator's first run re-seeds every rule naively, so tombstoned
    //    but still-derivable tuples come back (as fresh appends past the
    //    delta watermark, cascading semi-naively), and the bean-wiring
    //    glue — its cross-round progress forgotten — re-exercises entry
    //    points and re-applies injections from scratch.
    FMRef.resetForResolve();
    Solver_ = std::make_unique<Solver>(P, solverConfig(Kind));
    Solver_->setTracer(Trace);
    Solver_->setMetricsRegistry(Registry.get());
    Solver_->addPlugin(&FMRef);
    SolveStart = Clock::now();
    if (!MainClass.empty()) {
      TypeId MainTy = P.findType(MainClass);
      if (!MainTy.isValid())
        return Poison(AnalysisErrorKind::MainClassNotFound,
                      "main class '" + MainClass + "' not found");
      MethodId Main = P.findMethod(MainTy, "main", {});
      if (!Main.isValid())
        return Poison(AnalysisErrorKind::MainMethodNotFound,
                      "no main() on '" + MainClass + "'");
      Solver_->makeReachable(Main, Solver_->contexts().empty());
    }
    Solver_->solve();
  }
  M.ElapsedSeconds = secondsSince(SolveStart);
  Registry->set("process.peak_rss.solve_bytes",
                static_cast<double>(observe::processPeakRssBytes()));

  finishMetrics(M);
  Current = std::move(M);
  return Current;
}

//===----------------------------------------------------------------------===//
// CellResult / applyDelta
//===----------------------------------------------------------------------===//

std::unique_ptr<AnalysisCell> CellResult::value() && {
  if (!ok()) {
    fprintf(stderr, "error: analysis failed [%s]: %s\n",
            analysisErrorKindName(Err->Kind), Err->Message.c_str());
    exit(1);
  }
  return std::move(Cell);
}

Application core::applyDelta(Application Base,
                             std::vector<CellDelta> Deltas) {
  auto Inner = std::move(Base.Populate);
  Base.Populate = [Inner = std::move(Inner), Deltas = std::move(Deltas)](
                      ir::Program &P, const javalib::JavaLib &Lib,
                      const frameworks::FrameworkLib &Fw) {
    std::vector<std::pair<std::string, std::string>> Configs =
        Inner(P, Lib, Fw);
    for (const CellDelta &D : Deltas) {
      // Same application order as AnalysisCell::update, so both paths
      // assign identical entity ids. Retraction diagnostics are dropped:
      // the live path already validated the same operations.
      for (const std::string &Name : D.RetractClasses)
        (void)P.retractClass(Name);
      for (const auto &[Cls, Meth] : D.RetractMethods)
        (void)P.retractMethod(Cls, Meth);
      for (const std::string &File : D.RetractConfigs)
        Configs.erase(std::remove_if(Configs.begin(), Configs.end(),
                                     [&](const auto &C) {
                                       return C.first == File;
                                     }),
                      Configs.end());
      if (D.AddCode)
        D.AddCode(P, Lib, Fw);
      for (const auto &C : D.AddConfigs)
        Configs.push_back(C);
    }
    return Configs;
  };
  return Base;
}

//===----------------------------------------------------------------------===//
// AnalysisSession
//===----------------------------------------------------------------------===//

unsigned AnalysisSession::defaultJobCount() {
  return env::resolveWorkerCount(0, "JACKEE_JOBS");
}

AnalysisSession::AnalysisSession(SessionOptions Opts) : Options(Opts) {
  Jobs = Options.Jobs ? std::clamp(Options.Jobs, 1u, 256u)
                      : defaultJobCount();
  RecordProvenance = Options.Provenance || env::flagVar("JACKEE_PROVENANCE");
  SnapshotDir = Options.SnapshotDir;
  if (SnapshotDir.empty())
    if (const char *Env = env::rawVar("JACKEE_SNAPSHOT_DIR"))
      SnapshotDir = Env;
  // A JACKEE_TRACE path receives Chrome JSON on destruction.
  env::Switch TraceEnv = env::switchVar("JACKEE_TRACE");
  TraceOutPath = TraceEnv.Path;
  if (Options.Trace || TraceEnv.On)
    Trace = std::make_unique<observe::Tracer>();

  // Deep profiler (DESIGN.md §14); a JACKEE_PROFILE path receives the
  // JSONL event log.
  env::Switch ProfileEnv = env::switchVar("JACKEE_PROFILE");
  ProfileCells = Options.Profile || ProfileEnv.On;
  if (ProfileCells) {
    Events = std::make_unique<observe::EventSink>();
    if (!ProfileEnv.Path.empty() && !Events->openFile(ProfileEnv.Path))
      std::fprintf(stderr,
                   "warning: cannot open profile event log %s; buffering\n",
                   ProfileEnv.Path.c_str());
    if (Trace)
      Trace->setEventSink(Events.get());
  }
}

AnalysisSession::~AnalysisSession() {
  if (Trace && !TraceOutPath.empty()) {
    std::ofstream Out(TraceOutPath);
    if (Out)
      Out << observe::writeChromeTrace(*Trace);
  }
}

AnalysisSession::CacheStats AnalysisSession::cacheStats() const {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return Stats;
}

std::shared_ptr<const AnalysisSession::BaseImage>
AnalysisSession::imageFor(javalib::CollectionModel Model,
                          uint32_t ParentSpan) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  if (auto It = Cache.find(Model); It != Cache.end())
    return It->second;
  auto Image = std::make_shared<BaseImage>();

  // In lookup order: the mmap-able AOT store (when configured), then the
  // builders. Store failures — missing file, truncation, bad magic, stale
  // version, digest mismatch — warn and fall through; they must never
  // crash the session or silently change results.
  if (!SnapshotDir.empty()) {
    observe::Span LoadSpan(Trace.get(), "snapshot-load", "session",
                           ParentSpan);
    LoadSpan.arg("model", static_cast<int>(Model));
    auto Start = Clock::now();
    snapshot::LoadResult Loaded =
        snapshot::loadFromDir(SnapshotDir, Model, &Image->Bytes);
    if (Loaded.ok()) {
      Image->FromStore = true;
      Image->LoadSeconds = secondsSince(Start);
      ++Stats.SnapshotLoads;
      Stats.LoadSeconds += Image->LoadSeconds;
      Stats.StoreBytes += Loaded.Bytes;
    } else {
      std::fprintf(stderr,
                   "warning: snapshot store %s; falling back to builders\n",
                   Loaded.Warning.c_str());
    }
  }

  if (!Image->FromStore) {
    observe::Span BuildSpan(Trace.get(), "snapshot-build", "session",
                            ParentSpan);
    BuildSpan.arg("model", static_cast<int>(Model));
    auto Start = Clock::now();
    Image->Bytes = snapshot::serialize(snapshot::buildBase(Model), Model);
    ++Stats.SnapshotBuilds;
    Stats.BuildSeconds += secondsSince(Start);
  }
  if (Options.SnapshotCache)
    Cache.emplace(Model, Image);
  return Image;
}

CellResult AnalysisSession::openCell(const Application &App,
                                     AnalysisKind Kind, bool ForceProvenance,
                                     uint32_t ParentSpan) {
  std::unique_ptr<AnalysisCell> Cell(new AnalysisCell());
  Cell->AppName = App.Name;
  Cell->MainClass = App.MainClass;
  Cell->Kind = Kind;
  Cell->Profiled = ProfileCells;
  Cell->Trace = Trace.get();
  Cell->Events = Events.get();
  Cell->Registry = std::make_unique<observe::MetricsRegistry>();
  observe::MetricsRegistry &Registry = *Cell->Registry;

  Metrics M;
  M.App = App.Name;
  M.Analysis = analysisName(Kind);
  observe::Span CellSpan(Trace.get(), "cell", "session", ParentSpan);
  CellSpan.arg("app", M.App);
  CellSpan.arg("analysis", M.Analysis);

  // Base program: decoded from the collection model's image, outside the
  // cache mutex. The decoded base facts must outlive only `prepare()`,
  // which bulk-loads them. The span is named `snapshot-clone` because
  // perfbench's `snapshot.clone_s` layer reads it by that name.
  javalib::CollectionModel Model = collectionModel(Kind);
  std::shared_ptr<const BaseImage> Image = imageFor(Model, ParentSpan);
  observe::Span DecodeSpan(Trace.get(), "snapshot-clone", "session");
  auto DecodeStart = Clock::now();
  snapshot::LoadResult Decoded = snapshot::deserialize(Image->Bytes, Model);
  M.SnapshotCloneSeconds = secondsSince(DecodeStart);
  DecodeSpan.end();
  // A store image passed this decoder when it was loaded, and a built one
  // is `serialize` output, so decoding cannot fail.
  assert(Decoded.ok() && "session images decode by construction");
  snapshot::BaseProgram &Base = *Decoded.Data;
  Cell->Symbols = std::move(Base.Symbols);
  Cell->Prog = std::move(Base.Base);
  Cell->Lib = Base.Lib;
  Cell->Fw = Base.Frameworks;
  // Deterministic per-cell gauges: where this cell's base program came
  // from, and what the mapped store cost (0s when builder-sourced).
  // `session.snapshot.load_ns` is wall-clock and therefore volatile
  // (scripts/diff_metrics.py ignores it); source and bytes are exact.
  Registry.set("session.snapshot.source", Image->FromStore ? 1.0 : 0.0);
  Registry.set("session.snapshot.load_ns", Image->LoadSeconds * 1e9);
  Registry.set("session.snapshot.bytes",
               Image->FromStore ? static_cast<double>(Image->Bytes.size())
                                : 0.0);
  Program &P = *Cell->Prog;

  // Application assembly. Every failure that used to be an `assert` is an
  // `AnalysisError` now.
  observe::Span PopulateSpan(Trace.get(), "populate", "session");
  auto PopulateStart = Clock::now();
  std::vector<std::pair<std::string, std::string>> Configs =
      App.Populate(P, Cell->Lib, Cell->Fw);

  Cell->DB = std::make_unique<datalog::Database>(P.symbols());
  Cell->FM = std::make_unique<frameworks::FrameworkManager>(
      P, *Cell->DB, Options.MockOptions, Options.Plan);
  frameworks::FrameworkManager &FM = *Cell->FM;
  FM.setTracer(Trace.get());
  FM.setMetricsRegistry(&Registry);
  if (ProfileCells)
    FM.enableRuleProfiling();
  FM.setBaseFacts(&Base.Facts);
  if (ForceProvenance || RecordProvenance) {
    Cell->Recorder = std::make_unique<provenance::ProvenanceRecorder>(
        *Cell->DB, FM.rules());
    FM.setProvenance(Cell->Recorder.get());
  }
  if (usesBaselineRulesOnly(Kind))
    FM.addServletBaselineOnly();
  else
    FM.addDefaultFrameworks();
  for (const auto &[Name, Text] : App.ExtraRules)
    if (std::string Err = FM.addRules(Name, Text); !Err.empty())
      return AnalysisError{AnalysisErrorKind::RuleParse,
                           App.Name + ": " + Err};
  for (const auto &[Name, Text] : Configs)
    if (std::string Err = FM.addConfigXml(Name, Text); !Err.empty())
      return AnalysisError{AnalysisErrorKind::ConfigParse,
                           App.Name + "/" + Name + ": " + Err};

  P.finalize();
  if (std::string Err = FM.prepare(); !Err.empty())
    return AnalysisError{AnalysisErrorKind::Stratification,
                         App.Name + ": " + Err};
  // Phase-boundary RSS sample (extract): prepare() just ran fact
  // extraction. The wiring/solve/report boundaries sample the same gauge
  // family (`process.peak_rss.<phase>_bytes`), so memory growth is
  // attributable per phase instead of only end-of-run.
  Registry.set("process.peak_rss.extract_bytes",
               static_cast<double>(observe::processPeakRssBytes()));
  Cell->Watermark = facts::Extractor::watermarkOf(P);
  Cell->AllocWatermark = P.allocSiteCount();

  Cell->Solver_ = std::make_unique<Solver>(P, solverConfig(Kind));
  Solver &S = *Cell->Solver_;
  S.setTracer(Trace.get());
  S.setMetricsRegistry(&Registry);
  S.addPlugin(&FM);
  M.PopulateSeconds = secondsSince(PopulateStart);
  PopulateSpan.end();

  observe::Span SolveSpan(Trace.get(), "solve", "session");
  auto Start = Clock::now();
  if (!App.MainClass.empty()) {
    TypeId MainTy = P.findType(App.MainClass);
    if (!MainTy.isValid())
      return AnalysisError{AnalysisErrorKind::MainClassNotFound,
                           App.Name + ": main class '" + App.MainClass +
                               "' not found"};
    MethodId Main = P.findMethod(MainTy, "main", {});
    if (!Main.isValid())
      return AnalysisError{AnalysisErrorKind::MainMethodNotFound,
                           App.Name + ": no main() on '" + App.MainClass +
                               "'"};
    S.makeReachable(Main, S.contexts().empty());
  }
  S.solve();
  M.ElapsedSeconds = secondsSince(Start);
  Registry.set("process.peak_rss.solve_bytes",
               static_cast<double>(observe::processPeakRssBytes()));
  SolveSpan.arg("work_items", S.stats().WorkItems);
  SolveSpan.arg("rounds", S.stats().PluginRounds);
  SolveSpan.end();

  Cell->finishMetrics(M);
  Cell->Current = std::move(M);
  return CellResult(std::move(Cell));
}

CellResult AnalysisSession::open(const Application &App, AnalysisKind Kind) {
  return openCell(App, Kind, /*ForceProvenance=*/true);
}

AnalysisResult AnalysisSession::run(const Application &App,
                                    AnalysisKind Kind) {
  CellResult R = openCell(App, Kind, /*ForceProvenance=*/false);
  if (!R.ok())
    return R.error();
  return std::move(R->Current);
}

std::vector<AnalysisResult>
AnalysisSession::runMatrix(const std::vector<Application> &Apps,
                           const std::vector<AnalysisKind> &Kinds) {
  const size_t N = Apps.size() * Kinds.size();
  std::vector<std::optional<AnalysisResult>> Slots(N);
  if (N == 0)
    return {};

  // The matrix span carries only job-count-independent args; cells parent
  // under it explicitly since they may start on worker threads.
  observe::Span MatrixSpan(Trace.get(), "matrix", "session");
  MatrixSpan.arg("apps", Apps.size());
  MatrixSpan.arg("kinds", Kinds.size());
  MatrixSpan.arg("cells", N);

  auto RunOne = [&](size_t I) {
    const Application &App = Apps[I / Kinds.size()];
    AnalysisKind Kind = Kinds[I % Kinds.size()];
    // Per-cell progress heartbeats through the shared event sink, so long
    // corpus runs are observable in flight (`tail -f` the JSONL log).
    if (Events)
      Events->event("cell-start")
          .num("cell", static_cast<uint64_t>(I))
          .str("app", App.Name)
          .str("analysis", analysisName(Kind));
    CellResult R =
        openCell(App, Kind, /*ForceProvenance=*/false, MatrixSpan.id());
    bool Ok = R.ok();
    if (R.ok())
      Slots[I] = std::move(R->Current);
    else
      Slots[I] = R.error();
    if (Events)
      Events->event("cell-finish")
          .num("cell", static_cast<uint64_t>(I))
          .str("app", App.Name)
          .num("ok", static_cast<uint64_t>(Ok));
  };

  // Workers pull cell indexes from one shared cursor, so uneven cells
  // balance without locking; each cell writes only its own slot.
  std::atomic<size_t> NextCell{0};
  auto Drain = [&] {
    while (true) {
      size_t I = NextCell.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      RunOne(I);
    }
  };
  const size_t Workers = std::min<size_t>(Jobs, N);
  if (Workers <= 1) {
    Drain();
  } else {
    // A worker that throws stops pulling cells; its exception is rethrown
    // on the calling thread once every worker has joined.
    std::vector<std::exception_ptr> Failures(Workers);
    {
      std::vector<std::jthread> Threads;
      Threads.reserve(Workers);
      for (size_t W = 0; W != Workers; ++W)
        Threads.emplace_back([&, W] {
          try {
            Drain();
          } catch (...) {
            Failures[W] = std::current_exception();
          }
        });
    } // joining the jthreads publishes every slot
    for (const std::exception_ptr &Failure : Failures)
      if (Failure)
        std::rethrow_exception(Failure);
  }

  std::vector<AnalysisResult> Results;
  Results.reserve(N);
  for (std::optional<AnalysisResult> &Slot : Slots)
    Results.push_back(std::move(*Slot));
  return Results;
}
