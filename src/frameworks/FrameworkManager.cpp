//===- FrameworkManager.cpp -----------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "frameworks/FrameworkManager.h"

#include "frameworks/Rules.h"
#include "support/Hashing.h"

#include <algorithm>
#include <chrono>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;
using namespace jackee::frameworks;
using jackee::datalog::RelationId;

FrameworkManager::FrameworkManager(Program &P, datalog::Database &DB,
                                   MockPolicyOptions Options,
                                   datalog::PlanMode Plan)
    : P(P), DB(DB), Options(Options), Plan(Plan) {
  // Rule text may name any base relation, so the schema is declared before
  // the first rule parses; `prepare()` decides which relations to fill.
  facts::declareSchema(DB);
  std::string Err = addRules("vocabulary.dl", VOCABULARY);
  assert(Err.empty() && "vocabulary must parse");
  (void)Err;
}

std::string FrameworkManager::addRules(std::string_view Name,
                                       std::string_view Text) {
  assert(!Prepared && "rules must be registered before prepare()");
  datalog::ParserResult Result = datalog::parseRules(DB, Rules, Text, Name);
  return Result.Ok ? std::string() : Result.Error;
}

void FrameworkManager::addDefaultFrameworks() {
  for (auto [Name, Text] :
       {std::pair{"servlet.dl", FRAMEWORK_SERVLET},
        std::pair{"spring.dl", FRAMEWORK_SPRING},
        std::pair{"ejb.dl", FRAMEWORK_EJB},
        std::pair{"jaxrs.dl", FRAMEWORK_JAXRS},
        std::pair{"struts.dl", FRAMEWORK_STRUTS}}) {
    std::string Err = addRules(Name, Text);
    assert(Err.empty() && "built-in framework models must parse");
    (void)Err;
  }
}

void FrameworkManager::addServletBaselineOnly() {
  std::string Err = addRules("baseline-servlet.dl", BASELINE_SERVLET);
  assert(Err.empty() && "baseline model must parse");
  (void)Err;
}

std::string FrameworkManager::addConfigXml(std::string_view FileName,
                                           std::string_view Text) {
  xml::ParseResult Result = xml::Parser::parse(Text);
  if (!Result.ok())
    return std::string(FileName) + ": " + Result.Error;
  Configs.emplace_back(std::string(FileName), std::move(*Result.Doc));
  // On a prepared manager (incremental update) the bulk extraction already
  // ran; extract the new file's facts now.
  if (Prepared) {
    observe::Span XmlSpan(Trace, "extract-xml", "frameworks");
    XmlSpan.arg("file", Configs.back().first);
    Facts->extractXml(Configs.back().second, Configs.back().first);
  }
  return "";
}

std::string FrameworkManager::removeConfigXml(
    std::string_view FileName,
    std::vector<std::pair<uint32_t, uint32_t>> &Seeds) {
  auto It = std::find_if(Configs.begin(), Configs.end(),
                         [&](const auto &C) { return C.first == FileName; });
  if (It == Configs.end())
    return "removeConfigXml: no config named '" + std::string(FileName) + "'";
  Configs.erase(It);
  std::vector<std::pair<uint32_t, uint32_t>> Retracted =
      Facts->retractConfigFacts(FileName);
  Seeds.insert(Seeds.end(), Retracted.begin(), Retracted.end());
  return "";
}

void FrameworkManager::resetForResolve() {
  assert(Prepared && "resetForResolve is an update-path operation");
  ClassObject.clear();
  ExercisedMethods.clear();
  AppliedInjections.clear();
  AppliedMethodInjections.clear();
  AppliedGetBeans.clear();
  PendingConstructorTypes.clear();
  FrameworkStats = Stats{};
  WiringRound = 0;
}

void FrameworkManager::rebindMetricsRegistry(observe::MetricsRegistry *R) {
  Registry = R;
  if (Eval)
    Eval->setMetricsRegistry(R);
}

std::string FrameworkManager::prepare() {
  assert(!Prepared && "prepare() called twice");
  // The demand set: a base fact no rule body reads cannot change a result
  // (DESIGN.md §3.4).
  facts::Demand Wanted;
  for (const datalog::Rule &R : Rules.rules())
    for (const datalog::Atom &A : R.Body)
      if (std::optional<size_t> Base =
              facts::findBaseRelation(DB.relation(A.Rel).name()))
        Wanted.set(*Base);
  Facts.emplace(DB, Wanted);
  if (Provenance)
    Provenance->beginEpoch("extraction");
  if (BaseFacts) {
    // Snapshot path: the base library's facts were extracted once when the
    // snapshot was built; bulk-load them and extract only the application
    // delta. Runs inside the "extraction" epoch so provenance attributes
    // the loaded tuples exactly like freshly extracted ones.
    {
      observe::Span LoadSpan(Trace, "load-base-facts", "frameworks");
      if (std::string Err =
              facts::bulkLoadBaseFacts(DB, *BaseFacts, Wanted);
          !Err.empty())
        return "base-fact load: " + Err;
    }
    observe::Span ExtractSpan(Trace, "extract-program", "frameworks");
    Facts->extractProgramDelta(P, BaseFacts->Watermark);
    BaseFacts = nullptr; // loaded; the caller may free the set now
  } else {
    observe::Span ExtractSpan(Trace, "extract-program", "frameworks");
    Facts->extractProgram(P);
  }
  for (const auto &[FileName, Doc] : Configs) {
    observe::Span XmlSpan(Trace, "extract-xml", "frameworks");
    XmlSpan.arg("file", FileName);
    Facts->extractXml(Doc, FileName);
  }
  Eval = std::make_unique<datalog::Evaluator>(DB, Rules, Plan);
  if (std::string Err = Eval->validate(); !Err.empty())
    return Err;
  Eval->setObserver(Provenance);
  Eval->setTracer(Trace);
  Eval->setMetricsRegistry(Registry);
  if (ProfileRules)
    Eval->enableRuleProfiling();
  Prepared = true;
  return "";
}

//===----------------------------------------------------------------------===//
// Plugin round
//===----------------------------------------------------------------------===//

bool FrameworkManager::onFixpoint(Solver &S) {
  assert(Prepared && "prepare() must run before solving");
  ++WiringRound;
  observe::Span RoundSpan(Trace, "wiring-round", "frameworks");
  RoundSpan.arg("round", WiringRound);
  auto T0 = std::chrono::steady_clock::now();
  {
    observe::Span EvalSpan(Trace, "evaluate", "frameworks");
    uint64_t TuplesBefore = Eval->stats().TuplesDerived;
    Eval->run();
    EvalSpan.arg("tuples", Eval->stats().TuplesDerived - TuplesBefore);
  }
  auto T1 = std::chrono::steady_clock::now();
  // Epoch boundary: base facts inserted from here until the next run()
  // (by the glue below or externally between solver rounds) are attributed
  // to this bean-wiring round.
  if (Provenance)
    Provenance->beginEpoch("bean-wiring round " +
                           std::to_string(WiringRound));

  // One span per glue action; `changed` is deterministic round by round.
  auto glue = [&](const char *Name, bool (FrameworkManager::*Action)(Solver &)) {
    observe::Span GlueSpan(Trace, Name, "frameworks");
    bool ActionChanged = (this->*Action)(S);
    GlueSpan.arg("changed", ActionChanged);
    return ActionChanged;
  };
  bool Changed = false;
  Changed |= glue("glue:generated-objects",
                  &FrameworkManager::processGeneratedObjects);
  Changed |= glue("glue:injections", &FrameworkManager::processInjections);
  Changed |= glue("glue:method-injections",
                  &FrameworkManager::processMethodInjections);
  Changed |= glue("glue:entry-points", &FrameworkManager::processEntryPoints);
  Changed |= glue("glue:get-bean", &FrameworkManager::processGetBean);
  auto T2 = std::chrono::steady_clock::now();
  FrameworkStats.EvaluatorSeconds +=
      std::chrono::duration<double>(T1 - T0).count();
  FrameworkStats.GlueSeconds +=
      std::chrono::duration<double>(T2 - T1).count();
  // Phase-boundary RSS sample (wiring). Last write wins, so after the final
  // round the gauge holds the high-water mark as of the last wiring step.
  if (Registry)
    Registry->set("process.peak_rss.wiring_bytes",
                  double(observe::processPeakRssBytes()));
  return Changed;
}

ValueId FrameworkManager::objectForClass(TypeId T, Solver &S,
                                         bool &CreatedNew) {
  CreatedNew = false;
  auto It = ClassObject.find(T.index());
  if (It != ClassObject.end())
    return It->second;

  const std::string &Name = P.symbols().text(P.type(T).Name);
  bool IsBean = DB.containsFact("Bean", {Name});
  AllocSiteId Site = P.addSyntheticObject(
      T, IsBean ? AllocKind::Generated : AllocKind::Mock,
      (IsBean ? "<bean " : "<mock ") + Name + ">");
  ValueId V = S.internValue(Site, S.contexts().empty());
  ClassObject.emplace(T.index(), V);
  ++FrameworkStats.MockObjectsCreated;
  PendingConstructorTypes.push_back(T);
  CreatedNew = true;
  if (Provenance)
    Provenance->recordGlue(
        IsBean
            ? provenance::ProvenanceRecorder::GlueEvent::Kind::BeanObjectCreated
            : provenance::ProvenanceRecorder::GlueEvent::Kind::MockObjectCreated,
        Name, IsBean ? "bean definition" : "mock policy", WiringRound);
  return V;
}

std::vector<TypeId> FrameworkManager::mockCandidates(TypeId T,
                                                     const Method &M) {
  std::vector<TypeId> Result;
  const Type &Ty = P.type(T);
  if (Ty.Kind == TypeKind::Primitive)
    return Result;
  if (Ty.Kind == TypeKind::Array) {
    Result.push_back(T);
    return Result;
  }

  // java.lang.Object parameters would match every concrete class; fall back
  // to a single Object mock plus cast-based discovery.
  bool IsRootObject = !Ty.Superclass.isValid() && Ty.Kind == TypeKind::Class;
  if (!IsRootObject) {
    // Concrete application subtypes first (the paper's primary rule) ...
    for (TypeId Sub : P.concreteSubtypes(T))
      if (P.type(Sub).IsApplication)
        Result.push_back(Sub);
    // ... then concrete library subtypes (container impls for e.g.
    // HttpServletRequest).
    if (Result.empty())
      for (TypeId Sub : P.concreteSubtypes(T))
        Result.push_back(Sub);
  } else {
    Result.push_back(T);
  }

  // Cast-based discovery: casts inside the entry method to concrete
  // subtypes of T reveal the intended runtime types.
  for (const Statement &Stmt : M.Statements) {
    if (Stmt.Op != Opcode::Cast)
      continue;
    TypeId Target = Stmt.TypeRef;
    if (P.type(Target).isConcreteClass() && P.isSubtype(Target, T) &&
        std::find(Result.begin(), Result.end(), Target) == Result.end())
      Result.push_back(Target);
  }

  if (Result.size() > Options.MaxMockTypesPerParam)
    Result.resize(Options.MaxMockTypesPerParam);
  return Result;
}

bool FrameworkManager::exerciseEntryPoint(MethodId M, Solver &S) {
  if (!ExercisedMethods.insert(M.rawValue()).second)
    return false;
  const Method &Meth = P.method(M);
  if (Meth.IsAbstract)
    return true; // counted as seen; nothing to exercise

  ++FrameworkStats.EntryPointsExercised;
  if (Provenance)
    Provenance->recordGlue(
        provenance::ProvenanceRecorder::GlueEvent::Kind::EntryPointExercised,
        facts::Extractor::encodeMethod(M),
        P.symbols().text(P.type(Meth.DeclaringType).Name) + "." +
            P.symbols().text(Meth.Name),
        WiringRound);

  // Receiver mocks: the declaring class if concrete, else its concrete
  // application subtypes (one mock per type, per the scalability rule).
  std::vector<ValueId> Receivers;
  if (!Meth.IsStatic) {
    std::vector<TypeId> ReceiverTypes;
    if (P.type(Meth.DeclaringType).isConcreteClass()) {
      ReceiverTypes.push_back(Meth.DeclaringType);
    } else {
      for (TypeId Sub : P.concreteSubtypes(Meth.DeclaringType))
        if (P.type(Sub).IsApplication)
          ReceiverTypes.push_back(Sub);
    }
    for (TypeId RT : ReceiverTypes) {
      bool CreatedNew = false;
      Receivers.push_back(objectForClass(RT, S, CreatedNew));
    }
  }

  // Contexts to analyze the entry under: object-sensitive receiver contexts
  // for instance methods, the empty context for static ones.
  std::vector<CtxId> Contexts;
  if (Meth.IsStatic || Receivers.empty()) {
    Contexts.push_back(S.contexts().empty());
  } else {
    for (ValueId Recv : Receivers)
      Contexts.push_back(S.contexts().appendAndTruncate(
          S.valueHeapCtx(Recv), S.valueSiteId(Recv),
          S.config().ContextDepth));
  }

  // Argument mocks, one per candidate type.
  std::vector<std::vector<ValueId>> ArgMocks(Meth.Params.size());
  for (uint32_t I = 0; I != Meth.Params.size(); ++I) {
    for (TypeId Candidate : mockCandidates(Meth.ParamTypes[I], Meth)) {
      bool CreatedNew = false;
      ArgMocks[I].push_back(objectForClass(Candidate, S, CreatedNew));
    }
  }

  for (size_t CI = 0; CI != Contexts.size(); ++CI) {
    CtxId Ctx = Contexts[CI];
    S.makeReachable(M, Ctx);
    if (!Meth.IsStatic && Meth.This.isValid())
      S.seedVar(Meth.This, Ctx, Receivers[CI]);
    for (uint32_t I = 0; I != Meth.Params.size(); ++I)
      for (ValueId Mock : ArgMocks[I])
        S.seedVar(Meth.Params[I], Ctx, Mock);
  }
  return true;
}

bool FrameworkManager::processEntryPoints(Solver &S) {
  bool Changed = false;
  RelationId Rel = DB.find("ExercisedEntryPoint");
  const datalog::Relation &R = DB.relation(Rel);
  for (uint32_t I = 0; I != R.size(); ++I) {
    if (!R.isLive(I))
      continue;
    const std::string &Text = DB.symbols().text(R.tuple(I)[0]);
    MethodId M = facts::Extractor::decodeMethod(Text);
    if (M.isValid())
      Changed |= exerciseEntryPoint(M, S);
  }

  // Recursively exercise constructors of every newly mocked type, so mock
  // objects acquire their field state (paper Section 3.3).
  while (!PendingConstructorTypes.empty()) {
    TypeId T = PendingConstructorTypes.back();
    PendingConstructorTypes.pop_back();
    Symbol InitName = P.symbols().lookup("<init>");
    for (MethodId M : P.type(T).Methods)
      if (P.method(M).Name == InitName && !P.method(M).IsRetracted)
        Changed |= exerciseEntryPoint(M, S);
  }
  return Changed;
}

bool FrameworkManager::processGeneratedObjects(Solver &S) {
  bool Changed = false;
  RelationId Rel = DB.find("GeneratedObjectClass");
  const datalog::Relation &R = DB.relation(Rel);
  for (uint32_t I = 0; I != R.size(); ++I) {
    if (!R.isLive(I))
      continue;
    const std::string &Name = DB.symbols().text(R.tuple(I)[0]);
    TypeId T = P.findType(Name);
    if (!T.isValid() || !P.type(T).isConcreteClass())
      continue;
    bool CreatedNew = false;
    objectForClass(T, S, CreatedNew);
    if (CreatedNew) {
      ++FrameworkStats.BeansCreated;
      Changed = true;
    }
  }
  return Changed;
}

bool FrameworkManager::processInjections(Solver &S) {
  bool Changed = false;
  RelationId Rel = DB.find("BeanFieldInjection");
  const datalog::Relation &R = DB.relation(Rel);
  for (uint32_t I = 0; I != R.size(); ++I) {
    if (!R.isLive(I))
      continue;
    const Symbol *Tuple = R.tuple(I);
    TypeId Target = P.findType(DB.symbols().text(Tuple[0]));
    FieldId F = facts::Extractor::decodeField(DB.symbols().text(Tuple[1]));
    TypeId BeanClass = P.findType(DB.symbols().text(Tuple[2]));
    if (!Target.isValid() || !F.isValid() || !BeanClass.isValid())
      continue;
    if (!P.type(Target).isConcreteClass() ||
        !P.type(BeanClass).isConcreteClass())
      continue;
    if (!AppliedInjections.insert(packPair(F.rawValue(), BeanClass.rawValue()))
             .second)
      continue;
    bool CreatedNew = false;
    ValueId TargetObj = objectForClass(Target, S, CreatedNew);
    ValueId BeanObj = objectForClass(BeanClass, S, CreatedNew);
    S.seedObjectField(TargetObj, F, BeanObj);
    ++FrameworkStats.InjectionsApplied;
    if (Provenance)
      Provenance->recordGlue(
          provenance::ProvenanceRecorder::GlueEvent::Kind::FieldInjection,
          DB.symbols().text(Tuple[1]),
          "bean " + DB.symbols().text(Tuple[2]) + " into " +
              DB.symbols().text(Tuple[0]),
          WiringRound);
    Changed = true;
  }
  return Changed;
}

bool FrameworkManager::processMethodInjections(Solver &S) {
  // Setter/method injection: the container invokes the annotated method on
  // the bean instance, passing assignable beans for its parameters.
  bool Changed = false;
  RelationId Rel = DB.find("BeanMethodInjection");
  const datalog::Relation &R = DB.relation(Rel);
  for (uint32_t I = 0; I != R.size(); ++I) {
    if (!R.isLive(I))
      continue;
    const Symbol *Tuple = R.tuple(I);
    TypeId Target = P.findType(DB.symbols().text(Tuple[0]));
    MethodId M = facts::Extractor::decodeMethod(DB.symbols().text(Tuple[1]));
    TypeId BeanClass = P.findType(DB.symbols().text(Tuple[2]));
    if (!Target.isValid() || !M.isValid() || !BeanClass.isValid())
      continue;
    if (!P.type(Target).isConcreteClass() ||
        !P.type(BeanClass).isConcreteClass())
      continue;
    if (!AppliedMethodInjections
             .insert(packPair(M.rawValue(), BeanClass.rawValue()))
             .second)
      continue;

    bool CreatedNew = false;
    ValueId Receiver = objectForClass(Target, S, CreatedNew);
    ValueId BeanObj = objectForClass(BeanClass, S, CreatedNew);
    const Method &Meth = P.method(M);
    CtxId Ctx = S.contexts().appendAndTruncate(S.valueHeapCtx(Receiver),
                                               S.valueSiteId(Receiver),
                                               S.config().ContextDepth);
    S.makeReachable(M, Ctx);
    if (Meth.This.isValid())
      S.seedVar(Meth.This, Ctx, Receiver);
    for (uint32_t PI = 0; PI != Meth.Params.size(); ++PI)
      if (P.isSubtype(BeanClass, Meth.ParamTypes[PI]))
        S.seedVar(Meth.Params[PI], Ctx, BeanObj);
    ++FrameworkStats.InjectionsApplied;
    if (Provenance)
      Provenance->recordGlue(
          provenance::ProvenanceRecorder::GlueEvent::Kind::MethodInjection,
          DB.symbols().text(Tuple[1]),
          "bean " + DB.symbols().text(Tuple[2]) + " into " +
              DB.symbols().text(Tuple[0]),
          WiringRound);
    Changed = true;
  }
  return Changed;
}

bool FrameworkManager::processGetBean(Solver &S) {
  bool Changed = false;
  RelationId GetBeanRel = DB.find("GetBeanInvocation");
  RelationId BeanIdRel = DB.find("Bean_Id");

  // Bean id -> class map from the current Bean_Id relation.
  std::unordered_map<uint32_t, TypeId> BeanById;
  {
    const datalog::Relation &R = DB.relation(BeanIdRel);
    for (uint32_t I = 0; I != R.size(); ++I) {
      if (!R.isLive(I))
        continue;
      TypeId T = P.findType(DB.symbols().text(R.tuple(I)[0]));
      if (T.isValid() && P.type(T).isConcreteClass())
        BeanById.emplace(R.tuple(I)[1].rawValue(), T);
    }
  }

  const datalog::Relation &R = DB.relation(GetBeanRel);
  for (uint32_t I = 0; I != R.size(); ++I) {
    if (!R.isLive(I))
      continue;
    InvokeId Inv =
        facts::Extractor::decodeInvoke(DB.symbols().text(R.tuple(I)[0]));
    if (!Inv.isValid())
      continue;
    const InvokeSite &Site = P.invokeSite(Inv);
    const Statement &Stmt =
        P.method(Site.Caller).Statements[Site.StatementIndex];
    if (!Stmt.Dst.isValid() || Stmt.Args.empty() || !Stmt.Args[0].isValid())
      continue;

    // Join the name argument's current string constants against Bean_Id —
    // the C++ realization of the paper's VarPointsTo-consuming rule.
    for (NodeId ArgNode : S.varInstances(Stmt.Args[0])) {
      for (uint32_t Raw : S.pointsTo(ArgNode)) {
        ValueId V(Raw);
        const AllocSite &ValueSite = S.valueSite(V);
        if (ValueSite.Kind != AllocKind::StringConstant)
          continue;
        auto It = BeanById.find(ValueSite.Label.rawValue());
        if (It == BeanById.end())
          continue;
        if (!AppliedGetBeans
                 .insert(packPair(Inv.rawValue(), It->second.rawValue()))
                 .second)
          continue;
        bool CreatedNew = false;
        ValueId BeanObj = objectForClass(It->second, S, CreatedNew);
        S.seedVarAllContexts(Stmt.Dst, BeanObj);
        ++FrameworkStats.GetBeanResolutions;
        if (Provenance)
          Provenance->recordGlue(
              provenance::ProvenanceRecorder::GlueEvent::Kind::GetBeanResolved,
              DB.symbols().text(R.tuple(I)[0]),
              "resolved to bean class " +
                  P.symbols().text(P.type(It->second).Name),
              WiringRound);
        Changed = true;
      }
    }
  }
  return Changed;
}
