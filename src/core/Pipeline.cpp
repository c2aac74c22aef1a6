//===- Pipeline.cpp -------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "core/Session.h"

#include <cstdio>
#include <cstdlib>

using namespace jackee;
using namespace jackee::core;

const char *jackee::core::analysisName(AnalysisKind Kind) {
  switch (Kind) {
  case AnalysisKind::DoopBaselineCI:
    return "doop-ci";
  case AnalysisKind::CI:
    return "ci";
  case AnalysisKind::OneObjH:
    return "1objH";
  case AnalysisKind::TwoObjH:
    return "2objH";
  case AnalysisKind::NoTreeNode2ObjH:
    return "nt-2objH";
  case AnalysisKind::Mod2ObjH:
    return "mod-2objH";
  }
  return "?";
}

pointsto::SolverConfig jackee::core::solverConfig(AnalysisKind Kind) {
  switch (Kind) {
  case AnalysisKind::DoopBaselineCI:
  case AnalysisKind::CI:
    return {0, 0};
  case AnalysisKind::OneObjH:
    return {1, 1};
  case AnalysisKind::TwoObjH:
  case AnalysisKind::NoTreeNode2ObjH:
  case AnalysisKind::Mod2ObjH:
    return {2, 1};
  }
  return {0, 0};
}

bool jackee::core::usesSoundModuloCollections(AnalysisKind Kind) {
  return Kind == AnalysisKind::Mod2ObjH;
}

javalib::CollectionModel jackee::core::collectionModel(AnalysisKind Kind) {
  switch (Kind) {
  case AnalysisKind::Mod2ObjH:
    return javalib::CollectionModel::SoundModulo;
  case AnalysisKind::NoTreeNode2ObjH:
    return javalib::CollectionModel::OriginalNoTreeNodes;
  default:
    return javalib::CollectionModel::OriginalJdk8;
  }
}

bool jackee::core::usesBaselineRulesOnly(AnalysisKind Kind) {
  return Kind == AnalysisKind::DoopBaselineCI;
}

const char *jackee::core::analysisErrorKindName(AnalysisErrorKind Kind) {
  switch (Kind) {
  case AnalysisErrorKind::ConfigParse:
    return "config-parse";
  case AnalysisErrorKind::RuleParse:
    return "rule-parse";
  case AnalysisErrorKind::Stratification:
    return "stratification";
  case AnalysisErrorKind::MainClassNotFound:
    return "main-class-not-found";
  case AnalysisErrorKind::MainMethodNotFound:
    return "main-method-not-found";
  case AnalysisErrorKind::InvalidDelta:
    return "invalid-delta";
  }
  return "?";
}

namespace {

[[noreturn]] void fatalAnalysisError(const AnalysisError &Err) {
  std::fprintf(stderr, "fatal analysis error [%s]: %s\n",
               analysisErrorKindName(Err.Kind), Err.Message.c_str());
  std::exit(1);
}

} // namespace

Metrics AnalysisResult::value() const & {
  if (ok())
    return *Value;
  fatalAnalysisError(*Err);
}

Metrics AnalysisResult::value() && {
  if (ok())
    return *std::move(Value);
  fatalAnalysisError(*Err);
}

AnalysisResult jackee::core::runAnalysis(const Application &App,
                                         AnalysisKind Kind,
                                         frameworks::MockPolicyOptions
                                             MockOptions,
                                         const EngineOptions &Options) {
  SessionOptions SO;
  static_cast<EngineOptions &>(SO) = Options;
  SO.Jobs = 1;
  SO.MockOptions = MockOptions;
  AnalysisSession Session(SO);
  return Session.run(App, Kind);
}
