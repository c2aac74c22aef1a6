//===- Report.cpp ---------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"

#include "observe/Json.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

using namespace jackee;
using namespace jackee::ir;
using namespace jackee::pointsto;

std::string jackee::core::reachableMethodsReport(const Solver &S) {
  const Program &P = S.program();
  std::vector<std::string> Lines;
  for (MethodId M : S.reachableMethods())
    Lines.push_back(P.qualifiedName(M));
  std::sort(Lines.begin(), Lines.end());
  std::ostringstream Out;
  for (const std::string &Line : Lines)
    Out << Line << '\n';
  return Out.str();
}

std::string jackee::core::callGraphReport(const Solver &S) {
  const Program &P = S.program();
  std::set<std::string> Lines;
  for (uint64_t Edge : S.callGraphEdges()) {
    InvokeId Inv(static_cast<uint32_t>(Edge >> 32));
    MethodId Callee(static_cast<uint32_t>(Edge & 0xffffffffu));
    Lines.insert(P.qualifiedName(P.invokeSite(Inv).Caller) + " -> " +
                 P.qualifiedName(Callee));
  }
  std::ostringstream Out;
  for (const std::string &Line : Lines)
    Out << Line << '\n';
  return Out.str();
}

std::string jackee::core::varPointsToReport(const Solver &S) {
  const Program &P = S.program();
  const SymbolTable &Symbols = P.symbols();
  std::vector<std::string> Lines;
  for (uint32_t VI = 0; VI != P.variableCount(); ++VI) {
    VarId V(VI);
    const Variable &Var = P.variable(V);
    TypeId Declaring = P.method(Var.DeclaringMethod).DeclaringType;
    if (!P.type(Declaring).IsApplication)
      continue;
    std::vector<AllocSiteId> Sites = S.varPointsToSites(V);
    if (Sites.empty())
      continue;

    std::vector<std::string> Values;
    for (AllocSiteId Site : Sites) {
      const AllocSite &A = P.allocSite(Site);
      Values.push_back(std::string(Symbols.text(P.type(A.ObjectType).Name)) +
                       "@" + Symbols.text(A.Label));
    }
    std::sort(Values.begin(), Values.end());

    std::string Line = P.qualifiedName(Var.DeclaringMethod) + "/" +
                       Symbols.text(Var.Name) + " -> {";
    for (size_t I = 0; I != Values.size(); ++I) {
      if (I)
        Line += ", ";
      Line += Values[I];
    }
    Line += "}";
    Lines.push_back(std::move(Line));
  }
  std::sort(Lines.begin(), Lines.end());
  std::ostringstream Out;
  for (const std::string &Line : Lines)
    Out << Line << '\n';
  return Out.str();
}

std::string jackee::core::summaryReport(const Solver &S) {
  std::ostringstream Out;
  Out << "reachable methods (ci-projected): "
      << S.reachableMethods().size() << '\n'
      << "reachable (method, ctx) pairs:    "
      << S.reachableCMethods().size() << '\n'
      << "call-graph edges:                 " << S.callGraphEdges().size()
      << '\n'
      << "abstract objects:                 " << S.valueCount() << '\n'
      << "var-points-to tuples:             " << S.varPointsToTuplesTotal()
      << '\n'
      << "  of which java.util:             "
      << S.varPointsToTuples("java.util") << '\n';
  return Out.str();
}

namespace {

/// Renders one rule atom/term back to source-ish text ("V0", "\"const\"").
void appendTerm(std::ostringstream &Out, const datalog::Term &T,
                const SymbolTable &Symbols) {
  if (T.isConstant())
    Out << '"' << Symbols.text(T.Value) << '"';
  else
    Out << 'V' << T.VarIndex;
}

void appendAtom(std::ostringstream &Out, const datalog::Atom &A,
                const datalog::Database &DB) {
  if (A.Negated)
    Out << '!';
  Out << DB.relation(A.Rel).name() << '(';
  for (size_t I = 0; I != A.Terms.size(); ++I) {
    if (I)
      Out << ", ";
    appendTerm(Out, A.Terms[I], DB.symbols());
  }
  Out << ')';
}

} // namespace

std::string jackee::core::ruleSetReport(const datalog::Database &DB,
                                        const datalog::RuleSet &Rules) {
  std::ostringstream Out;
  for (size_t I = 0; I != Rules.rules().size(); ++I) {
    const datalog::Rule &R = Rules.rules()[I];
    Out << '#' << I << "  [" << (R.Origin.empty() ? "<unknown>" : R.Origin)
        << "]  ";
    appendAtom(Out, R.Head, DB);
    if (!R.Body.empty() || !R.Constraints.empty()) {
      Out << " :- ";
      bool First = true;
      for (const datalog::Atom &A : R.Body) {
        if (!First)
          Out << ", ";
        First = false;
        appendAtom(Out, A, DB);
      }
      for (const datalog::Constraint &C : R.Constraints) {
        if (!First)
          Out << ", ";
        First = false;
        appendTerm(Out, C.Lhs, DB.symbols());
        Out << (C.CompareKind == datalog::Constraint::Kind::Equal ? " = "
                                                                  : " != ");
        appendTerm(Out, C.Rhs, DB.symbols());
      }
    }
    Out << ".\n";
  }
  return Out.str();
}

std::string jackee::core::traceFlameReport(const observe::Tracer &T) {
  return observe::renderFlame(T);
}

std::string jackee::core::metricsToJson(const Metrics &M, unsigned Indent) {
  const std::string Pad(Indent, ' ');
  std::ostringstream Out;
  // All keys and string values go through the shared JSON escaper — an app
  // name containing `"` or `\` must not produce unparseable output.
  auto field = [&](std::string_view Name, const std::string &Value,
                   bool Last = false) {
    Out << Pad << "  " << observe::jsonQuote(Name) << ": " << Value
        << (Last ? "\n" : ",\n");
  };
  auto num = [](double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6f", V);
    return std::string(Buf);
  };
  Out << Pad << "{\n";
  field("name", observe::jsonQuote(M.App + "/" + M.Analysis));
  field("run_type", "\"iteration\"");
  field("real_time", num(M.ElapsedSeconds));
  field("time_unit", "\"s\"");
  field("reach_percent", num(M.reachabilityPercent()));
  field("avg_objs_per_var", num(M.AvgObjsPerVar));
  field("avg_objs_per_app_var", num(M.AvgObjsPerAppVar));
  field("call_graph_edges", std::to_string(M.CallGraphEdges));
  field("reachable_methods_total", std::to_string(M.ReachableMethodsTotal));
  field("app_poly_vcalls", std::to_string(M.AppPolyVCalls));
  field("app_mayfail_casts", std::to_string(M.AppMayFailCasts));
  field("vpt_tuples_total", std::to_string(M.VptTuplesTotal));
  field("java_util_share", num(M.javaUtilShare()));
  field("entry_points_exercised", std::to_string(M.EntryPointsExercised));
  field("beans_created", std::to_string(M.BeansCreated));
  field("injections_applied", std::to_string(M.InjectionsApplied));
  field("solver_rounds", std::to_string(M.SolverRounds));
  field("solver_work_items", std::to_string(M.SolverWorkItems));
  field("datalog_tuples_derived", std::to_string(M.DatalogTuplesDerived));
  field("datalog_strata", std::to_string(M.DatalogStrata));
  field("provenance_enabled", M.ProvenanceEnabled ? "true" : "false");
  field("provenance_tuples_recorded",
        std::to_string(M.ProvenanceTuplesRecorded));
  field("provenance_candidates_seen",
        std::to_string(M.ProvenanceCandidatesSeen));
  field("provenance_glue_events", std::to_string(M.ProvenanceGlueEvents));
  field("snapshot_clone_seconds", num(M.SnapshotCloneSeconds));
  field("populate_seconds", num(M.PopulateSeconds));
  for (const auto &[Name, Value] : M.Observed)
    field("observed." + Name, num(Value));
  field("total_seconds", num(M.totalSeconds()), true);
  Out << Pad << "}";
  return Out.str();
}

std::string
jackee::core::cacheStatsToJson(const AnalysisSession::CacheStats &S,
                               unsigned Indent) {
  const std::string Pad(Indent, ' ');
  std::ostringstream Out;
  auto field = [&](std::string_view Name, const std::string &Value,
                   bool Last = false) {
    Out << Pad << "  " << observe::jsonQuote(Name) << ": " << Value
        << (Last ? "\n" : ",\n");
  };
  auto num = [](double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6f", V);
    return std::string(Buf);
  };
  Out << Pad << "{\n";
  field("snapshot_builds", std::to_string(S.SnapshotBuilds));
  field("snapshot_loads", std::to_string(S.SnapshotLoads));
  field("snapshot_store_bytes", std::to_string(S.StoreBytes));
  field("snapshot_build_seconds", num(S.BuildSeconds));
  field("snapshot_load_seconds", num(S.LoadSeconds), true);
  Out << Pad << "}";
  return Out.str();
}
