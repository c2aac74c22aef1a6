//===- Report.h - Doop-style result dumps -----------------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writers that render analysis results as plain text, the way Doop exports
/// its result relations — for diffing runs, feeding downstream tooling, and
/// human inspection. All writers produce deterministic, sorted output.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_CORE_REPORT_H
#define JACKEE_CORE_REPORT_H

#include "core/Pipeline.h"
#include "core/Session.h"
#include "datalog/Rule.h"
#include "observe/Trace.h"
#include "pointsto/Solver.h"

#include <string>

namespace jackee {
namespace core {

/// Renders the context-insensitively projected reachable-method list, one
/// qualified name per line, sorted.
std::string reachableMethodsReport(const pointsto::Solver &S);

/// Renders the call graph as `caller -> callee` qualified-name pairs
/// (context-insensitive projection), sorted and deduplicated.
std::string callGraphReport(const pointsto::Solver &S);

/// Renders the points-to results of every named application variable:
/// `Class.method/var -> {Type@label, ...}` (sites projected over contexts),
/// sorted. Variables with empty sets are omitted.
std::string varPointsToReport(const pointsto::Solver &S);

/// One summary block with the headline counts (reachable methods, edges,
/// values, contexts) — convenient for logs.
std::string summaryReport(const pointsto::Solver &S);

/// Renders a rule set back to rule text, one indexed line per rule with
/// its source origin (`file.dl:line`, from `Rule::Origin`) — the listing
/// `explain()` output cross-references by rule index. \p DB supplies
/// relation names and constant symbol texts.
std::string ruleSetReport(const datalog::Database &DB,
                          const datalog::RuleSet &Rules);

/// Renders a session tracer's spans as a text flame summary (same-name
/// siblings merged per level; count, total/self seconds, share of parent)
/// — the log-friendly view of `AnalysisSession::tracer()`. Thin alias of
/// `observe::renderFlame`, exposed here so CLI drivers need only the core
/// report API.
std::string traceFlameReport(const observe::Tracer &T);

/// Renders \p M as one google-benchmark-style JSON object (the element
/// shape of a `"benchmarks"` array): `"name"` is `App/Analysis`, every
/// metric becomes a counter field. Each line is indented by \p Indent
/// spaces; no trailing comma or newline, so callers can join rows.
std::string metricsToJson(const Metrics &M, unsigned Indent = 0);

/// Renders a session's snapshot-cache counters as one JSON object —
/// image builds/loads plus the wall time each path consumed and the store
/// bytes validated. Same indentation contract as `metricsToJson`; CLI
/// drivers embed it in the benchmark `"context"` object.
std::string cacheStatsToJson(const AnalysisSession::CacheStats &S,
                             unsigned Indent = 0);

} // namespace core
} // namespace jackee

#endif // JACKEE_CORE_REPORT_H
