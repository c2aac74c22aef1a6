//===- Env.h - Environment-variable resolution ------------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One home for every `JACKEE_*` environment knob. The precedence rule is
/// the same everywhere and documented exactly once:
///
///   explicit option (> 0 / non-Auto)  >  environment variable  >  default
///
/// where the default for the one worker count, `JACKEE_JOBS`, is
/// `hardware_concurrency` clamped to [1, 256]. Variables and their
/// consumers:
///
///   JACKEE_JOBS            analysis-cell matrix workers (core::AnalysisSession)
///   JACKEE_PLAN            join-plan mode               (datalog::resolvePlanMode)
///   JACKEE_PROVENANCE      derivation recording on/off  (core::AnalysisSession)
///   JACKEE_TRACE           span tracing, value = output path (core::AnalysisSession)
///   JACKEE_PROFILE         deep profiler, value = event-log path (core::AnalysisSession)
///   JACKEE_SNAPSHOT_DIR    AOT base-program store directory (core::AnalysisSession)
///
/// The on/off variables share one reading (`switchVar`): unset, empty, "0"
/// or "false" is off; "1" or "true" is on; any other value is on and names
/// an output path for the two path-taking variables.
///
/// Malformed or out-of-range values are ignored (the next precedence level
/// applies) — a typo'd variable must never turn into a silent 1-thread or
/// 256-thread run of a different shape than the user asked for.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_SUPPORT_ENV_H
#define JACKEE_SUPPORT_ENV_H

#include <optional>
#include <string>

namespace jackee {
namespace env {

/// The raw value of \p Name, or nullptr if unset.
const char *rawVar(const char *Name);

/// Parses \p Name as a decimal count in [\p Min, \p Max]. Unset, trailing
/// garbage, or out-of-range values all yield `nullopt`.
std::optional<long> countVar(const char *Name, long Min = 1, long Max = 256);

/// An on/off variable whose value may also name an output path.
struct Switch {
  bool On = false;
  std::string Path; ///< the value when it is neither on nor off
};

/// Reads \p Name as a switch: unset, empty, "0" or "false" is off; "1" or
/// "true" is on; any other value is on, with the value as `Path`.
Switch switchVar(const char *Name);

/// True if \p Name is set to "1" or "true". A path-like value is malformed
/// for a plain flag and reads as off.
bool flagVar(const char *Name);

/// Resolves a worker count: \p Explicit if non-zero (clamped to [1, 256]),
/// else \p Name's value if valid, else `hardware_concurrency` (clamped,
/// and at least 1 on platforms that report 0).
unsigned resolveWorkerCount(unsigned Explicit, const char *Name);

} // namespace env
} // namespace jackee

#endif // JACKEE_SUPPORT_ENV_H
