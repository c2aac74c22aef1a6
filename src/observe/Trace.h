//===- Trace.h - Pipeline-wide span tracing ---------------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Zero-dependency span tracing for the whole analysis pipeline: a `Tracer`
/// collects timed, nested spans (name, category, thread, key/value args)
/// emitted by RAII `Span` guards scattered through the session driver, the
/// framework layer, the solver, and the Datalog engine. The collected spans
/// export as Chrome trace-event JSON (`writeChromeTrace`, loadable in
/// Perfetto or `chrome://tracing`), as a canonical timestamp-free structure
/// dump for determinism diffs (`renderStructure`), and as an aggregated
/// text flame summary for logs (`renderFlame`).
///
/// **Determinism contract.** Every span category (`session`, `pipeline`,
/// `frameworks`, `solver`, `datalog`) describes what the analysis computed
/// — phases, strata, semi-naive rounds, bean-wiring rounds, fixpoint
/// iterations. Span names, nesting, and args carry only deterministic
/// quantities (round indexes, tuple counts, rule counts), so the
/// timestamp-stripped span tree is bit-identical at any `JACKEE_JOBS`
/// setting (DESIGN.md §9).
/// `renderStructure` renders exactly this tree, sorting sibling subtrees so
/// concurrent cells serialize canonically.
///
/// A null `Tracer*` disables everything: `Span` guards compile to a pointer
/// test (see `bench/micro_trace.cpp` for the measured non-cost).
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_OBSERVE_TRACE_H
#define JACKEE_OBSERVE_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace jackee {
namespace observe {

class EventSink;

/// Collects spans from any number of threads. All mutation goes through one
/// mutex — spans are coarse (phases, strata, rounds; thousands per run, not
/// millions), so contention is irrelevant next to the work they measure.
class Tracer {
public:
  /// Sentinel span id: "no span" / "no parent".
  static constexpr uint32_t NoSpan = ~uint32_t(0);

  /// One key/value argument. `Quoted` distinguishes string values (quoted
  /// in JSON) from numeric values (emitted bare).
  struct Arg {
    std::string Key;
    std::string Value;
    bool Quoted;
  };

  /// One recorded span. Timestamps are microseconds since the tracer was
  /// created; `Parent` links the tree; `ThreadId` is a dense per-tracer
  /// thread number (0 = first thread seen).
  struct SpanRecord {
    std::string Name;
    std::string Category;
    uint32_t Parent = NoSpan;
    uint32_t ThreadId = 0;
    double StartUs = 0;
    double DurationUs = 0;
    bool Open = true; ///< endSpan not seen yet
    std::vector<Arg> Args;
  };

  Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Starts a span. With \p ParentOverride == NoSpan the parent is the
  /// calling thread's innermost open span of this tracer (spans nest
  /// per-thread automatically); an explicit override parents across
  /// threads — e.g. matrix cells under the matrix span. \returns the span
  /// id to close with `endSpan`. Prefer the `Span` RAII guard.
  uint32_t beginSpan(std::string_view Name, std::string_view Category,
                     uint32_t ParentOverride = NoSpan);

  /// Closes span \p Id, fixing its duration.
  void endSpan(uint32_t Id);

  /// Attaches an argument to open-or-closed span \p Id. \p Quoted marks
  /// string values; \p Value must already be formatted.
  void addArg(uint32_t Id, std::string_view Key, std::string_view Value,
              bool Quoted);

  /// A copy of every span recorded so far (ids are vector positions).
  std::vector<SpanRecord> snapshot() const;

  size_t spanCount() const;

  /// Mirrors every closed span into \p Sink as a
  /// `span` event — part of the shared JSONL log of DESIGN.md §14. The
  /// sink must outlive the tracer; null detaches.
  void setEventSink(EventSink *Sink) { Events = Sink; }

private:
  double nowUs() const;

  mutable std::mutex Mutex;
  std::vector<SpanRecord> Spans;
  std::map<std::thread::id, uint32_t> ThreadIds;
  std::chrono::steady_clock::time_point Epoch;
  EventSink *Events = nullptr;
};

/// RAII span guard. Inert when constructed with a null tracer — every
/// member call is then a single pointer test, which is what keeps
/// instrumentation free in untraced runs.
class Span {
public:
  /// An inert guard (no tracer).
  Span() = default;

  Span(Tracer *T, std::string_view Name, std::string_view Category,
       uint32_t ParentOverride = Tracer::NoSpan)
      : T(T),
        Id(T ? T->beginSpan(Name, Category, ParentOverride) : Tracer::NoSpan) {
  }

  Span(Span &&Other) noexcept : T(Other.T), Id(Other.Id) {
    Other.T = nullptr;
  }
  Span &operator=(Span &&Other) noexcept {
    if (this != &Other) {
      end();
      T = Other.T;
      Id = Other.Id;
      Other.T = nullptr;
    }
    return *this;
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  ~Span() { end(); }

  /// Closes the span early (idempotent).
  void end() {
    if (T) {
      T->endSpan(Id);
      T = nullptr;
    }
  }

  /// Attaches a key/value argument. Integers and floats format
  /// deterministically; keep args on structural spans deterministic (see
  /// the determinism contract above).
  template <typename V> void arg(std::string_view Key, V Value) {
    if (!T)
      return;
    if constexpr (std::is_same_v<V, bool>) {
      T->addArg(Id, Key, Value ? "true" : "false", /*Quoted=*/false);
    } else if constexpr (std::is_integral_v<V>) {
      char Buf[24];
      if constexpr (std::is_signed_v<V>)
        std::snprintf(Buf, sizeof(Buf), "%lld",
                      static_cast<long long>(Value));
      else
        std::snprintf(Buf, sizeof(Buf), "%llu",
                      static_cast<unsigned long long>(Value));
      T->addArg(Id, Key, Buf, /*Quoted=*/false);
    } else if constexpr (std::is_floating_point_v<V>) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.6g", static_cast<double>(Value));
      T->addArg(Id, Key, Buf, /*Quoted=*/false);
    } else {
      T->addArg(Id, Key, std::string_view(Value), /*Quoted=*/true);
    }
  }

  /// The underlying span id (NoSpan when inert) — for parenting children
  /// across threads.
  uint32_t id() const { return T ? Id : Tracer::NoSpan; }

  explicit operator bool() const { return T != nullptr; }

private:
  Tracer *T = nullptr;
  uint32_t Id = Tracer::NoSpan;
};

/// Renders the deterministic span structure: the span tree with names,
/// categories, and args — no timestamps, thread ids, or durations. Sibling
/// subtrees are sorted by their rendered text, so the output is
/// bit-identical for any thread/job count and any interleaving
/// (the acceptance check of DESIGN.md §9.2).
std::string renderStructure(const Tracer &T);

/// Renders an aggregated wall-clock summary: the span tree with same-name
/// siblings merged per level, showing call counts, total and self seconds,
/// and each node's share of its parent — a text flame graph for logs.
std::string renderFlame(const Tracer &T);

/// Serializes every span as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form), loadable in Perfetto or
/// `chrome://tracing`. Complete ("ph":"X") events carry begin/duration
/// microseconds, the dense thread id as "tid", and args (numbers bare,
/// strings quoted/escaped).
std::string writeChromeTrace(const Tracer &T);

} // namespace observe
} // namespace jackee

#endif // JACKEE_OBSERVE_TRACE_H
