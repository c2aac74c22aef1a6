//===- Metrics.h - Counter/gauge/histogram registry -------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A named metrics registry for memory/throughput observability: counters
/// (monotone sums), gauges (last-write values), and power-of-two histograms
/// (count/sum/min/max plus bucket-resolution p50/p95). Producers across the
/// pipeline — the Datalog evaluator (round delta sizes, join-plan
/// histograms), the points-to solver (rounds, work items), the session
/// driver (relation-store bytes, peak RSS, per-stratum throughput) — record
/// under dotted names
/// (`datalog.round_delta_tuples`); `snapshot()` flattens everything into
/// sorted (name, value) samples that `core::Metrics::Observed` carries into
/// `metricsToJson`, so every bench and the matrix driver export the
/// registry for free.
///
/// Thread-safe (one mutex); recording happens at phase/round granularity,
/// never per tuple, so the lock is not a hot path.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_OBSERVE_METRICS_H
#define JACKEE_OBSERVE_METRICS_H

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jackee {
namespace observe {

/// Registry of named metrics. Names pick their kind on first use; later
/// records with a different kind are ignored (asserted in debug builds).
class MetricsRegistry {
public:
  /// Adds \p Delta to counter \p Name (creating it at zero).
  void add(std::string_view Name, double Delta = 1);

  /// Sets gauge \p Name to \p Value (last write wins).
  void set(std::string_view Name, double Value);

  /// Records \p Value into histogram \p Name.
  void observe(std::string_view Name, double Value);

  /// One flattened sample. Histogram `h` expands to `h.count`, `h.sum`,
  /// `h.min`, `h.max`, `h.p50`, and `h.p95` (quantiles at power-of-two
  /// bucket resolution).
  struct Sample {
    std::string Name;
    double Value;
  };

  /// All samples, sorted by name — deterministic given the same recorded
  /// values.
  std::vector<Sample> snapshot() const;

  size_t metricCount() const;

private:
  enum class Kind { Counter, Gauge, Histogram };

  /// Bucket `0` holds values <= 1 (including non-positives); bucket `i`
  /// holds `(2^(i-1), 2^i]`; the last bucket is unbounded above.
  static constexpr size_t BucketCount = 64;

  struct Metric {
    Kind MetricKind;
    double Value = 0; ///< counter sum / gauge value
    // Histogram state.
    uint64_t Count = 0;
    double Sum = 0;
    double Min = 0;
    double Max = 0;
    std::array<uint64_t, BucketCount> Buckets{};
  };

  Metric &metricFor(std::string_view Name, Kind K);

  mutable std::mutex Mutex;
  std::map<std::string, Metric, std::less<>> Metrics;
};

/// The process's peak resident set size in bytes, or 0 where unsupported.
/// (Linux: `getrusage(RUSAGE_SELF)`; note this is process-wide, so in a
/// parallel matrix every cell observes the same high-water mark.)
uint64_t processPeakRssBytes();

} // namespace observe
} // namespace jackee

#endif // JACKEE_OBSERVE_METRICS_H
