// Copyright 2026 The LTAM Authors.
// In-process telemetry: a registry of named counters, gauges, and
// latency histograms, cheap enough to live on the server's hot path.
//
// Design constraints, in order:
//
//  1. One storage cell per metric. A counter is one relaxed atomic; a
//     histogram is one LatencyHistogram behind one mutex (an update
//     touches several fields, and an uncontended lock is cheaper than
//     making every bucket atomic). Few threads write any one metric:
//     in ltam_serve the coalescer thread records the ingest.*
//     histograms and the runtime.* and trace.* metrics, the I/O
//     thread the ingest.frames/events/quota_refusals counters, the two
//     read workers query.run, the runtime's one log thread
//     wal.sync, and the control thread the storage
//     counters. Per-thread stripes would buy little against that
//     contention and multiply the memory: each LatencyHistogram
//     zero-fills about 30 KiB of buckets.
//  2. A metric handle, once returned, is valid for the registry's
//     lifetime. Lookup (Counter()/Gauge()/Histogram()) takes the
//     registry mutex, so call sites resolve handles once and reuse
//     them; the instrumented paths never re-resolve names.
//  3. Snapshots are consistent per metric, not across metrics — a
//     scrape while writers run sees each histogram internally
//     coherent (its lock held during the copy) but no global barrier.
//     That is the standard Prometheus contract.
//
// There is deliberately no process-global registry: tests run many
// servers in one process, and a bench baseline wants a server with no
// registry at all (a null MetricsRegistry* disables instrumentation
// at every call site). Owners — ltam_serve, tests — create one and
// thread a raw pointer through ServerOptions/RuntimeOptions.

#ifndef LTAM_TELEMETRY_METRICS_H_
#define LTAM_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/latency_histogram.h"

namespace ltam {

/// Monotonic nanoseconds — the clock every stage stamp and histogram
/// sample uses (steady_clock, so wall-clock steps never produce
/// negative stage durations).
uint64_t MonotonicNowNs();

/// A monotonically increasing sum: one relaxed atomic.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// A last-write-wins instantaneous value (watermark lag, queue depth).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// A latency histogram: one LatencyHistogram behind one mutex.
class Histogram {
 public:
  void Record(uint64_t value_ns);
  /// A copy of the distribution so far.
  LatencyHistogram Snapshot() const;

 private:
  friend class MetricsRegistry;
  Histogram() = default;
  mutable std::mutex mu_;
  LatencyHistogram histogram_;
};

/// One metric's value at scrape time.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, LatencyHistogram>> histograms;
};

/// Named-metric registry. Metric names are dotted lowercase
/// ("ingest.apply", "replication.replica.3.lag_records"). Looking up
/// an existing name with the matching kind returns the same object;
/// a kind collision (a counter named like an existing histogram)
/// fails the lookup with nullptr rather than aborting, so a buggy
/// call site degrades to uninstrumented instead of taking the server
/// down.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Returns nullptr on a kind collision.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Find-only (no creation). nullptr when absent or kind-mismatched.
  Counter* FindCounter(const std::string& name) const;
  Gauge* FindGauge(const std::string& name) const;
  Histogram* FindHistogram(const std::string& name) const;

  /// Unregisters a metric (a retired replica's lag gauge). The handle
  /// is destroyed — callers must drop their pointer first. Returns
  /// whether the name existed.
  bool Remove(const std::string& name);

  /// Every metric, names sorted ascending within each kind.
  MetricsSnapshot Snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Entry>> entries_;

  Entry* FindEntry(const std::string& name);
  const Entry* FindEntry(const std::string& name) const;
};

/// Prometheus text exposition (version 0.0.4) of a snapshot. Metric
/// names are sanitized (dots to underscores) and prefixed "ltam_";
/// histograms render as summaries with quantile labels plus _sum and
/// _count series, durations converted from nanoseconds to seconds.
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

/// One human line per metric ("ingest.apply p50=0.8ms ... (n=123)"),
/// for --metrics-dump-s and `ltam_shell metrics` against a local
/// runtime. Counters and gauges fold into leading summary lines.
std::string MetricsSummaryText(const MetricsSnapshot& snapshot);

/// This process's resident set size in bytes (/proc/self/statm RSS
/// pages x page size), 0 where /proc is unavailable. Feeds the
/// `storage.resident_bytes` gauge: a retention soak run asserts this
/// plateaus instead of growing with total history.
uint64_t ReadResidentBytes();

}  // namespace ltam

#endif  // LTAM_TELEMETRY_METRICS_H_
