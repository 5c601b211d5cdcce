// Copyright 2026 The LTAM Authors.

#include "telemetry/metrics.h"

#include <time.h>
#if defined(__linux__)
#include <unistd.h>
#endif

#include <algorithm>
#include <cstdio>

#include "util/string_util.h"

namespace ltam {

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. The registry's
// dotted names become underscored with an "ltam_" prefix.
std::string SanitizeName(const std::string& name) {
  std::string out = "ltam_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

double NsToSeconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace

uint64_t MonotonicNowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void Histogram::Record(uint64_t value_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  histogram_.Record(value_ns);
}

LatencyHistogram Histogram::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histogram_;
}

MetricsRegistry::Entry* MetricsRegistry::FindEntry(const std::string& name) {
  for (auto& [entry_name, entry] : entries_) {
    if (entry_name == name) return &entry;
  }
  return nullptr;
}

const MetricsRegistry::Entry* MetricsRegistry::FindEntry(
    const std::string& name) const {
  for (const auto& [entry_name, entry] : entries_) {
    if (entry_name == name) return &entry;
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* entry = FindEntry(name)) {
    return entry->kind == Kind::kCounter ? entry->counter.get() : nullptr;
  }
  Entry entry;
  entry.kind = Kind::kCounter;
  entry.counter.reset(new Counter());
  Counter* out = entry.counter.get();
  entries_.emplace_back(name, std::move(entry));
  return out;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* entry = FindEntry(name)) {
    return entry->kind == Kind::kGauge ? entry->gauge.get() : nullptr;
  }
  Entry entry;
  entry.kind = Kind::kGauge;
  entry.gauge.reset(new Gauge());
  Gauge* out = entry.gauge.get();
  entries_.emplace_back(name, std::move(entry));
  return out;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* entry = FindEntry(name)) {
    return entry->kind == Kind::kHistogram ? entry->histogram.get() : nullptr;
  }
  Entry entry;
  entry.kind = Kind::kHistogram;
  entry.histogram.reset(new Histogram());
  Histogram* out = entry.histogram.get();
  entries_.emplace_back(name, std::move(entry));
  return out;
}

Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindEntry(name);
  return entry != nullptr && entry->kind == Kind::kCounter
             ? entry->counter.get()
             : nullptr;
}

Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindEntry(name);
  return entry != nullptr && entry->kind == Kind::kGauge ? entry->gauge.get()
                                                         : nullptr;
}

Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindEntry(name);
  return entry != nullptr && entry->kind == Kind::kHistogram
             ? entry->histogram.get()
             : nullptr;
}

bool MetricsRegistry::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == name) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : entries_) {
      switch (entry.kind) {
        case Kind::kCounter:
          snapshot.counters.emplace_back(name, entry.counter->value());
          break;
        case Kind::kGauge:
          snapshot.gauges.emplace_back(name, entry.gauge->value());
          break;
        case Kind::kHistogram:
          snapshot.histograms.emplace_back(name,
                                           entry.histogram->Snapshot());
          break;
      }
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(), by_name);
  return snapshot;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string pname = SanitizeName(name);
    out += StrFormat("# TYPE %s counter\n", pname.c_str());
    out += StrFormat("%s %llu\n", pname.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string pname = SanitizeName(name);
    out += StrFormat("# TYPE %s gauge\n", pname.c_str());
    out += StrFormat("%s %lld\n", pname.c_str(),
                     static_cast<long long>(value));
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    // Durations are recorded in nanoseconds; Prometheus convention is
    // base-unit seconds.
    const std::string pname = SanitizeName(name) + "_seconds";
    out += StrFormat("# TYPE %s summary\n", pname.c_str());
    static constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
    for (double q : kQuantiles) {
      out += StrFormat("%s{quantile=\"%g\"} %.9f\n", pname.c_str(), q,
                       NsToSeconds(histogram.Quantile(q)));
    }
    out += StrFormat("%s_sum %.9f\n", pname.c_str(),
                     NsToSeconds(histogram.sum()));
    out += StrFormat("%s_count %llu\n", pname.c_str(),
                     static_cast<unsigned long long>(histogram.count()));
  }
  return out;
}

std::string MetricsSummaryText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    out += StrFormat("%-32s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += StrFormat("%-32s %lld\n", name.c_str(),
                     static_cast<long long>(value));
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    out += StrFormat("%-32s %s\n", name.c_str(),
                     histogram.ToString().c_str());
  }
  return out;
}

uint64_t ReadResidentBytes() {
#if defined(__linux__)
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total_pages = 0;
  unsigned long long resident_pages = 0;
  const int fields = std::fscanf(f, "%llu %llu", &total_pages,
                                 &resident_pages);
  std::fclose(f);
  if (fields != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return static_cast<uint64_t>(resident_pages) *
         static_cast<uint64_t>(page);
#else
  return 0;
#endif
}

}  // namespace ltam
