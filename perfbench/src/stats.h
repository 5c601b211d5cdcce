// Copyright 2026 The LTAM Authors.
// Order statistics and decision digests for the end-to-end benchmark.
//
// Percentiles are exact order statistics over the raw samples (not the
// LatencyHistogram's bucket bounds, which would make two runs read the
// same quantized value). A refused, errored or timed-out operation is a
// miss: it counts as infinitely slow in every percentile, so enough
// failures push a percentile to +inf rather than out of the sample.

#ifndef LTAM_PERFBENCH_STATS_H_
#define LTAM_PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/decision.h"
#include "util/span.h"

namespace ltam::perfbench {

/// One reported number: its name, value, unit, and the base it was
/// measured over ("n=3125 frames", "scrape"), printed beside it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;
};

/// The q-quantile (q in [0, 1]) of `ok` samples plus `failed` samples of
/// value +inf, linearly interpolated between adjacent order statistics
/// (the convention of Python's statistics.quantiles "inclusive" method).
/// Returns +inf when the interpolation touches a failed sample, NaN when
/// there are no samples at all. `ok` is sorted in place.
double QuantileWithMisses(std::vector<double>* ok, uint64_t failed, double q);

/// Median of a small vector of values (sorted in place); NaN when empty.
double Median(std::vector<double>* values);

/// Mean; NaN when empty.
double Mean(const std::vector<double>& values);

/// FNV-1a digest of one frame's decisions (granted flag and deny reason
/// of every event, in order), chained onto `seed`.
uint64_t DigestDecisions(uint64_t seed, Span<const Decision> decisions);

/// Initial value of a DigestDecisions chain.
constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ull;

}  // namespace ltam::perfbench

#endif  // LTAM_PERFBENCH_STATS_H_
