// Copyright 2026 The LTAM Authors.

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace ltam::perfbench {

double QuantileWithMisses(std::vector<double>* ok, uint64_t failed, double q) {
  const size_t n = ok->size() + static_cast<size_t>(failed);
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  std::sort(ok->begin(), ok->end());
  // Order statistic i is (*ok)[i] below ok->size() and +inf above.
  auto at = [ok](size_t i) {
    return i < ok->size() ? (*ok)[i] : std::numeric_limits<double>::infinity();
  };
  const double h = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(std::floor(h));
  const double frac = h - static_cast<double>(lo);
  if (frac == 0.0 || lo + 1 >= n) return at(lo);
  const double a = at(lo);
  const double b = at(lo + 1);
  if (std::isinf(b)) return b;
  return a + (b - a) * frac;
}

double Median(std::vector<double>* values) {
  return QuantileWithMisses(values, 0, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

uint64_t DigestDecisions(uint64_t seed, Span<const Decision> decisions) {
  uint64_t h = seed;
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ull;
  };
  for (const Decision& d : decisions) {
    mix(d.granted ? 1 : 0);
    mix(static_cast<uint8_t>(d.reason));
  }
  // Frame boundary marker, so two frames never alias one longer frame.
  mix(0xff);
  return h;
}

}  // namespace ltam::perfbench
