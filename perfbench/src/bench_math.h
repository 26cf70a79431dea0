// The benchmark's own arithmetic: percentiles and the tail rule, the
// capacity ladder's backlog test and search, and ratios reported with
// their base. Pure functions over plain numbers, unit-tested by
// tests/unit_test.cc.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile p in [0, 100] with linear interpolation between the two
/// nearest ranks: the estimator mm::RunningStats::Percentile uses, so a
/// value printed here equals LatencyStats::P99Ms() on the same samples.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

/// The host time of a repeated pass: the first quartile of its per-run
/// host seconds. On a shared machine interference only ever adds time, so
/// the faster quartile is the steadiest estimate of what the code costs;
/// the median moves with whatever else the machine is running.
inline double HostSeconds(std::vector<double> runs) {
  return Percentile(std::move(runs), 25.0);
}

/// A tail percentile together with the evidence behind it.
struct Tail {
  double pct = 0;        ///< The percentile asked for.
  double value = 0;      ///< Its value.
  size_t samples = 0;    ///< Samples the percentile was taken over.
  size_t beyond = 0;     ///< Samples strictly greater than `value`.
  /// The tail rule: a percentile is reported only with at least
  /// `kMinBeyond` samples beyond it.
  static constexpr size_t kMinBeyond = 10;
  bool Supported() const { return beyond >= kMinBeyond; }
};

inline Tail TailAt(const std::vector<double>& v, double pct) {
  Tail t;
  t.pct = pct;
  t.samples = v.size();
  t.value = Percentile(v, pct);
  t.beyond = static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > t.value; }));
  return t;
}

/// Backlog test of the capacity ladder. `queue_ms` holds each query's
/// queueing delay in arrival order. The backlog grows when the last tenth
/// of arrivals waits longer than the first tenth by more than start-up
/// alone explains: its mean wait exceeds twice the first tenth's mean
/// wait plus one mean service time. A stable queue that started empty
/// passes; a queue that never reaches equilibrium within the run fails.
inline bool BacklogGrows(std::span<const double> queue_ms,
                         double mean_service_ms) {
  const size_t tenth = queue_ms.size() / 10;
  if (tenth == 0) return false;
  double first = 0, last = 0;
  for (size_t i = 0; i < tenth; ++i) {
    first += queue_ms[i];
    last += queue_ms[queue_ms.size() - tenth + i];
  }
  first /= static_cast<double>(tenth);
  last /= static_cast<double>(tenth);
  return last > 2.0 * first + mean_service_ms;
}

/// A fixed geometric rate ladder: lo, lo*step, ... up to hi inclusive.
inline std::vector<double> RateLadder(double lo, double hi, double step) {
  std::vector<double> out;
  for (double r = lo; r <= hi * (1 + 1e-9); r *= step) out.push_back(r);
  return out;
}

/// Index of the highest rung for which `passes` holds, found by bisection
/// (the search assumes a rung passes whenever a higher one does). Returns
/// -1 when even the lowest rung fails. Deterministic: the same predicate
/// probes the same rungs in the same order.
template <typename Pred>
int HighestPassing(size_t rungs, Pred passes) {
  int lo = -1;  // highest index known to pass
  int hi = static_cast<int>(rungs);  // lowest index known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(static_cast<size_t>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// A ratio reported with its base: value = num / den, and the text names
/// both, so a reader can tell 0 hits of 0 probes from 0 of 10,000.
struct Ratio {
  double num = 0;
  double den = 0;
  const char* num_label = "";
  const char* den_label = "";

  /// num / den, or 0 when the base is empty.
  double Value() const { return den == 0 ? 0.0 : num / den; }
  /// "(<num> <num_label> / <den> <den_label>)", or "(no <den_label>)".
  std::string Base() const;
};

inline std::string Ratio::Base() const {
  auto fmt = [](double x) {
    char buf[64];
    if (x == std::floor(x) && std::fabs(x) < 1e15) {
      std::snprintf(buf, sizeof(buf), "%.0f", x);
    } else {
      std::snprintf(buf, sizeof(buf), "%.6g", x);
    }
    return std::string(buf);
  };
  if (den == 0) return std::string("(no ") + den_label + ")";
  return "(" + fmt(num) + " " + num_label + " / " + fmt(den) + " " +
         den_label + ")";
}

}  // namespace perfbench
