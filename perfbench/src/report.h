// Metric output: one line per metric for people, and the single JSON
// result line the benchmark ends with.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_math.h"

namespace perfbench {

/// JSON string literal body for `s` (quotes, backslashes and control
/// characters escaped).
std::string JsonEscape(const std::string& s);

/// A JSON number with every significant digit (%.17g), so the value read
/// back is the double that was measured. Non-finite values become null.
std::string JsonNumber(double v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< Base of a ratio, sample counts, or why it is 0.
};

/// The metrics of one run, in the order they were added.
class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "");
  /// A ratio metric (unit "ratio"); the note carries its base.
  void AddRatio(std::string name, const Ratio& r, std::string extra = "");

  /// "metric <name> = <value> <unit>  <note>" lines.
  void Print(std::FILE* out) const;

  /// The result object: exactly the keys correct, attempted, failed and
  /// metrics, each metric as {"value": v, "unit": u}. One line, no
  /// trailing newline.
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
