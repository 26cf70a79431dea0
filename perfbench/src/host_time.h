// Host time, and the host-time spans the benchmark records around the
// public calls it times. The library itself is not instrumented: every
// span here wraps a call made from the benchmark's own files. Spans nest
// through an explicit stack (a span's parent is the innermost span open
// when it began) and are kept in memory until the trace file is written.
#pragma once

#include <time.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Host time: CPU seconds consumed by the whole process, all threads.
/// On a shared machine this leaves out the time the process waited for a
/// core, which wall-clock time would add as noise; on cluster_open it sums
/// the simulator threads, so parallel speed-up is not counted as less work.
inline double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A fixed reference computation, timed right before and after every
/// measured interval. The machine's speed drifts by a quarter or more
/// within minutes on a shared host, and the drift hits the simulator and
/// this block alike, so dividing by the block's time cancels much of it.
/// Calibrated() expresses an interval in "calibrated seconds": CPU
/// seconds times kNominalS over the block's measured time.
class Calibration {
 public:
  /// Nominal duration of one block: about its CPU time on the
  /// fingerprinted 4-core Xeon when that machine is least loaded.
  static constexpr double kNominalS = 0.004;

  Calibration() : table_(size_t{1} << 21, 0) {}

  /// Runs the block once (random read-modify-writes over a 16 MiB table)
  /// and returns its CPU seconds.
  double Measure() {
    const double t0 = CpuSeconds();
    for (int i = 0; i < 300000; ++i) {
      state_ ^= state_ << 13;
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
      ++table_[state_ & (table_.size() - 1)];
    }
    return CpuSeconds() - t0;
  }

  /// `cpu_s` measured between two blocks that took `before_s`, `after_s`.
  static double Calibrated(double cpu_s, double before_s, double after_s) {
    return cpu_s * kNominalS / (0.5 * (before_s + after_s));
  }

 private:
  std::vector<uint64_t> table_;
  uint64_t state_ = 88172645463325252ull;
};

class HostSpans {
 public:
  static constexpr uint64_t kNoQuery = UINT64_MAX;
  static constexpr uint64_t kNoParent = 0;

  struct Span {
    uint64_t id = 0;      ///< 1-based; 0 is "no parent".
    uint64_t parent = kNoParent;
    const char* name = "";  ///< A string literal.
    uint64_t query = kNoQuery;
    uint64_t items = 0;   ///< Calls, queries or requests the span covers.
    double start_us = 0;  ///< Host CPU microseconds since the recorder began.
    double end_us = -1;   ///< -1 while the span is open.
    double Seconds() const { return (end_us - start_us) * 1e-6; }
  };

  HostSpans() : origin_s_(CpuSeconds()) {}

  /// Opens a span; returns its id for End().
  uint64_t Begin(const char* name, uint64_t query = kNoQuery) {
    Span s;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.name = name;
    s.query = query;
    s.start_us = NowUs();
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
  }

  /// Closes the innermost open span, which must be `id`; returns its
  /// duration in seconds.
  double End(uint64_t id, uint64_t items = 0) {
    Span& s = spans_[id - 1];
    s.end_us = NowUs();
    s.items = items;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
    return s.Seconds();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event lines (no surrounding array) for every closed
  /// span, on process `pid` named "host", thread 0.
  std::string ChromeEvents(uint32_t pid) const;

 private:
  double NowUs() const { return (CpuSeconds() - origin_s_) * 1e6; }

  double origin_s_;
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;
};

inline std::string HostSpans::ChromeEvents(uint32_t pid) const {
  const std::string p = std::to_string(pid);
  std::string out = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + p +
                    ",\"tid\":0,\"args\":{\"name\":\"host\"}}";
  out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" + p +
         ",\"tid\":0,\"args\":{\"name\":\"benchmark\"}}";
  char buf[512];
  for (const Span& s : spans_) {
    if (s.end_us < 0) continue;  // never closed
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":0,\"args\":{"
                  "\"span\":%llu,\"parent\":%llu,\"items\":%llu",
                  s.name, s.start_us, s.end_us - s.start_us, pid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.items));
    out += buf;
    if (s.query != kNoQuery) out += ",\"query\":" + std::to_string(s.query);
    out += "}}";
  }
  return out;
}

}  // namespace perfbench
