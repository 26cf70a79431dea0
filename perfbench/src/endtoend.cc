// The untraced end-to-end pass and the capacity ladder.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_math.h"
#include "host_time.h"
#include "passes.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Upper bound on measured runs, whatever --seconds says.
constexpr int kMaxRuns = 500;
constexpr int kMinRuns = 3;

std::vector<double> Samples(const mm::RunningStats& s) {
  std::vector<double> v(s.count());
  for (size_t i = 0; i < s.count(); ++i) v[i] = s.sample(i);
  return v;
}

// Queueing delay of every completed query in arrival (= query id) order.
std::vector<double> QueueByArrival(const RunOutput& r, size_t n) {
  std::vector<double> q(n, 0.0);
  for (const mm::query::QueryCompletion& c : r.completions) {
    if (c.query < n) q[c.query] = c.QueueMs();
  }
  return q;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void RunFailed(const char* what, const mm::Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

// The highest ladder rate whose p99 (over volume-reading queries) meets
// the workload's limit without a growing backlog. Runs outside host
// timing; each rung is one full simulated run of the workload.
double CapacityQps(Fixture& fx, Gates& gates) {
  const WorkloadSpec& spec = *fx.spec;
  const std::vector<double> rates =
      RateLadder(spec.ladder_lo, spec.ladder_hi, spec.ladder_step);
  const int best = HighestPassing(rates.size(), [&](size_t i) {
    auto r = RunWorkload(fx, RunOptions{.rate_qps = rates[i]});
    if (!r.ok()) RunFailed("capacity ladder run", r.status());
    const Tail p99 = TailAt(Samples(r->stats.miss), 99);
    const bool backlog = BacklogGrows(QueueByArrival(*r, spec.queries),
                                      r->stats.service.Mean());
    const bool pass = r->stats.failed == 0 && p99.value <= spec.p99_limit_ms &&
                      !backlog;
    std::printf("ladder rate %.4g qps: sim_p99 %.6g ms (limit %.6g), "
                "backlog %s -> %s\n",
                rates[i], p99.value, spec.p99_limit_ms,
                backlog ? "grows" : "steady", pass ? "meets" : "misses");
    return pass;
  });
  const bool inside = best >= 0 && best + 1 < static_cast<int>(rates.size());
  gates.Check("capacity.within_ladder", inside,
              "highest passing rung " + std::to_string(best) + " of " +
                  std::to_string(rates.size()) + " (" +
                  std::to_string(spec.ladder_lo) + ".." +
                  std::to_string(spec.ladder_hi) + " qps)");
  return best >= 0 ? rates[best] : 0.0;
}

}  // namespace

void MeasureEndToEnd(Fixture& fx, double seconds, Report& report,
                     Gates& gates) {
  const WorkloadSpec& spec = *fx.spec;
  const size_t n = spec.queries;
  mm::query::BatchPlan plan;
  fx.executor->PlanBatch(fx.boxes, &plan);

  Calibration calibration;
  std::vector<double> host_s, raw_s;
  RunOutput first;
  const auto start = Clock::now();
  for (int run = 0; run < kMaxRuns; ++run) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (run >= kMinRuns && elapsed >= seconds) break;
    const double before = calibration.Measure();
    auto r = RunWorkload(fx, RunOptions{});
    const double after = calibration.Measure();
    if (!r.ok()) RunFailed("measured run", r.status());
    host_s.push_back(Calibration::Calibrated(r->host_s, before, after));
    raw_s.push_back(r->host_s);
    if (run == 0) {
      first = std::move(r).value();
      CheckCompletions(gates, "measured", first);
      CheckSectors(gates, "measured", first, plan);
    } else if (run == kMinRuns - 1) {
      CheckSameRun(gates, "measured.runs_identical", first, *r);
    }
  }

  const std::vector<double> all = Samples(first.stats.latency);
  const std::vector<double> volume = Samples(first.stats.miss);
  const Tail p99 = TailAt(volume, 99);
  gates.Check("sim_p99.ten_beyond", p99.Supported(),
              std::to_string(p99.beyond) + " of " +
                  std::to_string(p99.samples) + " samples beyond p99");
  // A closed loop has no offered rate to raise: its capacity is the rate
  // at which the client is served.
  const double capacity = spec.open_loop() ? CapacityQps(fx, gates)
                                           : first.stats.ThroughputQps();

  char note[256];
  std::snprintf(note, sizeof(note),
                "%zu runs of %zu queries: first-quartile run %.6g calibrated "
                "s (raw CPU: first quartile %.6g s, median %.6g s)",
                host_s.size(), n, HostSeconds(host_s), HostSeconds(raw_s),
                Median(raw_s));
  report.Add("host_qps", static_cast<double>(n) / HostSeconds(host_s),
             "queries/s", note);
  report.Add("host_peak_rss_mb", PeakRssMiB(), "MiB", "getrusage ru_maxrss");
  std::snprintf(note, sizeof(note),
                "over %zu volume-reading queries of %zu (all-query p50 %.6g)",
                volume.size(), all.size(), Percentile(all, 50));
  report.Add("sim_p50_ms", Percentile(volume, 50), "ms", note);
  std::snprintf(note, sizeof(note),
                "over %zu samples, %zu beyond (all-query p99 %.6g)",
                p99.samples, p99.beyond, Percentile(all, 99));
  report.Add("sim_p99_ms", p99.value, "ms", note);
  std::snprintf(note, sizeof(note), "%zu completed / makespan %.6g ms",
                first.stats.count(), first.stats.makespan_ms);
  report.Add("sim_qps", first.stats.ThroughputQps(), "queries/s", note);
  if (spec.open_loop()) {
    std::snprintf(note, sizeof(note),
                  "highest ladder rate with sim_p99 <= %.6g ms, no backlog",
                  spec.p99_limit_ms);
  } else {
    std::snprintf(note, sizeof(note), "closed loop: equals sim_qps");
  }
  report.Add("sim_capacity_qps", capacity, "queries/s", note);
}

}  // namespace perfbench
