#include "gates.h"

namespace perfbench {

using mm::query::QueryCompletion;

void Gates::Check(const std::string& name, bool ok,
                  const std::string& detail) {
  if (ok) {
    std::printf("gate %-36s pass  %s\n", name.c_str(), detail.c_str());
    return;
  }
  ++failures_;
  std::printf("GATE FAILED %s: %s\n", name.c_str(), detail.c_str());
  std::fprintf(stderr, "GATE FAILED %s: %s\n", name.c_str(), detail.c_str());
}

void Gates::FailQuery(uint64_t id) {
  if (id < failed_.size()) {
    failed_[id] = 1;
  } else {
    ++stray_;
  }
}

uint64_t Gates::failed_queries() const {
  uint64_t n = stray_;
  for (uint8_t f : failed_) n += f;
  return n;
}

void CheckCompletions(Gates& g, const std::string& pass, const RunOutput& r) {
  const size_t n = g.queries();
  std::vector<uint32_t> seen(n, 0);
  uint64_t bad = 0;
  for (const QueryCompletion& c : r.completions) {
    if (c.query >= n) {
      g.FailQuery(c.query);
      ++bad;
      continue;
    }
    ++seen[c.query];
    if (c.failed) {
      g.FailQuery(c.query);
      ++bad;
    }
  }
  uint64_t not_once = 0;
  for (size_t q = 0; q < n; ++q) {
    if (seen[q] != 1) {
      g.FailQuery(q);
      ++not_once;
    }
  }
  g.Check(pass + ".exactly_once", not_once == 0 && bad == 0,
          std::to_string(n - not_once) + " of " + std::to_string(n) +
              " ids completed exactly once, " + std::to_string(bad) +
              " failed or unknown");
  const mm::query::LatencyStats& s = r.stats;
  const size_t done = s.count();
  const bool sums = s.hit.count() + s.miss.count() == done &&
                    s.clean.count() + s.degraded.count() == done &&
                    done + s.failed == n;
  g.Check(pass + ".splits_sum", sums,
          "hit " + std::to_string(s.hit.count()) + " + miss " +
              std::to_string(s.miss.count()) + ", clean " +
              std::to_string(s.clean.count()) + " + degraded " +
              std::to_string(s.degraded.count()) + ", completed " +
              std::to_string(done));
}

void CheckSectors(Gates& g, const std::string& pass, const RunOutput& r,
                  const mm::query::BatchPlan& plan) {
  const size_t n = g.queries();
  std::vector<uint64_t> planned(n, 0);
  for (size_t q = 0; q < n && q + 1 < plan.offsets.size(); ++q) {
    for (size_t i = plan.offsets[q]; i < plan.offsets[q + 1]; ++i) {
      planned[q] += plan.requests[i].sectors;
    }
  }
  uint64_t mismatched = 0, planned_total = 0, served_total = 0;
  for (uint64_t p : planned) planned_total += p;
  for (const QueryCompletion& c : r.completions) {
    const uint64_t served = c.resident_sectors + c.submitted_sectors;
    served_total += served;
    if (c.query >= n || served != planned[c.query]) {
      g.FailQuery(c.query);
      ++mismatched;
    }
  }
  g.Check(pass + ".sectors_conserved",
          mismatched == 0 && served_total == planned_total &&
              served_total ==
                  r.stats.resident_sectors + r.stats.submitted_sectors,
          "resident " + std::to_string(r.stats.resident_sectors) +
              " + submitted " + std::to_string(r.stats.submitted_sectors) +
              " vs planned " + std::to_string(planned_total) + ", " +
              std::to_string(mismatched) + " queries differ");
}

namespace {

bool SameRecord(const QueryCompletion& a, const QueryCompletion& b) {
  return a.query == b.query && a.arrival_ms == b.arrival_ms &&
         a.start_ms == b.start_ms && a.finish_ms == b.finish_ms &&
         a.retries == b.retries && a.redirects == b.redirects &&
         a.failed == b.failed && a.resident_sectors == b.resident_sectors &&
         a.submitted_sectors == b.submitted_sectors;
}

bool SameSamples(const mm::RunningStats& a, const mm::RunningStats& b) {
  if (a.count() != b.count()) return false;
  for (size_t i = 0; i < a.count(); ++i) {
    if (a.sample(i) != b.sample(i)) return false;
  }
  return true;
}

}  // namespace

void CheckSameRun(Gates& g, const std::string& name, const RunOutput& a,
                  const RunOutput& b) {
  const size_t n = g.queries();
  std::vector<const QueryCompletion*> by_id_a(n, nullptr), by_id_b(n, nullptr);
  for (const QueryCompletion& c : a.completions) {
    if (c.query < n) by_id_a[c.query] = &c;
  }
  for (const QueryCompletion& c : b.completions) {
    if (c.query < n) by_id_b[c.query] = &c;
  }
  uint64_t differ = 0;
  for (size_t q = 0; q < n; ++q) {
    const bool same = by_id_a[q] != nullptr && by_id_b[q] != nullptr &&
                      SameRecord(*by_id_a[q], *by_id_b[q]);
    if (!same) {
      g.FailQuery(q);
      ++differ;
    }
  }
  const mm::query::LatencyStats& x = a.stats;
  const mm::query::LatencyStats& y = b.stats;
  const bool stats_same =
      SameSamples(x.latency, y.latency) && SameSamples(x.queueing, y.queueing) &&
      SameSamples(x.service, y.service) && x.makespan_ms == y.makespan_ms &&
      x.failed == y.failed && x.resident_sectors == y.resident_sectors &&
      x.submitted_sectors == y.submitted_sectors;
  g.Check(name, differ == 0 && stats_same,
          std::to_string(differ) + " of " + std::to_string(n) +
              " records differ; latency stats " +
              (stats_same ? "identical" : "differ"));
}

void CheckSameDiskStats(Gates& g, const std::string& name,
                        const mm::disk::DiskStats& a,
                        const mm::disk::DiskStats& b) {
  const bool same =
      a.requests == b.requests && a.sectors == b.sectors &&
      a.phases.overhead_ms == b.phases.overhead_ms &&
      a.phases.seek_ms == b.phases.seek_ms &&
      a.phases.rot_ms == b.phases.rot_ms &&
      a.phases.xfer_ms == b.phases.xfer_ms && a.seeks == b.seeks &&
      a.settle_seeks == b.settle_seeks && a.head_switches == b.head_switches &&
      a.track_switches == b.track_switches && a.buffer_hits == b.buffer_hits &&
      a.buffered_sectors == b.buffered_sectors &&
      a.max_queue_ms == b.max_queue_ms && a.aged_picks == b.aged_picks &&
      a.order_holds == b.order_holds && a.media_errors == b.media_errors &&
      a.io_timeouts == b.io_timeouts && a.failed_fast == b.failed_fast &&
      a.slow_penalty_ms == b.slow_penalty_ms;
  g.Check(name, same,
          std::to_string(a.requests) + " vs " + std::to_string(b.requests) +
              " requests, busy " + std::to_string(a.phases.Total()) +
              " vs " + std::to_string(b.phases.Total()) + " ms");
}

}  // namespace perfbench
