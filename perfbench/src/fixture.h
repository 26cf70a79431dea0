// The four workloads: what each one builds (volume, mapping, executor,
// buffer pool or cluster), the inputs it generates from the seed, and one
// simulated run of it through the library's public session API.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/buffer_pool.h"
#include "core/multimap.h"
#include "disk/spec.h"
#include "lvm/cluster.h"
#include "lvm/volume.h"
#include "mapping/mapping.h"
#include "query/cluster_session.h"
#include "query/executor.h"
#include "query/session.h"
#include "util/result.h"

namespace mm::obs {
class TraceSink;
}  // namespace mm::obs

namespace perfbench {

class HostSpans;

enum class Kind { kBeamOpen, kRangeClosed, kPointCacheOpen, kClusterOpen };

/// Fixed parameters of a workload. Sizes are chosen so that the p99 of
/// every run has at least ten samples beyond it.
struct WorkloadSpec {
  const char* name = "";
  Kind kind = Kind::kBeamOpen;
  /// Queries per simulated run.
  size_t queries = 0;
  /// Open-loop Poisson arrival rate; 0 for the closed-loop workload.
  double rate_qps = 0;
  /// Open-loop only: the latency limit on sim_p99_ms behind
  /// sim_capacity_qps, and the ladder of rates searched for it (geometric,
  /// lo to hi by step).
  double p99_limit_ms = 0;
  double ladder_lo = 0, ladder_hi = 0, ladder_step = 0;
  /// Trace every n-th query in the traced pass (chosen so that the trace
  /// ring never drops an event).
  uint64_t trace_sample_period = 1;

  bool open_loop() const { return rate_qps > 0; }
  bool cached() const { return kind == Kind::kPointCacheOpen; }
};

const std::vector<WorkloadSpec>& Workloads();
/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Everything set-up builds for one workload and seed.
struct Fixture {
  const WorkloadSpec* spec = nullptr;
  mm::disk::DiskSpec disk_spec;  ///< Every member disk's model.
  mm::map::GridShape shape;
  std::unique_ptr<mm::lvm::Volume> volume;         ///< Single-volume kinds.
  std::unique_ptr<mm::lvm::ClusterVolume> cluster;  ///< cluster_open.
  std::unique_ptr<mm::map::Mapping> mapping;
  /// The mapping as MultiMap (beam_open, range_closed), else null.
  const mm::core::MultiMapMapping* multimap = nullptr;
  std::unique_ptr<mm::query::Executor> executor;
  std::unique_ptr<mm::cache::BufferPool> pool;  ///< point_cache_open.
  /// Session configuration: queue policy, pool, cluster threads.
  mm::query::ClusterConfig config;
  std::vector<mm::map::Box> boxes;
  /// Boxes that warm the pool before every measured run (hot band scan).
  std::vector<mm::map::Box> warm_boxes;
  /// Unit-mean exponential gaps: arrivals at rate r are the running sums
  /// scaled by 1000 / r ms, so every ladder rung sees the same pattern.
  std::vector<double> unit_gaps;

  /// Open-loop arrival instants at `rate_qps`.
  std::vector<double> ArrivalsMs(double rate_qps) const;
  /// Member disks of the volume, or of every shard in shard order.
  size_t disk_count() const;
  mm::disk::Disk& disk(size_t i);
};

/// Builds the workload's fixture from `seed`, warming the pool if any.
/// Exits the process with a message on failure (set-up errors are bugs).
std::unique_ptr<Fixture> BuildFixture(const WorkloadSpec& spec,
                                      uint64_t seed);

/// Empties the buffer pool and replays the warm-up boxes through it, so
/// every measured run starts from the same residency. No-op without a
/// pool.
mm::Status WarmPool(Fixture& fx);

struct RunOptions {
  /// Open-loop rate override (capacity ladder); 0 = the workload's own
  /// arrival process.
  double rate_qps = 0;
  mm::obs::TraceSink* trace = nullptr;
  /// ClusterSession threads override; 0 = the workload's default.
  uint32_t threads = 0;
  /// When set, the timed Run call is also recorded as a host span.
  HostSpans* spans = nullptr;
  const char* span_name = "session.Run";
};

/// One simulated run and what it cost the host.
struct RunOutput {
  mm::query::LatencyStats stats;
  /// Completion records, in completion order (Session) or query-id order
  /// (ClusterSession).
  std::vector<mm::query::QueryCompletion> completions;
  uint64_t events = 0;
  /// Host seconds of the timed Run call alone (not the pool re-warm).
  double host_s = 0;
  /// Buffer-pool activity of the timed run alone (point_cache_open).
  mm::cache::BufferPoolStats pool;
};

/// Runs the workload once from a clean state: member disks reset by the
/// session, and on point_cache_open the pool cleared and re-warmed first
/// (untimed).
mm::Result<RunOutput> RunWorkload(Fixture& fx, const RunOptions& options);

}  // namespace perfbench
