// Correctness gates. Each gate has a name, passes or fails with a detail
// line, and marks the queries it finds wrong; those count toward the
// result's `failed` (and failed_frac). A run with any failed gate prints
// its result with "correct": false and exits non-zero.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "disk/disk.h"
#include "fixture.h"
#include "query/executor.h"

namespace perfbench {

class Gates {
 public:
  explicit Gates(size_t queries) : failed_(queries, 0) {}

  /// Records a gate outcome; prints it.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Marks query `id` failed (ids outside the workload count once each).
  void FailQuery(uint64_t id);

  bool ok() const { return failures_ == 0; }
  uint64_t failed_queries() const;
  size_t queries() const { return failed_.size(); }

 private:
  std::vector<uint8_t> failed_;
  uint64_t stray_ = 0;  // failures attributed to no valid query id
  int failures_ = 0;
};

/// Each query id completes exactly once and none failed; hit+miss and
/// clean+degraded each sum to the completed count.
void CheckCompletions(Gates& g, const std::string& pass, const RunOutput& r);

/// Per query: resident + submitted sectors equal the sectors of its plan
/// in the standalone PlanBatch `plan`.
void CheckSectors(Gates& g, const std::string& pass, const RunOutput& r,
                  const mm::query::BatchPlan& plan);

/// Two runs produced identical results: every completion record (by
/// query id) and every latency, queueing and service sample.
void CheckSameRun(Gates& g, const std::string& name, const RunOutput& a,
                  const RunOutput& b);

/// Two disks accumulated identical statistics.
void CheckSameDiskStats(Gates& g, const std::string& name,
                        const mm::disk::DiskStats& a,
                        const mm::disk::DiskStats& b);

}  // namespace perfbench
