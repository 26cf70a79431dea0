// The two measurement passes. The end-to-end pass runs the workload with
// tracing off; the layer pass (--trace 1) runs it traced and times each
// layer's public calls from here, recording host spans around them.
#pragma once

#include <string>

#include "fixture.h"
#include "gates.h"
#include "report.h"

namespace perfbench {

/// Untraced pass: repeated Session/ClusterSession runs for `seconds`
/// (at least three), then the capacity ladder outside host timing. Adds
/// every end-to-end metric except setup_s.
void MeasureEndToEnd(Fixture& fx, double seconds, Report& report,
                     Gates& gates);

/// Traced pass: per-layer metrics, the traced-vs-untraced and
/// reference-path gates, and the Perfetto trace written to `trace_path`
/// (simulated spans under the session or shard pids, host spans under a
/// separate "host" pid). `fingerprint_json` is stored in the trace.
void MeasureLayers(Fixture& fx, double seconds, const std::string& trace_path,
                   const std::string& fingerprint_json, Report& report,
                   Gates& gates);

}  // namespace perfbench
