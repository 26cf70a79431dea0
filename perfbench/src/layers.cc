// The traced layer pass. Every host number below is the duration of a
// span the benchmark records around calls into one layer's public API;
// the library itself carries no host timers.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.h"
#include "host_time.h"
#include "model/analytical.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "passes.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using mm::query::PlannedQuery;

// Exported pid of the host spans: clear of the session (0) and shard pids.
constexpr uint32_t kHostPid = 1000000;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;

[[noreturn]] void RunFailed(const char* what, const mm::Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

// Loops `body` over [0, n) inside one span named `loop`; every
// `period`-th call also gets its own child span named `call`, carrying
// the query id. Returns the loop's host seconds.
template <typename F>
double TimedLoop(HostSpans& spans, const char* loop, const char* call,
                 size_t n, uint64_t period, F&& body) {
  const uint64_t id = spans.Begin(loop);
  for (size_t i = 0; i < n; ++i) {
    if (i % period == 0) {
      const uint64_t c = spans.Begin(call, i);
      body(i);
      spans.End(c, 1);
    } else {
      body(i);
    }
  }
  return spans.End(id, n);
}

// The pre-planned form of the workload: each query's standalone plan at
// the arrival instant its untraced run recorded.
std::vector<PlannedQuery> PlannedFrom(const mm::query::BatchPlan& plan,
                                      const RunOutput& run, size_t n) {
  std::vector<PlannedQuery> out(n);
  for (size_t q = 0; q < n; ++q) {
    out[q].id = q;
    out[q].requests.assign(plan.requests.begin() + plan.offsets[q],
                           plan.requests.begin() + plan.offsets[q + 1]);
  }
  for (const mm::query::QueryCompletion& c : run.completions) {
    if (c.query < n) out[c.query].arrival_ms = c.arrival_ms;
  }
  return out;
}

// Drives one disk through the queued interface exactly as Session does
// for an arrival-ordered pre-planned stream on a single-disk volume: at
// each arrival every request of the query is submitted (order group =
// query index + 1), and whenever the disk is free the next queued request
// is serviced. Arrivals at the instant a service completes are submitted
// first, as the session's event order has them.
void ReplayOnDisk(mm::disk::Disk& disk, const mm::disk::BatchOptions& queue,
                  const std::vector<PlannedQuery>& queries) {
  disk.Reset();
  disk.ConfigureQueue(queue);
  bool busy = false;
  double free_at = 0;
  auto pump = [&] {
    if (busy || disk.QueueIdle()) return;
    auto ev = disk.ServiceNextQueued();
    if (!ev.ok()) RunFailed("disk replay", ev.status());
    busy = true;
    free_at = ev->completion.end_ms;
  };
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const double t = queries[qi].arrival_ms;
    while (busy && free_at < t) {
      busy = false;
      pump();
    }
    for (mm::disk::IoRequest r : queries[qi].requests) {
      r.order_group = qi + 1;
      disk.Submit(r, t);
    }
    pump();
  }
  while (busy) {
    busy = false;
    pump();
  }
}

mm::disk::DiskStats Sum(const std::vector<mm::disk::DiskStats>& all,
                        double* max_queue_ms) {
  mm::disk::DiskStats s;
  *max_queue_ms = 0;
  for (const mm::disk::DiskStats& d : all) {
    s.requests += d.requests;
    s.sectors += d.sectors;
    s.phases += d.phases;
    s.buffer_hits += d.buffer_hits;
    *max_queue_ms = std::max(*max_queue_ms, d.max_queue_ms);
  }
  return s;
}

std::vector<mm::disk::DiskStats> DiskStatsOf(Fixture& fx) {
  std::vector<mm::disk::DiskStats> out;
  for (size_t d = 0; d < fx.disk_count(); ++d) {
    out.push_back(fx.disk(d).stats());
  }
  return out;
}

// Host seconds of every pass, one entry per repetition.
struct RepTimes {
  std::vector<double> run, traced, core, plan, filtered, exec, replay, route;

  std::vector<std::vector<double>*> All() {
    return {&run, &traced, &core, &plan, &filtered, &exec, &replay, &route};
  }
};

// Host nanoseconds per item, or 0 when nothing was timed.
double NsPer(const std::vector<double>& secs, double items) {
  return secs.empty() || items <= 0 ? 0.0 : HostSeconds(secs) / items * 1e9;
}

// Inserts the host spans and the run's fingerprint into the exported
// Chrome trace document.
std::string MergeTrace(std::string sim, const HostSpans& spans,
                       const std::string& fingerprint_json) {
  const std::string tail = "],\"displayTimeUnit\"";
  const size_t at = sim.rfind(tail);
  if (at == std::string::npos) return sim;
  const bool empty = sim.compare(at - 1, 1, "[") == 0;
  sim.insert(at, (empty ? "\n" : ",\n") + spans.ChromeEvents(kHostPid) + "\n");
  const size_t end = sim.rfind('}');
  sim.insert(end, ",\"metadata\":" + fingerprint_json);
  return sim;
}

// Shard-local query slices, one list per volume (a single list off the
// cluster), in the shape ClusterSession hands its shard sessions.
using Work = std::vector<std::vector<PlannedQuery>>;

// The traced layer pass: repetitions of every timed loop, then metrics.
class LayerPass {
 public:
  LayerPass(Fixture& fx, Gates& gates)
      : fx_(fx),
        spec_(*fx.spec),
        gates_(gates),
        n_(spec_.queries),
        replay_disk_(fx.disk_spec) {}

  void Run(double seconds);
  void AddMetrics(Report& report) const;
  void WriteTrace(const std::string& path, const std::string& fingerprint);

 private:
  void Repetition(int rep);
  void SessionRuns(int rep);
  void PlanLoops(int rep);
  Work Route(const std::vector<PlannedQuery>& planned);
  void Execute(int rep, const Work& work);
  void Replay(int rep, const Work& work);
  void ModelError();

  double Nq() const { return static_cast<double>(n_); }
  bool clustered() const { return fx_.cluster != nullptr; }

  Fixture& fx_;
  const WorkloadSpec& spec_;
  Gates& gates_;
  const size_t n_;
  HostSpans spans_;
  Calibration calibration_;
  mm::disk::Disk replay_disk_;
  mm::query::BatchPlan batch_;  // standalone PlanBatch, no sector filter
  uint64_t planned_sectors_ = 0;
  uint64_t call_period_ = 1;    // per-call spans: sampled queries, rep 0

  RepTimes t_;
  RunOutput untraced_;  // first repetition's untraced run
  std::vector<mm::disk::DiskStats> session_disks_;
  std::unique_ptr<mm::obs::TraceSink> sink_;  // last traced run
  uint64_t exec_events_ = 0;
  uint64_t total_runs_ = 0;
  uint64_t routed_pieces_ = 0;
  mm::query::Executor::PlanCacheStats cache_delta_;
  double model_err_pct_ = 0;
};

void LayerPass::Run(double seconds) {
  const uint64_t root = spans_.Begin("traced_pass");
  {
    const uint64_t s = spans_.Begin("query.PlanBatch");
    fx_.executor->PlanBatch(fx_.boxes, &batch_);
    spans_.End(s, n_);
  }
  for (const mm::disk::IoRequest& r : batch_.requests) {
    planned_sectors_ += r.sectors;
  }
  const auto start = Clock::now();
  for (int rep = 0; rep < kMaxReps; ++rep) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (rep >= kMinReps && elapsed >= seconds) break;
    std::vector<size_t> rep_start;
    for (const std::vector<double>* v : t_.All()) rep_start.push_back(v->size());
    const double before = calibration_.Measure();
    Repetition(rep);
    // Express this repetition's host times in calibrated seconds.
    const double scale =
        Calibration::Calibrated(1.0, before, calibration_.Measure());
    std::vector<std::vector<double>*> all = t_.All();
    for (size_t k = 0; k < all.size(); ++k) {
      for (size_t i = rep_start[k]; i < all[k]->size(); ++i) {
        (*all[k])[i] *= scale;
      }
    }
  }
  if (spec_.kind == Kind::kRangeClosed) ModelError();
  spans_.End(root);
}

void LayerPass::Repetition(int rep) {
  const uint64_t span = spans_.Begin("repetition");
  // Per-call host spans for the sampled queries of the first repetition
  // only; later repetitions record one span per loop.
  call_period_ = rep == 0 ? spec_.trace_sample_period : UINT64_MAX;
  SessionRuns(rep);
  PlanLoops(rep);
  const std::vector<PlannedQuery> planned = PlannedFrom(batch_, untraced_, n_);
  const Work work = clustered() ? Route(planned) : Work{planned};
  Execute(rep, work);
  // The single-disk replay needs the session's submitted stream to be the
  // standalone plan; a buffer pool splits it.
  if (!spec_.cached()) Replay(rep, work);
  if (clustered() && rep == 0) {
    auto one = RunWorkload(fx_, RunOptions{.threads = 1, .spans = &spans_,
                                           .span_name = "cluster.Run.1thread"});
    if (!one.ok()) RunFailed("1-thread cluster run", one.status());
    CheckSameRun(gates_,
                 "cluster_" + std::to_string(fx_.config.threads) +
                     "_threads_equal_1",
                 untraced_, *one);
  }
  spans_.End(span);
}

// Untraced and traced runs, alternating which goes first.
void LayerPass::SessionRuns(int rep) {
  const char* run_name = clustered() ? "cluster.Run" : "session.Run";
  const char* traced_name =
      clustered() ? "cluster.Run.traced" : "session.Run.traced";
  RunOutput plain, traced;
  auto run_plain = [&] {
    auto r = RunWorkload(fx_, RunOptions{.spans = &spans_,
                                         .span_name = run_name});
    if (!r.ok()) RunFailed("untraced run", r.status());
    plain = std::move(r).value();
    if (rep == 0) session_disks_ = DiskStatsOf(fx_);
  };
  auto run_traced = [&] {
    sink_ = std::make_unique<mm::obs::TraceSink>(mm::obs::TraceOptions{
        .capacity = size_t{1} << 20,
        .sample_period = spec_.trace_sample_period});
    auto r = RunWorkload(fx_, RunOptions{.trace = sink_.get(),
                                         .spans = &spans_,
                                         .span_name = traced_name});
    if (!r.ok()) RunFailed("traced run", r.status());
    traced = std::move(r).value();
  };
  if (rep % 2 == 0) {
    run_plain();
    run_traced();
  } else {
    run_traced();
    run_plain();
  }
  t_.run.push_back(plain.host_s);
  t_.traced.push_back(traced.host_s);
  if (rep == 0) {
    CheckCompletions(gates_, "traced", traced);
    CheckSectors(gates_, "traced", traced, batch_);
    CheckSameRun(gates_, "traced_equals_untraced", plain, traced);
    untraced_ = std::move(plain);
  }
}

// core and query: the mapping's LBN runs, then per-box planning as the
// session does at each arrival; with a pool, planning again through its
// residency filter.
void LayerPass::PlanLoops(int rep) {
  std::vector<mm::map::LbnRun> runs;
  uint64_t run_count = 0;
  t_.core.push_back(TimedLoop(spans_, "core.AppendRunsForBox",
                              "core.AppendRunsForBox.query", n_, call_period_,
                              [&](size_t i) {
                                runs.clear();
                                fx_.mapping->AppendRunsForBox(fx_.boxes[i],
                                                              &runs);
                                run_count += runs.size();
                              }));
  total_runs_ = run_count;

  mm::query::QueryPlan plan;
  const auto before = fx_.executor->plan_cache_stats();
  t_.plan.push_back(TimedLoop(spans_, "query.PlanInto", "query.PlanInto.query",
                              n_, call_period_, [&](size_t i) {
                                fx_.executor->PlanInto(fx_.boxes[i], &plan);
                              }));
  if (rep == 0) {
    const auto after = fx_.executor->plan_cache_stats();
    cache_delta_.probes = after.probes - before.probes;
    cache_delta_.hits = after.hits - before.hits;
  }
  if (fx_.pool != nullptr) {
    fx_.executor->AddSectorFilter(&fx_.pool->filter());
    t_.filtered.push_back(TimedLoop(
        spans_, "cache.PlanInto.filtered", "cache.PlanInto.filtered.query",
        n_, call_period_,
        [&](size_t i) { fx_.executor->PlanInto(fx_.boxes[i], &plan); }));
    fx_.executor->RemoveSectorFilter(&fx_.pool->filter());
  }
}

// lvm: routes every planned request to its shard pieces (the timed part,
// as the cluster session's caller thread does), then groups the pieces
// into per-shard query slices in query order.
Work LayerPass::Route(const std::vector<PlannedQuery>& planned) {
  std::vector<mm::lvm::ShardRequest> pieces;
  std::vector<size_t> first_piece(batch_.requests.size() + 1, 0);
  const uint64_t s = spans_.Begin("lvm.Route");
  for (size_t r = 0; r < batch_.requests.size(); ++r) {
    first_piece[r] = pieces.size();
    const mm::Status st = fx_.cluster->Route(batch_.requests[r], &pieces);
    if (!st.ok()) RunFailed("ClusterVolume::Route", st);
  }
  t_.route.push_back(spans_.End(s, batch_.requests.size()));
  first_piece.back() = pieces.size();
  routed_pieces_ = pieces.size();

  Work work(fx_.cluster->shard_count());
  std::vector<size_t> slice(work.size());
  for (size_t q = 0; q < n_; ++q) {
    const size_t lo = first_piece[batch_.offsets[q]];
    const size_t hi = first_piece[batch_.offsets[q + 1]];
    // A query with no pieces still completes, on shard 0.
    if (lo == hi) work[0].push_back(PlannedQuery{q, planned[q].arrival_ms, {}});
    std::fill(slice.begin(), slice.end(), SIZE_MAX);
    for (size_t p = lo; p < hi; ++p) {
      const uint32_t sh = pieces[p].shard;
      if (slice[sh] == SIZE_MAX) {
        slice[sh] = work[sh].size();
        work[sh].push_back(PlannedQuery{q, planned[q].arrival_ms, {}});
      }
      work[sh][slice[sh]].requests.push_back(pieces[p].req);
    }
  }
  return work;
}

// query and sim: execution of the pre-planned queries, no planning.
void LayerPass::Execute(int rep, const Work& work) {
  double exec_s = 0;
  uint64_t events = 0;
  RunOutput planned_run;
  for (size_t w = 0; w < work.size(); ++w) {
    mm::lvm::Volume& vol = clustered() ? fx_.cluster->shard(w) : *fx_.volume;
    mm::query::ClusterConfig cfg;
    cfg.queue = fx_.config.queue;
    cfg.cache = fx_.pool.get();
    // ClusterSession's shard seed derivation.
    cfg.seed = clustered() ? fx_.config.seed + w + 1 : fx_.config.seed;
    const mm::Status warm = WarmPool(fx_);  // the measured run's residency
    if (!warm.ok()) RunFailed("pool warm-up", warm);
    mm::query::Session session(&vol, nullptr, cfg);
    const uint64_t s = spans_.Begin("query.RunPlanned");
    auto r = session.RunPlanned(work[w]);
    exec_s += spans_.End(s, work[w].size());
    if (!r.ok()) RunFailed("RunPlanned", r.status());
    events += session.last_events();
    if (rep == 0 && !clustered()) {
      planned_run.stats = std::move(r).value();
      planned_run.completions = session.Completions();
    }
  }
  t_.exec.push_back(exec_s);
  exec_events_ = events;
  if (rep == 0 && !clustered() && !spec_.cached()) {
    CheckSameRun(gates_, "run_planned_equals_run", untraced_, planned_run);
  }
}

// disk: each volume's (shard's) planned stream through one disk::Disk.
void LayerPass::Replay(int rep, const Work& work) {
  double replay_s = 0;
  std::vector<mm::disk::DiskStats> replayed;
  for (const std::vector<PlannedQuery>& queries : work) {
    const uint64_t s = spans_.Begin("disk.Submit+ServiceNextQueued");
    ReplayOnDisk(replay_disk_, fx_.config.queue, queries);
    replay_s += spans_.End(s, replay_disk_.stats().requests);
    replayed.push_back(replay_disk_.stats());
  }
  t_.replay.push_back(replay_s);
  if (rep != 0) return;
  if (replayed.size() != session_disks_.size()) {
    gates_.Check("disk_replay_equals_session", false,
                 "replayed disk count differs from the session's");
    return;
  }
  for (size_t d = 0; d < replayed.size(); ++d) {
    CheckSameDiskStats(gates_,
                       "disk_replay_equals_session.disk" + std::to_string(d),
                       replayed[d], session_disks_[d]);
  }
}

// model: analytical range cost against the simulated service time.
void LayerPass::ModelError() {
  const mm::model::CostModel cost(fx_.disk_spec);
  std::vector<double> err;
  const uint64_t s = spans_.Begin("model.MultiMapRangeTotalMs");
  for (const mm::query::QueryCompletion& c : untraced_.completions) {
    const double predicted = cost.MultiMapRangeTotalMs(
        fx_.shape, fx_.multimap->cube(), fx_.boxes[c.query]);
    const double simulated = c.ServiceMs();
    if (simulated > 0) {
      err.push_back(std::fabs(predicted - simulated) / simulated * 100.0);
    }
  }
  spans_.End(s, untraced_.completions.size());
  model_err_pct_ = Median(err);
}

void LayerPass::AddMetrics(Report& report) const {
  const double nq = Nq();
  const RepTimes& t = t_;
  const RunOutput& untraced = untraced_;
  const double planned_requests = static_cast<double>(batch_.requests.size());
  const std::string over =
      "first quartile of " + std::to_string(t.run.size()) + " reps";
  auto add_ns = [&](const char* name, const std::vector<double>& secs,
                    double items, const char* per) {
    report.Add(name, NsPer(secs, items), "ns",
               secs.empty() ? "layer not on this workload's path"
                            : over + ", " + per);
  };

  report.Add("core.runs_per_query", static_cast<double>(total_runs_) / nq,
             "count", std::to_string(total_runs_) + " runs / " +
                          std::to_string(n_) + " queries");
  add_ns("core.host_ns_per_run", t.core, static_cast<double>(total_runs_),
         "AppendRunsForBox loop / runs");
  report.Add("query.requests_per_query", planned_requests / nq, "count",
             "standalone PlanBatch");
  report.Add("query.sectors_per_query",
             static_cast<double>(planned_sectors_) / nq, "count",
             "standalone PlanBatch");
  add_ns("query.plan_host_ns_per_query", t.plan, nq, "PlanInto loop / queries");
  report.AddRatio("query.plan_cache_hit_ratio",
                  Ratio{static_cast<double>(cache_delta_.hits),
                        static_cast<double>(cache_delta_.probes), "hits",
                        "probes"});
  report.AddRatio("query.plan_share",
                  Ratio{HostSeconds(t.plan), HostSeconds(t.run), "s PlanInto",
                        clustered() ? "s ClusterSession::Run"
                                   : "s Session::Run"});
  add_ns("query.exec_host_ns_per_query", t.exec, nq,
         "RunPlanned on pre-planned queries / queries");
  report.Add("query.queue_ms_mean", untraced.stats.queueing.Mean(), "ms",
             "simulated, over " + std::to_string(untraced.stats.count()) +
                 " queries");
  report.Add("query.service_ms_mean", untraced.stats.service.Mean(), "ms",
             "simulated, over " + std::to_string(untraced.stats.count()) +
                 " queries");

  const mm::cache::BufferPoolStats& pool = untraced.pool;
  const char* no_pool = fx_.pool ? "" : "no buffer pool on this workload";
  report.AddRatio("cache.hit_ratio",
                  Ratio{static_cast<double>(pool.hits),
                        static_cast<double>(pool.hits + pool.misses), "hits",
                        "cell consults"},
                  no_pool);
  report.AddRatio(
      "cache.resident_sector_share",
      Ratio{static_cast<double>(untraced.stats.resident_sectors),
            static_cast<double>(untraced.stats.resident_sectors +
                                untraced.stats.submitted_sectors),
            "resident sectors", "planned sectors"},
      no_pool);
  report.Add("cache.fills_per_query", static_cast<double>(pool.fills) / nq,
             "count", std::to_string(pool.fills) + " fills " + no_pool);
  report.Add("cache.evictions_per_query",
             static_cast<double>(pool.evictions) / nq, "count",
             std::to_string(pool.evictions) + " evictions " + no_pool);
  report.Add("cache.filter_host_ns_per_query",
             t.filtered.empty() ? 0.0 : (HostSeconds(t.filtered) - HostSeconds(t.plan)) / nq * 1e9,
             "ns",
             t.filtered.empty()
                 ? "no buffer pool on this workload"
                 : over + ", filtered PlanInto minus unfiltered, per query");

  add_ns("lvm.route_host_ns_per_request", t.route, planned_requests,
         "Route loop / planned requests");
  report.AddRatio("lvm.fanout_per_request",
                  Ratio{static_cast<double>(routed_pieces_),
                        clustered() ? planned_requests : 0.0, "shard pieces",
                        "planned requests"},
                  clustered() ? "" : "no cluster on this workload");
  report.AddRatio("lvm.serial_share",
                  Ratio{clustered() ? HostSeconds(t.plan) + HostSeconds(t.route) : 0.0,
                        clustered() ? HostSeconds(t.run) : 0.0,
                        "s PlanInto+Route", "s ClusterSession::Run"},
                  clustered() ? "" : "no cluster on this workload");
  double busy_max = 0, busy_sum = 0;
  if (clustered()) {
    const size_t per = fx_.cluster->shard(0).disk_count();
    for (uint32_t s = 0; s < fx_.cluster->shard_count(); ++s) {
      double busy = 0;
      for (size_t d = 0; d < per; ++d) {
        busy += session_disks_[s * per + d].phases.Total();
      }
      busy_max = std::max(busy_max, busy);
      busy_sum += busy;
    }
  }
  report.AddRatio(
      "lvm.shard_busy_imbalance",
      Ratio{busy_max,
            clustered() ? busy_sum / fx_.cluster->shard_count() : 0.0,
            "ms max shard busy", "ms mean shard busy"},
      clustered() ? "" : "no cluster on this workload");

  double max_queue_ms = 0;
  const mm::disk::DiskStats disks = Sum(session_disks_, &max_queue_ms);
  const double busy = disks.phases.Total();
  report.Add("disk.requests", static_cast<double>(disks.requests), "count",
             "over " + std::to_string(session_disks_.size()) + " disks");
  report.AddRatio("disk.sectors_per_request",
                  Ratio{static_cast<double>(disks.sectors),
                        static_cast<double>(disks.requests), "sectors",
                        "requests"});
  report.AddRatio("disk.seek_share",
                  Ratio{disks.phases.seek_ms, busy, "ms seek", "ms busy"});
  report.AddRatio("disk.rot_share",
                  Ratio{disks.phases.rot_ms, busy, "ms rotate", "ms busy"});
  report.AddRatio("disk.xfer_share",
                  Ratio{disks.phases.xfer_ms, busy, "ms transfer", "ms busy"});
  report.AddRatio("disk.overhead_share", Ratio{disks.phases.overhead_ms, busy,
                                               "ms overhead", "ms busy"});
  report.AddRatio("disk.buffer_hit_ratio",
                  Ratio{static_cast<double>(disks.buffer_hits),
                        static_cast<double>(disks.requests),
                        "read-ahead hits", "requests"});
  report.AddRatio(
      "disk.utilization",
      Ratio{busy,
            untraced.stats.makespan_ms *
                static_cast<double>(session_disks_.size()),
            "ms busy", "ms makespan x disks"});
  report.Add("disk.max_queue_ms", max_queue_ms, "ms",
             "largest queue wait at service, any disk");
  add_ns("disk.host_ns_per_request", t.replay,
         static_cast<double>(disks.requests),
         "single-disk replay of the planned stream / requests");

  report.Add("sim.events_per_query", static_cast<double>(untraced.events) / nq,
             "count", std::to_string(untraced.events) + " events");
  report.Add("sim.host_ns_per_event",
             t.replay.empty() || exec_events_ == 0
                 ? 0.0
                 : (HostSeconds(t.exec) - HostSeconds(t.replay)) /
                       static_cast<double>(exec_events_) * 1e9,
             "ns",
             t.replay.empty()
                 ? "no disk replay on this workload (the pool splits the "
                   "stream)"
                 : over + ", (RunPlanned - disk replay) / " +
                       std::to_string(exec_events_) + " events");
  report.Add("model.range_err_pct", model_err_pct_, "%",
             spec_.kind == Kind::kRangeClosed
                 ? "median |MultiMapRangeTotalMs - simulated service| / "
                   "simulated, over " +
                       std::to_string(untraced.completions.size()) + " ranges"
                 : "computed on range_closed only");
  report.Add("obs.trace_overhead_pct",
             (HostSeconds(t.traced) / HostSeconds(t.run) - 1.0) * 100.0, "%",
             over + ", traced / untraced Run host time - 1, sample period " +
                 std::to_string(spec_.trace_sample_period));
  report.Add("obs.trace_dropped", static_cast<double>(sink_->dropped()),
             "count", std::to_string(sink_->size()) + " events kept");
}

void LayerPass::WriteTrace(const std::string& path,
                           const std::string& fingerprint) {
  gates_.Check("trace.nothing_dropped", sink_->dropped() == 0,
               std::to_string(sink_->dropped()) + " dropped of " +
                   std::to_string(sink_->size() + sink_->dropped()));
  // Simulated spans from the last traced run, host spans from the pass.
  const std::string doc =
      MergeTrace(mm::obs::ToChromeTraceJson(*sink_), spans_, fingerprint);
  std::FILE* f = std::fopen(path.c_str(), "w");
  const bool written =
      f != nullptr && std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (f != nullptr) std::fclose(f);
  gates_.Check("trace.written", written,
               path + " (" + std::to_string(doc.size()) + " bytes, " +
                   std::to_string(spans_.spans().size()) + " host spans)");
}

}  // namespace

void MeasureLayers(Fixture& fx, double seconds, const std::string& trace_path,
                   const std::string& fingerprint_json, Report& report,
                   Gates& gates) {
  LayerPass pass(fx, gates);
  pass.Run(seconds);
  pass.AddMetrics(report);
  pass.WriteTrace(trace_path, fingerprint_json);
}

}  // namespace perfbench
