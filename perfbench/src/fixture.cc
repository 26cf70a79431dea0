#include "fixture.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "host_time.h"
#include "mapping/naive.h"
#include "query/query.h"
#include "util/rng.h"

namespace perfbench {

using mm::map::Box;
using mm::map::GridShape;

namespace {

// The rows below are the benchmark's definition; README.md gives the
// reasons behind each choice.
const std::vector<WorkloadSpec> kWorkloads = {
    {.name = "beam_open",
     .kind = Kind::kBeamOpen,
     .queries = 6000,
     .rate_qps = 1.2,
     .p99_limit_ms = 2000,
     .ladder_lo = 1.0,
     .ladder_hi = 8.0,
     .ladder_step = 1.02,
     .trace_sample_period = 32},
    {.name = "range_closed",
     .kind = Kind::kRangeClosed,
     .queries = 1200,
     .trace_sample_period = 64},
    {.name = "point_cache_open",
     .kind = Kind::kPointCacheOpen,
     .queries = 80000,
     .rate_qps = 600,
     .p99_limit_ms = 100,
     .ladder_lo = 100,
     .ladder_hi = 3000,
     .ladder_step = 1.02,
     .trace_sample_period = 64},
    {.name = "cluster_open",
     .kind = Kind::kClusterOpen,
     .queries = 20000,
     .rate_qps = 10,
     .p99_limit_ms = 500,
     .ladder_lo = 2,
     .ladder_hi = 100,
     .ladder_step = 1.02,
     .trace_sample_period = 80},
};

// Shapes and sizes shared by set-up and the generators.
const GridShape kPaperChunk{259, 259, 259};  // the paper's 3-D chunk
const GridShape kPointGrid{32, 32, 1024};
constexpr uint32_t kHotPlanes = 1;       // hot band depth (Dim2 planes)
constexpr uint32_t kColdPlanes = 16;     // cold band depth, 16x the pool
constexpr uint32_t kColdEvery = 10;      // 1 point in 10 is cold
constexpr uint32_t kScanEvery = 800;     // 1 query in 800 scans a plane
constexpr uint32_t kFullScanEvery = 200; // 1 range in 200 is a full scan
const GridShape kClusterGrid{256, 256, 64};
constexpr uint32_t kClusterShards = 4;
constexpr uint32_t kClusterCellSectors = 8;
constexpr double kClusterRangePct = 0.01;

// Independent random stream `k` of a seed (splitmix64 mix), so adding a
// draw to one generator never shifts another's inputs.
uint64_t SubSeed(uint64_t seed, uint64_t k) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

[[noreturn]] void Die(const char* what, const mm::Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
  std::exit(2);
}

template <typename T>
void Shuffle(std::vector<T>* v, mm::Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

// Full-extent beams, an equal share along each dimension in seeded order.
std::vector<Box> Beams(const GridShape& shape, size_t n, uint64_t seed) {
  mm::Rng rng(seed);
  std::vector<uint32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<uint32_t>(i % 3);
  Shuffle(&dims, rng);
  std::vector<Box> out;
  out.reserve(n);
  for (uint32_t d : dims) {
    out.push_back(mm::query::RandomBeam(shape, d, rng).ToBox(shape));
  }
  return out;
}

// Equal-side ranges whose selectivities are stratified log-uniform over
// 0.01%..10% (one draw per stratum, shuffled), plus one full scan in
// kFullScanEvery. Stratifying keeps the selectivity mix, and with it the
// latency distribution, nearly identical across seeds.
std::vector<Box> Ranges(const GridShape& shape, size_t n, uint64_t seed) {
  mm::Rng rng(seed);
  std::vector<double> u(n);
  for (size_t i = 0; i < n; ++i) {
    u[i] = (static_cast<double>(i) + rng.NextDouble()) /
           static_cast<double>(n);
  }
  Shuffle(&u, rng);
  std::vector<Box> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % kFullScanEvery == kFullScanEvery - 1) {
      out.push_back(Box::Full(shape));
      continue;
    }
    const double pct = std::pow(10.0, -2.0 + 3.0 * u[i]);
    out.push_back(mm::query::RandomRange(shape, pct, rng));
  }
  return out;
}

// The whole Dim0 x Dim1 plane at Dim2 = z.
Box Plane(const GridShape& shape, uint32_t z) {
  Box b;
  b.hi[0] = shape.dim(0);
  b.hi[1] = shape.dim(1);
  b.lo[2] = z;
  b.hi[2] = z + 1;
  return b;
}

// 90/10 skewed 1-cell points: hot points in the first kHotPlanes Dim2
// planes, cold points in the last kColdPlanes, and every kScanEvery-th
// query a scan of one plane between the two bands, cycling through them.
std::vector<Box> SkewedPoints(const GridShape& shape, size_t n,
                              uint64_t seed) {
  mm::Rng rng(seed);
  const uint32_t middle = shape.dim(2) - kHotPlanes - kColdPlanes;
  uint32_t scans = static_cast<uint32_t>(rng.Uniform(middle));
  std::vector<Box> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % kScanEvery == kScanEvery / 2) {
      out.push_back(Plane(shape, kHotPlanes + scans++ % middle));
      continue;
    }
    const bool cold = i % kColdEvery == kColdEvery - 1;
    Box b;
    b.lo[0] = static_cast<uint32_t>(rng.Uniform(shape.dim(0)));
    b.lo[1] = static_cast<uint32_t>(rng.Uniform(shape.dim(1)));
    b.lo[2] = cold ? shape.dim(2) - kColdPlanes +
                         static_cast<uint32_t>(rng.Uniform(kColdPlanes))
                   : static_cast<uint32_t>(rng.Uniform(kHotPlanes));
    for (uint32_t d = 0; d < 3; ++d) b.hi[d] = b.lo[d] + 1;
    out.push_back(b);
  }
  return out;
}

std::vector<Box> ClusterRanges(const GridShape& shape, size_t n,
                               uint64_t seed) {
  mm::Rng rng(seed);
  std::vector<Box> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(mm::query::RandomRange(shape, kClusterRangePct, rng));
  }
  return out;
}

// Exponential gaps scaled to a mean of exactly 1: Poisson arrivals
// conditioned on their total span, so the offered load, and with it
// sim_qps, does not drift with the seed.
std::vector<double> UnitGaps(size_t n, uint64_t seed) {
  mm::Rng rng(seed);
  std::vector<double> out(n);
  double sum = 0;
  for (double& g : out) {
    g = -std::log(1.0 - rng.NextDouble());
    sum += g;
  }
  for (double& g : out) g *= static_cast<double>(n) / sum;
  return out;
}

void BuildMultiMap(Fixture* fx) {
  fx->disk_spec = mm::disk::MakeAtlas10k3();
  fx->shape = kPaperChunk;
  fx->volume = std::make_unique<mm::lvm::Volume>(fx->disk_spec);
  auto mmap = mm::core::MultiMapMapping::Create(*fx->volume, fx->shape);
  if (!mmap.ok()) Die("MultiMapMapping::Create", mmap.status());
  fx->multimap = mmap->get();
  fx->mapping = std::move(mmap).value();
  fx->executor =
      std::make_unique<mm::query::Executor>(fx->volume.get(), fx->mapping.get());
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<double> Fixture::ArrivalsMs(double rate_qps) const {
  std::vector<double> out(unit_gaps.size());
  const double scale = 1000.0 / rate_qps;
  double t = 0;
  for (size_t i = 0; i < unit_gaps.size(); ++i) {
    t += unit_gaps[i];
    out[i] = t * scale;
  }
  return out;
}

size_t Fixture::disk_count() const {
  if (cluster == nullptr) return volume->disk_count();
  return cluster->shard_count() * cluster->shard(0).disk_count();
}

mm::disk::Disk& Fixture::disk(size_t i) {
  if (cluster == nullptr) return volume->disk(i);
  const size_t per = cluster->shard(0).disk_count();
  return cluster->shard(i / per).disk(i % per);
}

std::unique_ptr<Fixture> BuildFixture(const WorkloadSpec& spec,
                                      uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  fx->spec = &spec;
  const uint64_t box_seed = SubSeed(seed, 1);
  switch (spec.kind) {
    case Kind::kBeamOpen:
      BuildMultiMap(fx.get());
      // SPTF over a deep tagged queue: concurrent beams interleave at the
      // drive while each beam's kPreserveOrder requests stay in order.
      fx->config.queue = mm::disk::BatchOptions{mm::disk::SchedulerKind::kSptf,
                                                32, true};
      fx->boxes = Beams(fx->shape, spec.queries, box_seed);
      break;
    case Kind::kRangeClosed:
      BuildMultiMap(fx.get());
      fx->boxes = Ranges(fx->shape, spec.queries, box_seed);
      break;
    case Kind::kPointCacheOpen: {
      fx->disk_spec = mm::disk::MakeNearline7k2();
      fx->shape = kPointGrid;
      fx->volume = std::make_unique<mm::lvm::Volume>(fx->disk_spec);
      fx->mapping = std::make_unique<mm::map::NaiveMapping>(fx->shape, 0);
      fx->executor = std::make_unique<mm::query::Executor>(fx->volume.get(),
                                                           fx->mapping.get());
      // The pool holds exactly the hot band.
      const uint64_t hot_cells =
          uint64_t{kHotPlanes} * fx->shape.dim(0) * fx->shape.dim(1);
      fx->pool = std::make_unique<mm::cache::BufferPool>(
          *fx->mapping,
          mm::cache::BufferPoolOptions{.capacity_cells = hot_cells,
                                       .policy = mm::cache::PolicyKind::kArc});
      fx->config.cache = fx->pool.get();
      // Two passes over the hot band: the second touch moves every hot
      // frame to ARC's frequency list, where scans do not displace it.
      for (int pass = 0; pass < 2; ++pass) {
        for (uint32_t z = 0; z < kHotPlanes; ++z) {
          fx->warm_boxes.push_back(Plane(fx->shape, z));
        }
      }
      fx->boxes = SkewedPoints(fx->shape, spec.queries, box_seed);
      break;
    }
    case Kind::kClusterOpen: {
      fx->disk_spec = mm::disk::MakeAtlas10k3();
      fx->shape = kClusterGrid;
      mm::lvm::ClusterTopology topo;
      topo.shards = kClusterShards;
      topo.shard_disks = {fx->disk_spec};
      topo.chunk_sectors = 1024;  // 128 cells: cells never straddle shards
      auto cluster = mm::lvm::ClusterVolume::Create(topo);
      if (!cluster.ok()) Die("ClusterVolume::Create", cluster.status());
      fx->cluster = std::move(cluster).value();
      fx->mapping = std::make_unique<mm::map::NaiveMapping>(
          fx->shape, 0, kClusterCellSectors);
      fx->executor = std::make_unique<mm::query::Executor>(
          &fx->cluster->logical(), fx->mapping.get());
      const uint32_t cores =
          std::max(1u, std::thread::hardware_concurrency());
      fx->config.threads = std::min(kClusterShards, cores);
      fx->boxes = ClusterRanges(fx->shape, spec.queries, box_seed);
      break;
    }
  }
  fx->unit_gaps = UnitGaps(spec.queries, SubSeed(seed, 2));
  // Warm once here so set-up time includes it; RunWorkload re-warms
  // before every measured run.
  const mm::Status warm = WarmPool(*fx);
  if (!warm.ok()) Die("pool warm-up", warm);
  return fx;
}

mm::Status WarmPool(Fixture& fx) {
  if (fx.pool == nullptr) return mm::Status::OK();
  fx.pool->Clear();
  mm::query::Session session(fx.volume.get(), fx.executor.get(), fx.config);
  return session.Run(fx.warm_boxes, mm::query::ArrivalProcess::Closed(1))
      .status();
}

namespace {

// Times `run` (the one Run call of a pass) in host CPU seconds, and as a
// host span when the caller records spans.
template <typename F>
auto TimedRun(const RunOptions& options, double* host_s, F&& run) {
  const uint64_t span =
      options.spans != nullptr ? options.spans->Begin(options.span_name) : 0;
  const double t0 = CpuSeconds();
  auto r = run();
  *host_s = CpuSeconds() - t0;
  if (options.spans != nullptr) options.spans->End(span);
  return r;
}

mm::cache::BufferPoolStats PoolDelta(const mm::cache::BufferPoolStats& a,
                                     const mm::cache::BufferPoolStats& b) {
  mm::cache::BufferPoolStats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.fills = a.fills - b.fills;
  d.evictions = a.evictions - b.evictions;
  d.abandoned = a.abandoned - b.abandoned;
  d.pinned_skips = a.pinned_skips - b.pinned_skips;
  return d;
}

}  // namespace

mm::Result<RunOutput> RunWorkload(Fixture& fx, const RunOptions& options) {
  const WorkloadSpec& spec = *fx.spec;
  mm::query::ClusterConfig config = fx.config;
  config.trace = options.trace;
  if (options.threads != 0) config.threads = options.threads;
  const double rate = options.rate_qps > 0 ? options.rate_qps : spec.rate_qps;
  const mm::query::ArrivalProcess arrivals =
      rate > 0 ? mm::query::ArrivalProcess::OpenTrace(fx.ArrivalsMs(rate))
               : mm::query::ArrivalProcess::Closed(1);
  RunOutput out;
  if (fx.cluster != nullptr) {
    config.arrivals = arrivals;
    mm::query::ClusterSession session(fx.cluster.get(), fx.executor.get(),
                                      config);
    auto r = TimedRun(options, &out.host_s,
                      [&] { return session.Run(fx.boxes); });
    if (!r.ok()) return r.status();
    out.stats = std::move(r).value();
    out.completions = session.Completions();
    out.events = session.events();
    return out;
  }
  mm::cache::BufferPoolStats pool_before;
  MM_RETURN_NOT_OK(WarmPool(fx));
  if (fx.pool != nullptr) pool_before = fx.pool->stats();
  mm::query::Session session(fx.volume.get(), fx.executor.get(), config);
  auto r = TimedRun(options, &out.host_s,
                    [&] { return session.Run(fx.boxes, arrivals); });
  if (!r.ok()) return r.status();
  out.stats = std::move(r).value();
  out.completions = session.Completions();
  out.events = session.last_events();
  if (fx.pool != nullptr) out.pool = PoolDelta(fx.pool->stats(), pool_before);
  return out;
}

}  // namespace perfbench
