// perfbench: one workload, one pass, one result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--commit <id>]
//
// --trace 0 runs the untraced end-to-end pass; --trace 1 runs the traced
// layer pass and writes a Perfetto-loadable trace. The last line of
// standard output is the JSON result; a failed correctness gate makes the
// result "correct": false and the exit code 1. See README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench_math.h"
#include "fixture.h"
#include "gates.h"
#include "host_time.h"
#include "passes.h"
#include "report.h"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their host time (see HostSeconds).
constexpr int kSetups = 31;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--commit <id>]\nworkloads:",
               msg);
  for (const WorkloadSpec& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("--seconds takes s > 0");
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      a.trace = v[0] - '0';
    } else if (key == "--trace-out") {
      a.trace_out = v;
    } else if (key == "--commit") {
      a.commit = v;
    } else {
      Usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.trace_out.empty()) a.trace_out = "trace_" + a.workload + ".json";
  return a;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      unsigned int* r = regs + 4 * leaf;
      __get_cpuid(0x80000002 + leaf, &r[0], &r[1], &r[2], &r[3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string Fingerprint(const Args& a) {
  return "{\"cpu\": \"" + JsonEscape(CpuModel()) + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + JsonEscape(PERFBENCH_COMPILER) +
         "\", \"build_type\": \"" + JsonEscape(PERFBENCH_BUILD_TYPE) +
         "\", \"commit\": \"" + JsonEscape(a.commit) +
         "\", \"workload\": \"" + JsonEscape(a.workload) +
         "\", \"seed\": " + std::to_string(a.seed) + "}";
}

std::string Describe(const Fixture& fx) {
  const WorkloadSpec& s = *fx.spec;
  std::string out = std::string(s.name) + ": grid " + fx.shape.ToString() +
                    ", " + fx.mapping->name() + " on " + fx.disk_spec.name;
  if (fx.cluster) {
    out += " x " + std::to_string(fx.cluster->shard_count()) +
           " shards (chunk " + std::to_string(fx.cluster->chunk_sectors()) +
           " sectors, " + std::to_string(fx.config.threads) + " threads)";
  }
  if (fx.pool) {
    out += ", ARC pool " + std::to_string(fx.pool->capacity_cells()) +
           " frames (the hot band) over " +
           std::to_string(fx.shape.CellCount()) + " cells";
  }
  out += ", " + std::to_string(s.queries) + " queries, ";
  out += s.open_loop() ? "open-loop Poisson " + std::to_string(s.rate_qps) +
                             " qps"
                       : std::string("closed loop, 1 client");
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const std::string fingerprint = Fingerprint(args);
  std::printf("fingerprint %s\n", fingerprint.c_str());

  // Set-up: volumes, mapping, workload generation, pool warm-up.
  Calibration calibration;
  std::vector<double> setup_s, raw_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < (args.trace == 0 ? kSetups : 1); ++i) {
    fx.reset();
    const double before = calibration.Measure();
    const double t0 = CpuSeconds();
    fx = BuildFixture(*spec, args.seed);
    raw_s.push_back(CpuSeconds() - t0);
    setup_s.push_back(Calibration::Calibrated(raw_s.back(), before,
                                              calibration.Measure()));
  }
  std::printf("workload %s\n", Describe(*fx).c_str());

  Report report;
  Gates gates(spec->queries);
  if (args.trace == 0) {
    report.Add("setup_s", HostSeconds(setup_s), "s",
               "first quartile of " + std::to_string(setup_s.size()) +
                   " set-ups, calibrated (raw CPU median " +
                   std::to_string(Median(raw_s)) + " s)");
    MeasureEndToEnd(*fx, args.seconds, report, gates);
  } else {
    MeasureLayers(*fx, args.seconds, args.trace_out, fingerprint, report,
                  gates);
  }
  const uint64_t failed = gates.failed_queries();
  std::printf("failed_frac %.6g ratio (%llu failed of %zu attempted)\n",
              static_cast<double>(failed) / static_cast<double>(spec->queries),
              static_cast<unsigned long long>(failed), spec->queries);
  report.Print(stdout);
  std::printf("%s\n",
              report.ResultJson(gates.ok(), spec->queries, failed).c_str());
  return gates.ok() ? 0 : 1;
}
