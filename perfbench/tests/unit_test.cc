// Unit tests of the benchmark's own arithmetic and output format. Exits 0
// when every check passes, 1 otherwise (run.py runs it before measuring).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_math.h"
#include "report.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentile() {
  EXPECT(Percentile({}, 50) == 0.0);
  EXPECT(Median({1, 2, 3, 4}) == 2.5);
  EXPECT(Percentile({5}, 99) == 5.0);
  EXPECT(Percentile(Range(101), 99) == 100.0);
  EXPECT(Percentile({4, 1, 3, 2}, 0) == 1.0);
  EXPECT(Percentile({4, 1, 3, 2}, 100) == 4.0);
}

void TestTailRule() {
  // 1000 distinct samples: p99 interpolates between ranks 989 and 990
  // (values 990 and 991), leaving 10 samples (991.. is 10 values) beyond.
  const Tail t1000 = TailAt(Range(1000), 99);
  EXPECT(std::fabs(t1000.value - 990.01) < 1e-9);
  EXPECT(t1000.beyond == 10);
  EXPECT(t1000.samples == 1000);
  EXPECT(t1000.Supported());
  // 500 samples leave only 5 beyond p99: the rule refuses it.
  const Tail t500 = TailAt(Range(500), 99);
  EXPECT(t500.beyond == 5);
  EXPECT(!t500.Supported());
  // Ties at the percentile are not "beyond" it.
  std::vector<double> flat(2000, 7.0);
  const Tail tf = TailAt(flat, 99);
  EXPECT(tf.value == 7.0);
  EXPECT(tf.beyond == 0);
  EXPECT(!tf.Supported());
}

void TestBacklog() {
  // Steady queue: same waits throughout.
  std::vector<double> steady(100, 5.0);
  EXPECT(!BacklogGrows(steady, 1.0));
  // Start-up from empty: first tenth waits 0, later waits stay below one
  // service time: not a growing backlog.
  std::vector<double> warmup(100, 0.8);
  for (int i = 0; i < 10; ++i) warmup[i] = 0.0;
  EXPECT(!BacklogGrows(warmup, 1.0));
  // Linear growth, the overload signature.
  std::vector<double> growing;
  for (int i = 0; i < 100; ++i) growing.push_back(i * 2.0);
  EXPECT(BacklogGrows(growing, 1.0));
  // Too few queries to split into tenths: no verdict of growth.
  EXPECT(!BacklogGrows(std::vector<double>{0, 100, 1000}, 1.0));
  // The boundary: last tenth mean exactly 2*first + service is not growth.
  std::vector<double> edge(10, 0.0);
  edge[0] = 1.0;
  edge[9] = 3.0;
  EXPECT(!BacklogGrows(edge, 1.0));
  edge[9] = 3.0001;
  EXPECT(BacklogGrows(edge, 1.0));
}

void TestLadder() {
  const std::vector<double> rungs = RateLadder(1.0, 2.0, 1.25);
  EXPECT(rungs.size() == 4);  // 1, 1.25, 1.5625, 1.953125
  EXPECT(rungs.front() == 1.0);
  EXPECT(rungs.back() < 2.0);
  // Bisection finds the highest passing rung of a monotone predicate.
  for (int cut = -1; cut < 20; ++cut) {
    std::vector<int> probed;
    const int got = HighestPassing(20, [&](size_t i) {
      probed.push_back(static_cast<int>(i));
      return static_cast<int>(i) <= cut;
    });
    EXPECT(got == cut);
    EXPECT(probed.size() <= 5);  // ceil(log2(21))
  }
  EXPECT(HighestPassing(0, [](size_t) { return true; }) == -1);
}

void TestRatio() {
  const Ratio r{30, 120, "hits", "probes"};
  EXPECT(r.Value() == 0.25);
  EXPECT(r.Base() == "(30 hits / 120 probes)");
  const Ratio empty{0, 0, "hits", "probes"};
  EXPECT(empty.Value() == 0.0);
  EXPECT(empty.Base() == "(no probes)");
  const Ratio frac{1.5, 4, "ms seek", "ms busy"};
  EXPECT(frac.Base() == "(1.5 ms seek / 4 ms busy)");
}

// --- A minimal JSON reader, enough to read the result line back --------

struct Json {
  enum Kind { kNull, kBool, kNum, kStr, kObj, kArr } kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<std::pair<std::string, Json>> obj;
  std::vector<Json> arr;
};

struct Reader {
  const char* p;
  bool ok = true;

  void Ws() {
    while (*p == ' ' || *p == '\n' || *p == '\t' || *p == '\r') ++p;
  }
  bool Eat(char c) {
    Ws();
    if (*p != c) return false;
    ++p;
    return true;
  }
  std::string Str() {
    std::string out;
    if (!Eat('"')) {
      ok = false;
      return out;
    }
    while (*p != '"' && *p != '\0') {
      if (*p == '\\') {
        ++p;
        switch (*p) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            out += static_cast<char>(std::strtol(std::string(p + 1, 4).c_str(),
                                                 nullptr, 16));
            p += 4;
            break;
          }
          default: out += *p;
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    if (!Eat('"')) ok = false;
    return out;
  }
  Json Value() {
    Json j;
    Ws();
    if (*p == '{') {
      ++p;
      j.kind = Json::kObj;
      if (Eat('}')) return j;
      do {
        std::string k = Str();
        if (!Eat(':')) ok = false;
        j.obj.emplace_back(k, Value());
      } while (ok && Eat(','));
      if (!Eat('}')) ok = false;
    } else if (*p == '[') {
      ++p;
      j.kind = Json::kArr;
      if (Eat(']')) return j;
      do {
        j.arr.push_back(Value());
      } while (ok && Eat(','));
      if (!Eat(']')) ok = false;
    } else if (*p == '"') {
      j.kind = Json::kStr;
      j.str = Str();
    } else if (std::strncmp(p, "true", 4) == 0) {
      j.kind = Json::kBool;
      j.b = true;
      p += 4;
    } else if (std::strncmp(p, "false", 5) == 0) {
      j.kind = Json::kBool;
      p += 5;
    } else if (std::strncmp(p, "null", 4) == 0) {
      p += 4;
    } else {
      char* end = nullptr;
      j.kind = Json::kNum;
      j.num = std::strtod(p, &end);
      if (end == p) ok = false;
      p = end;
    }
    return j;
  }
};

const Json* Field(const Json& j, const std::string& key) {
  for (const auto& [k, v] : j.obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

void TestResultRoundTrip() {
  Report report;
  const double awkward = 0.1 + 0.2;  // not representable in 15 digits
  report.Add("latency_ms", awkward, "ms", "ignored note");
  report.Add("host_qps", 12345.678901234567, "queries/s");
  report.Add("odd \"name\"\\", 1e-300, "1/s");
  report.AddRatio("hit_ratio", Ratio{1, 3, "hits", "probes"});
  report.Add("not_finite", std::nan(""), "ms");
  const std::string line = report.ResultJson(true, 1000, 2);
  EXPECT(line.find('\n') == std::string::npos);

  Reader r{line.c_str()};
  const Json doc = r.Value();
  r.Ws();
  EXPECT(r.ok && *r.p == '\0');
  EXPECT(doc.kind == Json::kObj && doc.obj.size() == 4);
  EXPECT(doc.obj[0].first == "correct" && doc.obj[0].second.b);
  EXPECT(doc.obj[1].first == "attempted" && doc.obj[1].second.num == 1000);
  EXPECT(doc.obj[2].first == "failed" && doc.obj[2].second.num == 2);
  EXPECT(doc.obj[3].first == "metrics");
  const Json& m = doc.obj[3].second;
  EXPECT(m.obj.size() == 5);
  const Json* lat = Field(m, "latency_ms");
  EXPECT(lat != nullptr && lat->obj.size() == 2);
  EXPECT(lat && Field(*lat, "value")->num == awkward);  // bit-exact
  EXPECT(lat && Field(*lat, "unit")->str == "ms");
  const Json* qps = Field(m, "host_qps");
  EXPECT(qps && Field(*qps, "value")->num == 12345.678901234567);
  const Json* odd = Field(m, "odd \"name\"\\");
  EXPECT(odd && Field(*odd, "value")->num == 1e-300);
  EXPECT(odd && Field(*odd, "unit")->str == "1/s");
  const Json* hit = Field(m, "hit_ratio");
  EXPECT(hit && Field(*hit, "value")->num == 1.0 / 3.0);
  EXPECT(hit && Field(*hit, "unit")->str == "ratio");
  const Json* nan = Field(m, "not_finite");
  EXPECT(nan && Field(*nan, "value")->kind == Json::kNull);

  // Control characters are escaped, never emitted raw.
  EXPECT(JsonEscape(std::string("a\x01" "b")) == "a\\u0001b");
}

}  // namespace

int main() {
  TestPercentile();
  TestTailRule();
  TestBacklog();
  TestLadder();
  TestRatio();
  TestResultRoundTrip();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_unit: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_unit: all checks passed\n");
  return 0;
}
