#include "report.h"

#include <cmath>
#include <utility>

namespace perfbench {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Add(std::string name, double value, std::string unit,
                 std::string note) {
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

void Report::AddRatio(std::string name, const Ratio& r, std::string extra) {
  std::string note = r.Base();
  if (!extra.empty()) note += " " + extra;
  Add(std::move(name), r.Value(), "ratio", std::move(note));
}

void Report::Print(std::FILE* out) const {
  for (const Metric& m : metrics_) {
    std::fprintf(out, "metric %-34s = %-14.6g %-10s %s\n", m.name.c_str(),
                 m.value, m.unit.c_str(), m.note.c_str());
  }
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(m.name) + "\": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
