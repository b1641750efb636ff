#include "obs/report.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_log.hpp"

namespace pm2::obs {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {
/// Strip one trailing newline so the fragment nests cleanly.
std::string chomp(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}
}  // namespace

std::string report_json(const MetricsRegistry& registry,
                        const FlowTracer* flow, const TraceLog* trace) {
  std::string out = "{\"schema\":\"pm2sim-report-v1\",\"metrics\":";
  out += chomp(registry.to_json());
  if (flow != nullptr) {
    out += ",\"flow\":";
    out += chomp(flow->to_json());
  }
  if (trace != nullptr) {
    // "dropped" stays in the schema: the recorder never drops a record.
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"trace\":{\"records\":%zu,\"dropped\":0}",
                  trace->record_count());
    out += buf;
  }
  out += "}\n";
  return out;
}

void write_report(const std::string& path, const MetricsRegistry& registry,
                  const FlowTracer* flow, const TraceLog* trace) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("obs: cannot open " + path);
  f << report_json(registry, flow, trace);
  if (!f) throw std::runtime_error("obs: write failed: " + path);
}

}  // namespace pm2::obs
