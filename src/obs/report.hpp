// pm2sim -- combined per-run observability report.
//
// One JSON document bundling the metrics registry dump with (optionally)
// the flow tracer's per-stage latency breakdown and the binary telemetry
// summary; this is what the figure benches write for --metrics-out=FILE.
// Also the JSON string writer that every report and trace writer shares.
#pragma once

#include <string>
#include <string_view>

namespace pm2::obs {

/// Append @p s as a quoted JSON string: `"` and `\` escaped, \b \f \n \r
/// \t as short escapes, every other byte below 0x20 as \u00XX (JSON
/// forbids them raw). The one string writer of every JSON document in the
/// tree: metrics, traces, simsan and explorer reports.
void append_json_string(std::string& out, std::string_view s);

class MetricsRegistry;
class FlowTracer;
class TraceLog;

/// {"schema":"pm2sim-report-v1","metrics":{...},"flow":{...},
///  "trace":{"records":N,"dropped":0}}; the "flow" / "trace" members are
/// omitted when the corresponding pointer is null.
std::string report_json(const MetricsRegistry& registry,
                        const FlowTracer* flow, const TraceLog* trace = nullptr);

/// Write report_json() to @p path; throws on I/O failure.
void write_report(const std::string& path, const MetricsRegistry& registry,
                  const FlowTracer* flow, const TraceLog* trace = nullptr);

}  // namespace pm2::obs
