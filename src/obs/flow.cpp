#include "obs/flow.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/trace_log.hpp"

namespace pm2::obs {

const char* flow_stage_name(FlowStage stage) {
  switch (stage) {
    case FlowStage::kPost: return "post";
    case FlowStage::kArrange: return "arrange";
    case FlowStage::kNicPost: return "nic_post";
    case FlowStage::kWireDone: return "wire_done";
    case FlowStage::kDeliver: return "deliver";
    case FlowStage::kComplete: return "complete";
  }
  return "?";
}

const char* flow_segment_name(int i) {
  switch (i) {
    case 1: return "pack";    // post -> arrange: collect-list dwell
    case 2: return "submit";  // arrange -> nic_post: driver queue dwell
    case 3: return "wire";    // nic_post -> wire_done: DMA + serialization
    case 4: return "unpack";  // wire_done -> deliver: flight + rx copy-out
    case 5: return "notify";  // deliver -> complete: completion signalling
  }
  return "?";
}

void FlowTracer::ensure_ingested() const {
  const std::size_t n = log_.record_count();
  if (n == ingested_) return;
  flows_.clear();
  order_.clear();
  for (const TraceRecord& r : log_.canonical_records()) {
    if (r.phase != kFlowStampPhase) continue;
    const int i = static_cast<int>(r.dur);
    if (i < 0 || i >= kFlowStageCount) continue;
    auto [it, fresh] = flows_.try_emplace(r.id);
    if (fresh) {
      it->second.id = r.id;
      order_.push_back(r.id);
    }
    it->second.seen[i] = true;
    it->second.ts[i] = r.ts;  // last stamp in canonical order wins
  }
  ingested_ = n;
}

std::size_t FlowTracer::flow_count() const {
  ensure_ingested();
  return order_.size();
}

const std::vector<std::uint64_t>& FlowTracer::ids() const {
  ensure_ingested();
  return order_;
}

std::size_t FlowTracer::completed_count() const {
  ensure_ingested();
  std::size_t n = 0;
  for (std::uint64_t id : order_) {
    if (flows_.at(id).complete()) ++n;
  }
  return n;
}

const FlowTracer::Flow* FlowTracer::find(std::uint64_t id) const {
  ensure_ingested();
  auto it = flows_.find(id);
  return it == flows_.end() ? nullptr : &it->second;
}

std::vector<std::uint64_t> FlowTracer::canonical_order() const {
  ensure_ingested();
  std::vector<std::uint64_t> ids = order_;
  std::sort(ids.begin(), ids.end(),
            [this](std::uint64_t a, std::uint64_t b) {
              const Flow& fa = flows_.at(a);
              const Flow& fb = flows_.at(b);
              const int post = static_cast<int>(FlowStage::kPost);
              const sim::Time ta =
                  fa.seen[post] ? fa.ts[post] : sim::kTimeInfinity;
              const sim::Time tb =
                  fb.seen[post] ? fb.ts[post] : sim::kTimeInfinity;
              if (ta != tb) return ta < tb;
              return a < b;
            });
  return ids;
}

std::vector<FlowTracer::Segment> FlowTracer::breakdown() const {
  std::vector<Segment> segs;
  segs.reserve(kFlowStageCount - 1);
  for (int i = 1; i < kFlowStageCount; ++i) {
    segs.push_back(Segment{flow_segment_name(i), {}});
  }
  for (std::uint64_t id : canonical_order()) {
    const Flow& f = flows_.at(id);
    if (!f.complete()) continue;
    for (int i = 1; i < kFlowStageCount; ++i) {
      segs[static_cast<std::size_t>(i - 1)].us.add(
          sim::to_us(f.ts[i] - f.ts[i - 1]));
    }
  }
  return segs;
}

sim::SampleSet FlowTracer::end_to_end_us() const {
  sim::SampleSet s;
  for (std::uint64_t id : canonical_order()) {
    const Flow& f = flows_.at(id);
    if (!f.complete()) continue;
    s.add(sim::to_us(f.ts[kFlowStageCount - 1] - f.ts[0]));
  }
  return s;
}

std::string FlowTracer::to_json() const {
  std::string out = "{\"schema\":\"pm2sim-flow-v1\"";
  char buf[192];
  std::snprintf(buf, sizeof(buf), ",\"flows\":%zu,\"completed\":%zu",
                flow_count(), completed_count());
  out += buf;
  out += ",\"stages\":[";
  bool first = true;
  auto emit = [&](const std::string& name, const sim::SampleSet& s) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\n{\"name\":\"%s\",\"count\":%zu,\"mean_us\":%.4f,"
                  "\"p50_us\":%.4f,\"p90_us\":%.4f,\"p99_us\":%.4f,"
                  "\"min_us\":%.4f,\"max_us\":%.4f}",
                  name.c_str(), s.count(), s.count() ? s.mean() : 0.0,
                  s.count() ? s.percentile(50) : 0.0,
                  s.count() ? s.percentile(90) : 0.0,
                  s.count() ? s.percentile(99) : 0.0,
                  s.count() ? s.min() : 0.0, s.count() ? s.max() : 0.0);
    out += buf;
  };
  for (const Segment& seg : breakdown()) emit(seg.name, seg.us);
  emit("end_to_end", end_to_end_us());
  out += "\n]}\n";
  return out;
}

std::string FlowTracer::to_table() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "flows: %zu (%zu completed)\n", flow_count(),
                completed_count());
  out += buf;
  auto row = [&](const std::string& name, const sim::SampleSet& s) {
    std::snprintf(buf, sizeof(buf),
                  "%-12s n=%-6zu mean=%9.3f us  p50=%9.3f  p99=%9.3f\n",
                  name.c_str(), s.count(), s.count() ? s.mean() : 0.0,
                  s.count() ? s.percentile(50) : 0.0,
                  s.count() ? s.percentile(99) : 0.0);
    out += buf;
  };
  for (const Segment& seg : breakdown()) row(seg.name, seg.us);
  row("end_to_end", end_to_end_us());
  return out;
}

}  // namespace pm2::obs
