#include "obs/trace_log.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "obs/flow.hpp"
#include "obs/report.hpp"

namespace pm2::obs {

namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr char kMagic[8] = {'P', 'M', '2', 'T', 'R', 'C', '0', '1'};

struct BinHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t record_size;
  std::uint32_t ring_count;
  std::uint32_t string_count;
};

struct BinRingHeader {
  std::uint64_t count;
  std::uint64_t first_seq;
  std::uint64_t dropped;
};

TraceRecord make_record(char phase, std::uint16_t name, std::uint16_t cat,
                        int pid, int tid, sim::Time ts, sim::Time dur) {
  TraceRecord r;
  r.ts = ts;
  r.dur = dur;
  r.pid = pid;
  r.tid = tid;
  r.name = name;
  r.cat = cat;
  r.phase = static_cast<std::uint8_t>(phase);
  return r;
}

/// Virtual nanoseconds -> trace microseconds (fractional).
double to_trace_us(sim::Time t) { return static_cast<double>(t) / 1e3; }

/// Append one trace-event JSON object (no separators, no newline) for @p r
/// rendered as @p phase. For 'M' records @p name is the display name and
/// @p cat the metadata kind ("process_name" / "thread_name").
void append_event_json(std::string& out, char phase, std::string_view name,
                       std::string_view cat, const TraceRecord& r) {
  char buf[160];
  out += "{\"ph\":\"";
  out += phase;
  out += "\",\"name\":";
  append_json_string(out, phase == 'M' ? cat : name);
  if (phase == 'M') {
    out += ",\"args\":{\"name\":";
    append_json_string(out, name);
    out += "}";
  } else {
    out += ",\"cat\":";
    append_json_string(out, cat.empty() ? std::string_view{"sim"} : cat);
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f", to_trace_us(r.ts));
    out += buf;
    if (phase == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f", to_trace_us(r.dur));
      out += buf;
    }
    if (phase == 'i') out += ",\"s\":\"t\"";
    if (phase == 's' || phase == 't' || phase == 'f') {
      std::snprintf(buf, sizeof(buf), ",\"id\":%llu",
                    static_cast<unsigned long long>(r.id));
      out += buf;
      // Bind the arrow end to the enclosing slice, not the next one.
      if (phase == 'f') out += ",\"bp\":\"e\"";
    }
  }
  std::snprintf(buf, sizeof(buf), ",\"pid\":%d,\"tid\":%d}", r.pid, r.tid);
  out += buf;
}

}  // namespace

namespace {

/// Record chunks no TraceLog holds, shared by every TraceLog in the process
/// (partitions on several host threads take chunks concurrently). At most
/// kMaxPooled are kept, so a long trace's memory goes back to the allocator
/// when its TraceLog dies. Leaked on purpose: a TraceLog destroyed during
/// static destruction still finds it.
struct ChunkPool {
  static constexpr std::size_t kMaxPooled = 64;  // 3 MiB
  std::mutex mu;
  std::vector<std::unique_ptr<TraceRecord[]>> free;
  static ChunkPool& instance() {
    static auto* pool = new ChunkPool();
    return *pool;
  }
};

}  // namespace

TraceLog::~TraceLog() { release_chunks(); }

void TraceLog::add_chunk(Partition& part) {
  auto& pool = ChunkPool::instance();
  Chunk c;
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    if (!pool.free.empty()) {
      c = std::move(pool.free.back());
      pool.free.pop_back();
    }
  }
  if (c == nullptr) c = std::make_unique<TraceRecord[]>(kChunkRecords);
  part.next = c.get();
  part.end = c.get() + kChunkRecords;
  part.chunks.push_back(std::move(c));
}

void TraceLog::release_chunks() {
  auto& pool = ChunkPool::instance();
  std::lock_guard<std::mutex> lock(pool.mu);
  for (Partition& p : parts_) {
    for (Chunk& c : p.chunks) {
      if (pool.free.size() < ChunkPool::kMaxPooled) {
        pool.free.push_back(std::move(c));
      }
    }
    p.chunks.clear();
    p.next = p.end = nullptr;
  }
}

std::size_t TraceLog::Partition::size() const {
  if (chunks.empty()) return 0;
  return (chunks.size() - 1) * kChunkRecords +
         static_cast<std::size_t>(next - chunks.back().get());
}

void TraceLog::configure(const Options& opts) {
  release_chunks();
  parts_.clear();
  parts_.resize(static_cast<std::size_t>(std::max(1, opts.partitions)));
  engine_ = opts.engine;
  for (auto& slot : slots_) slot.store(nullptr, std::memory_order_relaxed);
  entries_.clear();
  strings_.assign(1, std::string());
}

std::uint16_t TraceLog::intern(std::string_view s) {
  if (s.empty()) return 0;
  const std::uint64_t h = fnv1a(s);
  const std::size_t mask = kInternSlots - 1;
  // Lock-free fast path: probe published entries only.
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const InternEntry* e = slots_[i].load(std::memory_order_acquire);
    if (e == nullptr) break;
    if (e->hash == h && e->str == s) return e->id;
  }
  // First sight (cold): insert under the mutex, re-probing for a racer
  // that published the same string between our probe and the lock.
  std::lock_guard<std::mutex> lock(intern_mu_);
  std::size_t i = h & mask;
  for (;; i = (i + 1) & mask) {
    const InternEntry* e = slots_[i].load(std::memory_order_relaxed);
    if (e == nullptr) break;
    if (e->hash == h && e->str == s) return e->id;
  }
  if (strings_.size() > kMaxInterned) return 0;  // table full: alias to ""
  const auto id = static_cast<std::uint16_t>(strings_.size());
  strings_.emplace_back(s);
  entries_.push_back(InternEntry{std::string(s), h, id});
  slots_[i].store(&entries_.back(), std::memory_order_release);
  return id;
}

void TraceLog::complete_event(std::uint16_t name, std::uint16_t cat, int pid,
                              int tid, sim::Time start, sim::Time duration) {
  push(make_record('X', name, cat, pid, tid, start, duration));
}

void TraceLog::instant_event(std::uint16_t name, std::uint16_t cat, int pid,
                             int tid, sim::Time t) {
  push(make_record('i', name, cat, pid, tid, t, 0));
}

// The kind is interned before the name: that is the string-table order
// every binary log so far was written in.
void TraceLog::set_process_name(int pid, std::string_view name) {
  const std::uint16_t kind = intern("process_name");
  push(make_record('M', intern(name), kind, pid, 0, 0, 0));
}

void TraceLog::set_thread_name(int pid, int tid, std::string_view name) {
  const std::uint16_t kind = intern("thread_name");
  push(make_record('M', intern(name), kind, pid, tid, 0, 0));
}

std::size_t TraceLog::record_count() const {
  std::size_t n = 0;
  for (const Partition& p : parts_) n += p.size();
  return n;
}

std::vector<TraceRecord> TraceLog::canonicalize(
    const std::vector<const std::vector<TraceRecord>*>& rings) {
  struct Ref {
    sim::Time emit;
    std::uint32_t ring;
    std::uint32_t idx;
  };
  std::size_t total = 0;
  for (const auto* r : rings) total += r->size();
  std::vector<Ref> refs;
  refs.reserve(total);
  for (std::uint32_t r = 0; r < rings.size(); ++r) {
    const auto& recs = *rings[r];
    for (std::uint32_t i = 0; i < recs.size(); ++i) {
      refs.push_back(Ref{recs[i].emit, r, i});
    }
  }
  // (ring, idx) pairs are unique, so this order is total and deterministic.
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return std::tie(a.emit, a.ring, a.idx) < std::tie(b.emit, b.ring, b.idx);
  });
  std::vector<TraceRecord> out;
  out.reserve(total);
  for (const Ref& ref : refs) out.push_back((*rings[ref.ring])[ref.idx]);
  return out;
}

std::vector<TraceRecord> TraceLog::canonical_records() const {
  std::vector<std::vector<TraceRecord>> recs(parts_.size());
  std::vector<const std::vector<TraceRecord>*> parts;
  parts.reserve(parts_.size());
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    const Partition& p = parts_[i];
    recs[i].reserve(p.size());
    for (const Chunk& c : p.chunks) {
      recs[i].insert(recs[i].end(), static_cast<const TraceRecord*>(c.get()),
                     p.end_of(c));
    }
    parts.push_back(&recs[i]);
  }
  return canonicalize(parts);
}

std::string TraceLog::records_to_json(
    const std::vector<TraceRecord>& canonical,
    const std::vector<std::string>& strings) {
  auto str = [&strings](std::uint16_t id) {
    return id < strings.size() ? std::string_view(strings[id])
                               : std::string_view();
  };
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  // Flow-arrow synthesis state: stages already seen per flow id, replayed
  // in canonical order so each arrow event binds to the first stamp of its
  // stage. One arrow per message: it starts where the sender's NIC takes
  // the packet, steps at delivery into the receive buffer and finishes at
  // completion notification -- all bindable to existing thread slices.
  std::unordered_map<std::uint64_t, unsigned> stages_seen;
  for (const TraceRecord& r : canonical) {
    char phase = static_cast<char>(r.phase);
    std::string_view name = str(r.name);
    std::string_view cat = str(r.cat);
    if (r.phase == kFlowStampPhase) {
      const int stage = static_cast<int>(r.dur);
      if (stage < 0 || stage >= kFlowStageCount) continue;
      unsigned& mask = stages_seen[r.id];
      const bool first_stamp = (mask & (1u << stage)) == 0;
      mask |= 1u << stage;
      if (!first_stamp) continue;
      switch (static_cast<FlowStage>(stage)) {
        case FlowStage::kNicPost: phase = 's'; break;
        case FlowStage::kDeliver: phase = 't'; break;
        case FlowStage::kComplete: phase = 'f'; break;
        default: continue;
      }
      name = "msg";
      cat = "flow";
    }
    if (!first) out += ",\n";
    first = false;
    append_event_json(out, phase, name, cat, r);
  }
  out += "\n]}\n";
  return out;
}

std::string TraceLog::to_json() {
  const std::vector<TraceRecord> recs = canonical_records();
  std::lock_guard<std::mutex> lock(intern_mu_);
  return records_to_json(recs, strings_);
}

void TraceLog::write_json(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("TraceLog: cannot open " + path);
  f << to_json();
  if (!f) throw std::runtime_error("TraceLog: write failed: " + path);
}

void TraceLog::write_binary(const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("TraceLog: cannot open " + path);
  std::lock_guard<std::mutex> slock(intern_mu_);

  BinHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = 1;
  h.record_size = sizeof(TraceRecord);
  h.ring_count = static_cast<std::uint32_t>(parts_.size());
  h.string_count = static_cast<std::uint32_t>(strings_.size());
  f.write(reinterpret_cast<const char*>(&h), sizeof(h));

  for (const Partition& p : parts_) {
    BinRingHeader rh{p.size(), 0, 0};
    f.write(reinterpret_cast<const char*>(&rh), sizeof(rh));
  }
  for (const Partition& p : parts_) {
    for (const Chunk& c : p.chunks) {
      const auto n = static_cast<std::size_t>(p.end_of(c) - c.get());
      f.write(reinterpret_cast<const char*>(c.get()),
              static_cast<std::streamsize>(n * sizeof(TraceRecord)));
    }
  }
  for (const std::string& s : strings_) {
    const auto len = static_cast<std::uint32_t>(s.size());
    f.write(reinterpret_cast<const char*>(&len), sizeof(len));
    if (len != 0) f.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  if (!f) throw std::runtime_error("TraceLog: write failed: " + path);
}

TraceLog::Data TraceLog::read_binary(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("TraceLog: cannot open " + path);
  auto fail = [&path](const char* what) -> std::runtime_error {
    return std::runtime_error("TraceLog: " + path + ": " + what);
  };
  // Every count in the log is checked against the bytes left in the file
  // before anything is sized from it, so a corrupt count fails as
  // "truncated" instead of allocating (or value-initializing) gigabytes.
  std::uint64_t left = static_cast<std::uint64_t>(f.tellg());
  f.seekg(0);
  auto need = [&](std::uint64_t count, std::uint64_t each, const char* what) {
    if (count > left / each) throw fail(what);
  };
  auto read = [&](void* dst, std::uint64_t bytes, const char* what) {
    need(bytes, 1, what);
    f.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
    if (!f) throw fail(what);
    left -= bytes;
  };

  BinHeader h{};
  read(&h, sizeof(h), "truncated header");
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0)
    throw fail("not a pm2sim trace log (bad magic)");
  if (h.version != 1) throw fail("unsupported version");
  if (h.record_size != sizeof(TraceRecord))
    throw fail("record size mismatch");

  Data data;
  need(h.ring_count, sizeof(BinRingHeader), "truncated ring headers");
  std::vector<BinRingHeader> ring_headers(h.ring_count);
  read(ring_headers.data(), h.ring_count * sizeof(BinRingHeader),
       "truncated ring headers");

  data.rings.resize(h.ring_count);
  data.dropped.resize(h.ring_count);
  for (std::uint32_t r = 0; r < h.ring_count; ++r) {
    data.dropped[r] = ring_headers[r].dropped;
    const std::uint64_t count = ring_headers[r].count;
    if (count == 0) continue;
    need(count, sizeof(TraceRecord), "truncated records");
    data.rings[r].resize(count);
    read(data.rings[r].data(), count * sizeof(TraceRecord),
         "truncated records");
  }
  // Each string costs at least its 4-byte length prefix.
  need(h.string_count, sizeof(std::uint32_t), "truncated string table");
  data.strings.resize(h.string_count);
  for (std::uint32_t i = 0; i < h.string_count; ++i) {
    std::uint32_t len = 0;
    read(&len, sizeof(len), "truncated string table");
    if (len > (1u << 20)) throw fail("oversized string");
    if (len == 0) continue;
    data.strings[i].resize(len);
    read(data.strings[i].data(), len, "truncated string table");
  }
  return data;
}

std::string TraceLog::data_to_json(const Data& data) {
  std::vector<const std::vector<TraceRecord>*> rings;
  rings.reserve(data.rings.size());
  for (const auto& r : data.rings) rings.push_back(&r);
  return records_to_json(canonicalize(rings), data.strings);
}

}  // namespace pm2::obs
