#include "simsan/simsan.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "obs/report.hpp"

namespace pm2::san {

namespace {

// Bound on *recorded* findings: counters keep counting past it, but the
// report stays readable and memory stays bounded on pathological runs.
constexpr std::size_t kMaxFindings = 256;

/// Append one finding's JSON object; @p count >= 1 adds the merged
/// report's occurrence count.
void append_finding_json(std::string& out, const Finding& f,
                         std::size_t count = 0) {
  out += "{\"kind\":\"";
  out += to_string(f.kind);
  out += "\",\"rule\":";
  obs::append_json_string(out, f.rule);
  out += ",\"time_ns\":" + std::to_string(f.time_ns);
  if (count > 0) out += ",\"count\":" + std::to_string(count);
  out += ",\"message\":";
  obs::append_json_string(out, f.message);
  out += "}";
}

}  // namespace

const char* to_string(FindingKind k) {
  switch (k) {
    case FindingKind::kRace: return "race";
    case FindingKind::kLockOrderCycle: return "lock-order-cycle";
    case FindingKind::kContextViolation: return "context-violation";
  }
  return "?";
}

namespace {

/// Replace every virtual-time stamp "t=<digits>ns" with "t=*": the racing
/// site is schedule-independent, the time it was observed at is not.
std::string strip_time_stamps(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size();) {
    if (s.compare(i, 2, "t=") == 0) {
      std::size_t j = i + 2;
      while (j < s.size() && s[j] >= '0' && s[j] <= '9') ++j;
      if (j > i + 2 && s.compare(j, 2, "ns") == 0) {
        out += "t=*";
        i = j + 2;
        continue;
      }
    }
    out += s[i++];
  }
  return out;
}

}  // namespace

std::string canonical_site_key(FindingKind kind, const std::string& rule,
                               const std::string& message) {
  std::string key = std::string(to_string(kind)) + "|" + rule + "|";
  if (kind == FindingKind::kRace) {
    // report_race format:
    //   "<obj>": <A> conflicts with <B> (...; prior access at t=<N>ns
    //   held [<locks>])
    // The object and the held lockset identify the site; the actor pair
    // and the stamp vary with the schedule.
    const std::size_t obj_end =
        message.size() > 1 ? message.find('"', 1) : std::string::npos;
    const std::string obj = obj_end == std::string::npos
                                ? message
                                : message.substr(0, obj_end + 1);
    const std::size_t held = message.rfind("held [");
    return key + obj + "|" +
           (held == std::string::npos ? "" : message.substr(held));
  }
  if (kind == FindingKind::kContextViolation) {
    // report_context format: "<actor>: <detail>" -- the detail names the
    // violated contract and the primitive; the actor is schedule-bound.
    const std::size_t sep = message.find(": ");
    return key + strip_time_stamps(
                     sep == std::string::npos ? message
                                              : message.substr(sep + 2));
  }
  return key + strip_time_stamps(message);
}

namespace {

/// Shard store (leaked: tap sites may run from static destructors). Shard 0
/// is created eagerly so pre-partitioned call sites see one instance.
std::vector<Analyzer*>& shard_store() {
  static auto* shards = new std::vector<Analyzer*>{new Analyzer()};
  return *shards;
}

}  // namespace

void Analyzer::publish_table() {
  auto& shards = shard_store();
  table_ = shards.data();
  table_size_ = static_cast<int>(shards.size());
}

namespace {
// Publish before main(), while the process has one thread, so worker
// threads never race on the lazy first publication in global().
[[maybe_unused]] const bool kTablePublished =
    (Analyzer::publish_table(), true);
}  // namespace

void Analyzer::configure_shards(int n) {
  auto& shards = shard_store();
  while (shards.size() < static_cast<std::size_t>(n > 1 ? n : 1)) {
    shards.push_back(new Analyzer());
  }
  publish_table();
}

int Analyzer::num_shards() {
  return static_cast<int>(shard_store().size());
}

Analyzer& Analyzer::shard(int i) {
  return *shard_store().at(static_cast<std::size_t>(i));
}

std::size_t Analyzer::merged_total_findings() {
  std::size_t total = 0;
  for (const auto& s : shard_store()) total += s->total_findings();
  return total;
}

namespace {

/// Shard findings grouped by canonical site, first instance first: with
/// workers > 1 every partition shard observes its own copy of a shared
/// racing site, and the merged report should name the site once, not once
/// per shard.
struct MergedEntry {
  const Finding* finding;
  std::size_t count;
};

std::vector<MergedEntry> merged_entries(
    const std::vector<Analyzer*>& shards) {
  std::vector<MergedEntry> entries;
  std::unordered_map<std::string, std::size_t> index;
  for (const auto& s : shards) {
    for (const Finding& f : s->findings()) {
      const std::string key = canonical_site_key(f.kind, f.rule, f.message);
      const auto [it, fresh] = index.try_emplace(key, entries.size());
      if (fresh) {
        entries.push_back(MergedEntry{&f, 1});
      } else {
        ++entries[it->second].count;
      }
    }
  }
  return entries;
}

}  // namespace

std::string Analyzer::merged_report_json() {
  auto& shards = shard_store();
  std::size_t races = 0, cycles = 0, ctx = 0;
  for (const auto& s : shards) {
    races += s->races_;
    cycles += s->cycles_;
    ctx += s->ctx_violations_;
  }
  std::string out = "{\"races\":" + std::to_string(races) +
                    ",\"lock_order_cycles\":" + std::to_string(cycles) +
                    ",\"context_violations\":" + std::to_string(ctx) +
                    ",\"findings\":[";
  bool first = true;
  for (const MergedEntry& e : merged_entries(shards)) {
    if (!first) out += ",";
    first = false;
    append_finding_json(out, *e.finding, e.count);
  }
  out += "]}";
  return out;
}

void Analyzer::merged_print_report(std::FILE* out) {
  auto& shards = shard_store();
  std::size_t races = 0, cycles = 0, ctx = 0, recorded = 0;
  for (const auto& s : shards) {
    races += s->races_;
    cycles += s->cycles_;
    ctx += s->ctx_violations_;
    recorded += s->findings_.size();
  }
  std::fprintf(out,
               "simsan: %zu race(s), %zu lock-order cycle(s), %zu context "
               "violation(s)\n",
               races, cycles, ctx);
  for (const MergedEntry& e : merged_entries(shards)) {
    const Finding& f = *e.finding;
    if (e.count > 1) {
      std::fprintf(out, "[simsan] t=%lluns %s (%s): %s (x%zu)\n",
                   static_cast<unsigned long long>(f.time_ns),
                   to_string(f.kind), f.rule.c_str(), f.message.c_str(),
                   e.count);
    } else {
      std::fprintf(out, "[simsan] t=%lluns %s (%s): %s\n",
                   static_cast<unsigned long long>(f.time_ns),
                   to_string(f.kind), f.rule.c_str(), f.message.c_str());
    }
  }
  const std::size_t total = races + cycles + ctx;
  if (total > recorded) {
    std::fprintf(out, "[simsan] ... %zu further finding(s) not recorded\n",
                 total - recorded);
  }
}

void Analyzer::set_enabled(bool on) {
  if (on && !enabled_) {
    auto& reg = obs::MetricsRegistry::global();
    m_races_ = reg.counter({"simsan", "", -1, "races"});
    m_cycles_ = reg.counter({"simsan", "", -1, "lock_order_cycles"});
    m_ctx_ = reg.counter({"simsan", "", -1, "context_violations"});
  }
  enabled_ = on;
}

void Analyzer::reset() {
  ++epoch_;
  actors_.clear();
  thread_actors_.clear();
  hook_actors_.clear();
  locks_.clear();
  objects_.clear();
  order_adj_.clear();
  order_edges_.clear();
  reported_cycles_.clear();
  reported_races_.clear();
  reported_ctx_.clear();
  findings_.clear();
  races_ = 0;
  cycles_ = 0;
  ctx_violations_ = 0;
}

// --- identity ---------------------------------------------------------------

std::uint32_t Analyzer::thread_actor(const void* key, const std::string& name) {
  auto [it, inserted] =
      thread_actors_.emplace(key, static_cast<std::uint32_t>(actors_.size()));
  if (inserted) {
    ActorState a;
    a.name = name;
    a.kind = ActorKind::kThread;
    a.clock.resize(actors_.size() + 1, 0);
    a.clock[actors_.size()] = 1;
    actors_.push_back(std::move(a));
  }
  return it->second;
}

std::uint32_t Analyzer::hook_actor(const void* machine, int core,
                                   const std::string& node_name) {
  auto [it, inserted] = hook_actors_.emplace(
      std::make_pair(machine, core), static_cast<std::uint32_t>(actors_.size()));
  if (inserted) {
    ActorState a;
    a.name = node_name + ".hook" + std::to_string(core);
    a.kind = ActorKind::kHook;
    a.clock.resize(actors_.size() + 1, 0);
    a.clock[actors_.size()] = 1;
    actors_.push_back(std::move(a));
  }
  return it->second;
}

std::uint32_t Analyzer::intern_slot(SlotTag& tag, const std::string& name) {
  tag.id = static_cast<std::uint32_t>(locks_.size());
  tag.epoch = epoch_;
  locks_.push_back(LockState{name, Clock{}});
  return tag.id;
}

// --- clock helpers ----------------------------------------------------------

void Analyzer::join(Clock& a, const Clock& b) {
  if (b.size() > a.size()) a.resize(b.size(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) a[i] = std::max(a[i], b[i]);
}

std::uint32_t Analyzer::tick(ActorState& a, std::uint32_t self) {
  if (a.clock.size() <= self) a.clock.resize(self + 1, 0);
  return ++a.clock[self];
}

bool Analyzer::ordered_before(const Access& prev,
                              const ActorState& cur) const {
  if (prev.actor >= cur.clock.size()) return false;
  return cur.clock[prev.actor] >= prev.at;
}

bool Analyzer::share_lock(const std::vector<std::uint32_t>& a,
                          const std::vector<std::uint32_t>& b) {
  for (std::uint32_t la : a) {
    for (std::uint32_t lb : b) {
      if (la == lb) return true;
    }
  }
  return false;
}

// --- events -----------------------------------------------------------------

void Analyzer::on_acquire(std::uint32_t actor, std::uint32_t lock,
                          bool blocking) {
  if (!enabled_ || actor == kNoActor) return;
  ActorState& a = actors_[actor];
  LockState& l = locks_[lock];
  join(a.clock, l.clock);
  if (blocking) {
    const bool reentrant =
        std::find(a.held.begin(), a.held.end(), lock) != a.held.end();
    if (reentrant) {
      const std::string key = "reentrant:" + std::to_string(lock) + ":" +
                              std::to_string(actor);
      if (reported_cycles_.insert(key).second) {
        ++cycles_;
        m_cycles_.add_always(1);
        add_finding(FindingKind::kLockOrderCycle, "self-deadlock",
                    actor_name(actor) + " blocking-acquires \"" + l.name +
                        "\" while already holding it");
      }
    } else {
      for (std::uint32_t h : a.held) add_order_edge(h, lock, actor);
    }
  }
  a.held.push_back(lock);
}

void Analyzer::on_release(std::uint32_t actor, std::uint32_t lock) {
  if (!enabled_ || actor == kNoActor) return;
  ActorState& a = actors_[actor];
  LockState& l = locks_[lock];
  // Join (not assign): conservative, extra ordering never creates a false
  // positive.
  join(l.clock, a.clock);
  tick(a, actor);
  auto it = std::find(a.held.rbegin(), a.held.rend(), lock);
  if (it != a.held.rend()) a.held.erase(std::next(it).base());
}

void Analyzer::hb_release(std::uint32_t actor, std::uint32_t slot) {
  if (!enabled_ || actor == kNoActor) return;
  ActorState& a = actors_[actor];
  join(locks_[slot].clock, a.clock);
  tick(a, actor);
}

void Analyzer::hb_acquire(std::uint32_t actor, std::uint32_t slot) {
  if (!enabled_ || actor == kNoActor) return;
  join(actors_[actor].clock, locks_[slot].clock);
}

void Analyzer::on_wake(std::uint32_t src, std::uint32_t dst) {
  if (!enabled_ || src == kNoActor || dst == kNoActor || src == dst) return;
  ActorState& s = actors_[src];
  join(actors_[dst].clock, s.clock);
  tick(s, src);
}

void Analyzer::on_block(std::uint32_t actor, const char* what) {
  if (!enabled_ || actor == kNoActor) return;
  const ActorState& a = actors_[actor];
  if (a.held.empty()) return;
  const std::string key = "block-spin:" + std::to_string(actor) + ":" + what +
                          ":" + std::to_string(a.held[0]);
  if (!reported_ctx_.insert(key).second) return;
  ++ctx_violations_;
  m_ctx_.add_always(1);
  add_finding(FindingKind::kContextViolation, "block-while-spinlock-held",
              actor_name(actor) + " enters blocking " + what +
                  " while holding spinlock(s) " + lock_names(a.held));
}

void Analyzer::on_access(std::uint32_t actor, Shared& obj, bool is_write) {
  if (!enabled_ || actor == kNoActor) return;
  const std::uint32_t obj_id = lock_slot(obj.tag_, obj.name_);
  // Object state is kept parallel to the slot table (slots are shared
  // between locks and objects; an id is only ever used as one or the other).
  if (objects_.size() <= obj_id) objects_.resize(obj_id + 1);
  ObjState& o = objects_[obj_id];
  o.name = obj.name_;
  ActorState& a = actors_[actor];
  const std::uint32_t at = a.clock.size() > actor ? a.clock[actor] : 0;
  const std::uint64_t time_ns = now();

  const Access& w = o.last_write;
  if (w.actor != kNoActor && w.actor != actor && !ordered_before(w, a) &&
      !share_lock(w.locks, a.held)) {
    report_race(is_write ? "write-write-race" : "read-write-race", w, actor,
                o, obj_id);
  }
  Access* cur = nullptr;
  if (is_write) {
    for (const Access& r : o.reads) {
      if (r.actor != actor && !ordered_before(r, a) &&
          !share_lock(r.locks, a.held)) {
        report_race("write-read-race", r, actor, o, obj_id);
      }
    }
    o.reads.clear();
    cur = &o.last_write;
  } else {
    auto it = std::find_if(o.reads.begin(), o.reads.end(),
                           [&](const Access& r) { return r.actor == actor; });
    cur = it != o.reads.end() ? &*it : &o.reads.emplace_back();
  }
  // Recorded in place: the entry's lock vector keeps its capacity, so the
  // steady state allocates nothing.
  cur->actor = actor;
  cur->at = at;
  cur->locks.assign(a.held.begin(), a.held.end());
  cur->time_ns = time_ns;
}

bool Analyzer::report_context(std::uint32_t actor, const char* rule,
                              const std::string& detail) {
  if (!enabled_) return false;
  const std::string key = std::string(rule) + ":" + detail;
  if (reported_ctx_.insert(key).second) {
    ++ctx_violations_;
    m_ctx_.add_always(1);
    add_finding(FindingKind::kContextViolation, rule,
                (actor == kNoActor ? std::string("<engine>")
                                   : actor_name(actor)) +
                    ": " + detail);
  }
  return true;
}

// --- findings ---------------------------------------------------------------

void Analyzer::add_finding(FindingKind kind, const char* rule,
                           std::string message) {
  if (findings_.size() >= kMaxFindings) return;
  findings_.push_back(Finding{kind, rule, std::move(message), now()});
}

void Analyzer::report_race(const char* rule, const Access& prev,
                           std::uint32_t actor, const ObjState& obj,
                           std::uint32_t obj_id) {
  const std::uint32_t lo = std::min(prev.actor, actor);
  const std::uint32_t hi = std::max(prev.actor, actor);
  const std::uint64_t key = (static_cast<std::uint64_t>(obj_id) << 32) |
                            (static_cast<std::uint64_t>(lo) << 16) | hi;
  if (!reported_races_.insert(key).second) return;
  ++races_;
  m_races_.add_always(1);
  add_finding(FindingKind::kRace, rule,
              "\"" + obj.name + "\": " + actor_name(actor) +
                  " conflicts with " + actor_name(prev.actor) +
                  " (no common lock, unordered by happens-before; prior "
                  "access at t=" +
                  std::to_string(prev.time_ns) + "ns held [" +
                  lock_names(prev.locks) + "])");
}

void Analyzer::add_order_edge(std::uint32_t from, std::uint32_t to,
                              std::uint32_t actor) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(from) << 32) | to;
  if (!order_edges_.insert(key).second) return;
  if (order_adj_.size() <= std::max(from, to)) {
    order_adj_.resize(std::max(from, to) + 1);
  }
  order_adj_[from].push_back(to);
  // New edge from->to closes a cycle iff `from` was already reachable from
  // `to`. The graph is tiny (a handful of named locks), so a DFS per new
  // edge is fine.
  std::vector<std::uint32_t> path;
  if (!find_path(to, from, path)) return;
  // Cycle members: to -> ... -> from -> to.
  std::vector<std::uint32_t> members = path;
  std::vector<std::uint32_t> canon = members;
  std::sort(canon.begin(), canon.end());
  std::string ckey;
  for (std::uint32_t m : canon) ckey += std::to_string(m) + ",";
  if (!reported_cycles_.insert(ckey).second) return;
  ++cycles_;
  m_cycles_.add_always(1);
  std::string msg = "lock order cycle closed by " + actor_name(actor) +
                    " acquiring \"" + locks_[to].name + "\" while holding \"" +
                    locks_[from].name + "\": cycle ";
  for (std::uint32_t m : members) msg += "\"" + locks_[m].name + "\" -> ";
  msg += "\"" + locks_[to].name + "\"";
  add_finding(FindingKind::kLockOrderCycle, "lock-order-cycle",
              std::move(msg));
}

bool Analyzer::find_path(std::uint32_t from, std::uint32_t to,
                         std::vector<std::uint32_t>& path) const {
  if (from >= order_adj_.size()) return false;
  path.push_back(from);
  if (from == to) return true;
  for (std::uint32_t next : order_adj_[from]) {
    // The path also serves as the visited set; lock graphs here are small
    // and acyclic until the first finding.
    if (std::find(path.begin(), path.end(), next) != path.end()) continue;
    if (find_path(next, to, path)) return true;
  }
  path.pop_back();
  return false;
}

// --- reporting --------------------------------------------------------------

std::string Analyzer::actor_name(std::uint32_t a) const {
  if (a >= actors_.size()) return "actor" + std::to_string(a);
  return actors_[a].name;
}

std::string Analyzer::lock_names(const std::vector<std::uint32_t>& locks) const {
  if (locks.empty()) return "<none>";
  std::string out;
  for (std::size_t i = 0; i < locks.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + locks_[locks[i]].name + "\"";
  }
  return out;
}

std::string Analyzer::report_json() const {
  std::string out = "{\"races\":" + std::to_string(races_) +
                    ",\"lock_order_cycles\":" + std::to_string(cycles_) +
                    ",\"context_violations\":" + std::to_string(ctx_violations_) +
                    ",\"findings\":[";
  for (std::size_t i = 0; i < findings_.size(); ++i) {
    if (i > 0) out += ",";
    append_finding_json(out, findings_[i]);
  }
  out += "]}";
  return out;
}

void Analyzer::print_report(std::FILE* out) const {
  std::fprintf(out,
               "simsan: %zu race(s), %zu lock-order cycle(s), %zu context "
               "violation(s)\n",
               races_, cycles_, ctx_violations_);
  for (const Finding& f : findings_) {
    std::fprintf(out, "[simsan] t=%lluns %s (%s): %s\n",
                 static_cast<unsigned long long>(f.time_ns),
                 to_string(f.kind), f.rule.c_str(), f.message.c_str());
  }
  if (total_findings() > findings_.size()) {
    std::fprintf(out, "[simsan] ... %zu further finding(s) not recorded\n",
                 total_findings() - findings_.size());
  }
}

}  // namespace pm2::san
