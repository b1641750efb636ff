#include "simexplore/explore.hpp"

#include <cstdlib>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "obs/report.hpp"
#include "simcore/engine.hpp"
#include "simsan/simsan.hpp"

namespace pm2::xpl {

namespace {

/// Rolling hash over an executed choice prefix: two candidates forcing the
/// same decision sequence from the same states collapse onto one hash,
/// which is what the sleep-set pruner dedups on.
std::uint64_t roll(std::uint64_t h, const Step& s, int chosen) {
  Fingerprint f;
  f.mix(h);
  f.mix(static_cast<std::uint64_t>(s.site));
  f.mix(s.fingerprint);
  f.mix(static_cast<std::uint64_t>(s.options));
  f.mix(static_cast<std::uint64_t>(chosen));
  return f.value();
}

std::uint64_t trace_hash(const std::vector<Step>& steps) {
  std::uint64_t h = 0;
  for (const Step& s : steps) h = roll(h, s, s.chosen);
  return h;
}

void reset_analyzer_shards() {
  for (int i = 0; i < san::Analyzer::num_shards(); ++i) {
    san::Analyzer::shard(i).reset();
  }
}

std::string livelock_message(sim::Time at, std::uint64_t fp,
                             std::uint64_t completions, sim::Time horizon) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "starvation limit cycle: no completion for %lldns of virtual "
                "time, scheduler state %#018llx recurring at t=%lldns (%llu "
                "completion(s) before the stall)",
                static_cast<long long>(horizon),
                static_cast<unsigned long long>(fp), static_cast<long long>(at),
                static_cast<unsigned long long>(completions));
  return buf;
}

}  // namespace

std::string sanitize_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out += ok ? c : '-';
  }
  return out.empty() ? std::string("explore") : out;
}

// --- ReplayToken ------------------------------------------------------------

std::string ReplayToken::encode() const {
  std::string out = "PM2XPL1 seed=" + std::to_string(seed) +
                    " label=" + sanitize_label(label) + " choices=";
  bool any = false;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (choices[i] == 0) continue;
    if (any) out += ",";
    out += std::to_string(i) + ":" + std::to_string(choices[i]);
    any = true;
  }
  if (!any) out += "-";
  return out;
}

bool ReplayToken::decode(const std::string& line, ReplayToken* out) {
  const std::string magic = "PM2XPL1";
  std::size_t pos = line.find(magic);
  if (pos == std::string::npos) return false;
  pos += magic.size();
  ReplayToken tok;
  bool have_choices = false;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    const std::size_t end = line.find(' ', pos);
    const std::string field =
        line.substr(pos, end == std::string::npos ? end : end - pos);
    pos = end == std::string::npos ? line.size() : end;
    if (field.rfind("seed=", 0) == 0) {
      tok.seed = std::strtoull(field.c_str() + 5, nullptr, 10);
    } else if (field.rfind("label=", 0) == 0) {
      tok.label = field.substr(6);
    } else if (field.rfind("choices=", 0) == 0) {
      have_choices = true;
      const std::string body = field.substr(8);
      if (body != "-" && !body.empty()) {
        const char* p = body.c_str();
        while (*p != '\0') {
          char* colon = nullptr;
          const long idx = std::strtol(p, &colon, 10);
          if (colon == nullptr || *colon != ':' || idx < 0) return false;
          char* after = nullptr;
          const long val = std::strtol(colon + 1, &after, 10);
          if (after == colon + 1 || val < 0) return false;
          if (tok.choices.size() <= static_cast<std::size_t>(idx)) {
            tok.choices.resize(static_cast<std::size_t>(idx) + 1, 0);
          }
          tok.choices[static_cast<std::size_t>(idx)] = static_cast<int>(val);
          p = after;
          if (*p == ',') ++p;
        }
      }
    }
  }
  if (!have_choices) return false;
  *out = std::move(tok);
  return true;
}

// --- RunHandle --------------------------------------------------------------

void RunHandle::watch(sim::Engine& engine) const {
  Ctrl::global().watch([&engine] { return engine.now(); },
                       [&engine] { engine.stop(); }, liveness_);
}

// --- ExploreReport ----------------------------------------------------------

std::size_t ExploreReport::count(const std::string& kind) const {
  std::size_t n = 0;
  for (const AggFinding& f : findings) {
    if (f.kind == kind) ++n;
  }
  return n;
}

std::string ExploreReport::to_json() const {
  std::string out = "{\"label\":";
  obs::append_json_string(out, label);
  out += ",\"bound\":" + std::to_string(bound) +
         ",\"budget\":" + std::to_string(budget) +
         ",\"schedules_run\":" + std::to_string(schedules_run) +
         ",\"schedules_pruned\":" + std::to_string(schedules_pruned) +
         ",\"frontier_exhausted\":" +
         (frontier_exhausted ? "true" : "false") +
         ",\"livelock\":" + (livelock ? "true" : "false") + ",\"findings\":[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const AggFinding& f = findings[i];
    out += "{\"kind\":";
    obs::append_json_string(out, f.kind);
    out += ",\"rule\":";
    obs::append_json_string(out, f.rule);
    out += ",\"occurrences\":" + std::to_string(f.occurrences) +
           ",\"first_schedule\":" + std::to_string(f.first_schedule) +
           ",\"first_divergence\":" + std::to_string(f.first_divergence) +
           ",\"replay\":";
    obs::append_json_string(out, f.replay_token);
    out += ",\"message\":";
    obs::append_json_string(out, f.message);
    out += "}";
    if (i + 1 < findings.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

void ExploreReport::print(std::FILE* out) const {
  std::fprintf(out,
               "explore [%s]: %d schedule(s) at bound %d (%d pruned, "
               "budget %d%s), %zu finding site(s)%s\n",
               label.c_str(), schedules_run, bound, schedules_pruned, budget,
               frontier_exhausted ? ", space exhausted" : ", budget-capped",
               findings.size(), livelock ? ", LIVELOCK" : "");
  for (const AggFinding& f : findings) {
    std::fprintf(out,
                 "[explore] %s (%s) x%d, first at schedule %d (divergence "
                 "step %d)\n          %s\n          replay: %s\n",
                 f.kind.c_str(), f.rule.c_str(), f.occurrences,
                 f.first_schedule, f.first_divergence, f.message.c_str(),
                 f.replay_token.c_str());
  }
}

// --- explorer ---------------------------------------------------------------

ExploreReport explore(const ExploreConfig& cfg, const Scenario& scenario) {
  ExploreReport rep;
  rep.label = cfg.label;
  rep.bound = cfg.max_preemptions > 0 ? cfg.max_preemptions : 0;
  rep.budget = cfg.budget > 0 ? cfg.budget : 1;

  std::deque<std::vector<int>> frontier;
  frontier.emplace_back();
  std::unordered_set<std::uint64_t> visited;
  std::unordered_map<std::string, std::size_t> index;
  bool truncated = false;
  Ctrl& ctrl = Ctrl::global();

  while (!frontier.empty() && rep.schedules_run < rep.budget) {
    std::vector<int> forced = std::move(frontier.front());
    frontier.pop_front();

    reset_analyzer_shards();
    ctrl.begin(forced);
    const RunHandle handle(cfg.seed, cfg.liveness);
    scenario(handle);
    const bool live = ctrl.livelock_detected();
    const sim::Time live_at = ctrl.livelock_time();
    const std::uint64_t live_fp = ctrl.livelock_fingerprint();
    const std::uint64_t completions = ctrl.completions();
    const std::vector<Step> steps = ctrl.end();

    const int sched = rep.schedules_run++;
    int first_div = -1;
    int bound_used = 0;
    for (std::size_t j = 0; j < forced.size(); ++j) {
      if (forced[j] != 0) {
        if (first_div < 0) first_div = static_cast<int>(j);
        ++bound_used;
      }
    }
    ReplayToken tok;
    tok.seed = cfg.seed;
    tok.label = cfg.label;
    tok.choices = forced;
    const std::string token = tok.encode();

    const auto record = [&](const char* kind, const std::string& rule,
                            const std::string& message,
                            const std::string& key) {
      const auto [it, fresh] = index.try_emplace(key, rep.findings.size());
      if (fresh) {
        rep.findings.push_back(
            AggFinding{kind, rule, message, key, 1, sched, first_div, token});
      } else {
        ++rep.findings[it->second].occurrences;
      }
    };

    for (int i = 0; i < san::Analyzer::num_shards(); ++i) {
      for (const san::Finding& f : san::Analyzer::shard(i).findings()) {
        record(san::to_string(f.kind), f.rule, f.message,
               san::canonical_site_key(f.kind, f.rule, f.message));
      }
    }
    if (live) {
      rep.livelock = true;
      record("liveness", "liveness.livelock",
             livelock_message(live_at, live_fp, completions,
                              cfg.liveness.horizon),
             "liveness|livelock");
    }

    // Iterative preemption bounding: children force one extra non-default
    // choice at a step past this schedule's own forced prefix (so every
    // candidate is generated exactly once), and a child whose forced
    // decision sequence was already scheduled from another parent is
    // pruned by its rolling prefix hash.
    if (bound_used < rep.bound) {
      std::uint64_t prefix = 0;
      for (std::size_t j = 0; j < steps.size() && !truncated; ++j) {
        if (j >= forced.size()) {
          for (int o = 1; o < steps[j].options; ++o) {
            if (rep.schedules_run + static_cast<int>(frontier.size()) >=
                rep.budget) {
              truncated = true;
              break;
            }
            const std::uint64_t child_hash = roll(prefix, steps[j], o);
            if (!visited.insert(child_hash).second) {
              ++rep.schedules_pruned;
              continue;
            }
            std::vector<int> child;
            child.reserve(j + 1);
            for (std::size_t m = 0; m < j; ++m) {
              child.push_back(steps[m].chosen);
            }
            child.push_back(o);
            frontier.push_back(std::move(child));
          }
        }
        prefix = roll(prefix, steps[j], steps[j].chosen);
      }
    }
  }
  rep.frontier_exhausted = frontier.empty() && !truncated;
  return rep;
}

ReplayOutcome replay(const ReplayToken& token, const Scenario& scenario,
                     Ctrl::LivenessConfig liveness) {
  Ctrl& ctrl = Ctrl::global();
  reset_analyzer_shards();
  ctrl.begin(token.choices);
  const RunHandle handle(token.seed, liveness);
  scenario(handle);
  ReplayOutcome out;
  out.livelock = ctrl.livelock_detected();
  out.livelock_time = ctrl.livelock_time();
  out.findings = san::Analyzer::merged_total_findings();
  out.steps = ctrl.steps_seen();
  out.schedule_hash = trace_hash(ctrl.end());
  return out;
}

}  // namespace pm2::xpl
