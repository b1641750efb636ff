#include "nmad/endpoint.hpp"

#include "simthread/scheduler.hpp"

namespace pm2::nm {

Endpoint::Endpoint(mth::Scheduler& sched, const Config& cfg, int id,
                   int count, std::string name, int max_rails,
                   int home_partition)
    : id_(id),
      name_(std::move(name)),
      home_partition_(home_partition),
      // Endpoint 0 keeps the historical "nm-*" lock names; higher endpoints
      // suffix the prefix so lock metrics and simsan reports stay apart.
      locks_(sched, cfg.lock, max_rails,
             id == 0 ? "nm" : "nm-ep" + std::to_string(id)),
      strategy_(cfg.strategy) {
  src_to_gate_.resize(static_cast<std::size_t>(max_rails));
  san_deferred_.set_name(name_ + ".deferred");
  if (count > 1) {
    auto& reg = obs::MetricsRegistry::global();
    const std::string& node = sched.machine().name();
    m_sends_ = reg.counter({"nmad.ep", node, id, "sends"});
    m_recvs_ = reg.counter({"nmad.ep", node, id, "recvs"});
    m_steals_ = reg.counter({"nmad.ep", node, id, "steals"});
  }
}

}  // namespace pm2::nm
