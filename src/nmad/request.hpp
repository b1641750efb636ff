// pm2sim -- communication requests (the objects behind nm_isend / nm_irecv).
#pragma once

#include <cstdint>
#include <cstring>

#include "nmad/types.hpp"
#include "sync/completion_flag.hpp"

namespace pm2::nm {

class Core;
class Gate;

enum class ReqKind : std::uint8_t { kSend, kRecv };

/// One outstanding communication operation. Created by Core::isend/irecv,
/// waited on with Core::wait/test, returned to the Core with
/// Core::release (wait does not release, so the result remains queryable).
class Request {
 public:
  Request(mth::Scheduler& sched, std::uint64_t id)
      : flag_(sched, "req"), id_(id) {}

  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  ReqKind kind() const { return kind_; }
  Gate* gate() const { return gate_; }
  Tag tag() const { return tag_; }
  std::uint64_t id() const { return id_; }

  /// Endpoint this request routes through (tag % ClusterConfig::endpoints; for
  /// wildcard receives, bound at match time).
  int endpoint() const { return ep_; }

  /// For receives: the tag of the matched message (differs from tag() only
  /// for kAnyTag receives; valid once matched).
  Tag matched_tag() const { return matched_tag_; }

  /// Host-side (unpriced) completion peek.
  bool completed() const { return flag_.is_set(); }

  /// For completed receives: number of bytes received.
  std::size_t received_length() const { return filled_; }

  /// Message length (send: full message; recv: known once matched).
  std::size_t total_length() const { return total_len_; }

  /// The waitable completion flag (priced access).
  sync::CompletionFlag& flag() { return flag_; }

  /// Flow-trace id (nonzero only while a FlowTracer is attached to the
  /// core); shared by the send and recv requests of one message.
  std::uint64_t flow_id() const { return flow_id_; }

 private:
  friend class Core;
  friend class Strategy;  // submission accounting (inflight chunks)

  /// Land @p len bytes at message offset @p offset of the receive buffer.
  void copy_in(std::size_t offset, const std::uint8_t* src, std::size_t len) {
    if (len > 0) std::memcpy(recv_buf_ + offset, src, len);
  }

  sync::CompletionFlag flag_;
  std::uint64_t id_;
  ReqKind kind_ = ReqKind::kSend;
  int ep_ = 0;  ///< owning endpoint (tag % endpoints; 0 on 1-endpoint cores)
  Gate* gate_ = nullptr;
  Tag tag_ = 0;
  Tag matched_tag_ = 0;
  std::uint32_t msg_seq_ = 0;
  bool seq_bound_ = false;  ///< recv: matched to a wire msg_seq

  // Send side.
  const std::uint8_t* send_data_ = nullptr;
  unsigned inflight_chunks_ = 0;  ///< posted to a NIC, wire not done yet
  bool fully_submitted_ = false;  ///< all bytes handed to the transfer layer
  bool rdv_granted_ = false;      ///< CTS received

  // Receive side.
  std::uint8_t* recv_buf_ = nullptr;
  std::size_t capacity_ = 0;
  std::uint16_t host_copies_ = 0;  ///< host memcpys this message's bytes took

  std::size_t total_len_ = 0;
  std::size_t filled_ = 0;  ///< send: bytes submitted; recv: bytes landed

  std::uint64_t flow_id_ = 0;  ///< observability only; never drives protocol

  bool released_ = false;  ///< on the core's free list
};

}  // namespace pm2::nm
