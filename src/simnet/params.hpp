// pm2sim -- NIC/fabric parameter sets.
//
// The timing model of one message of S bytes posted at time T:
//
//   caller CPU   : tx_post_cost + S * tx_copy_per_byte      (charged to ctx)
//   NIC pipeline : tx_dma_delay, then the wire is occupied
//                  S * wire_ns_per_byte (serialization; back-to-back
//                  packets queue behind tx_busy_until)
//   propagation  : wire_latency
//   rx NIC       : rx_deliver_delay, then the packet is visible to poll()
//   receiver CPU : poll_hit_cost + S * rx_copy_per_byte      (charged by the
//                  caller of poll() / the copying layer)
//
// The presets are calibrated against the paper's testbed (Sec. 2): Myri-10G
// with MX 1.2.7 (the hardware behind Figs. 3-9), ConnectX IB DDR (the paper
// reports "similar results"), and a slow TCP/GigE profile used by tests and
// examples to exercise heterogeneous-rail configurations.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>

#include "simcore/time.hpp"

namespace pm2::net {

using sim::Time;

/// Time to move @p bytes at @p ns_per_byte (a wire, PIO or copy rate),
/// rounded to the nearest nanosecond.
inline Time byte_time(double ns_per_byte, std::size_t bytes) {
  return static_cast<Time>(
      std::llround(ns_per_byte * static_cast<double>(bytes)));
}

struct NicParams {
  std::string name = "nic";

  // Host-side CPU costs. Like MX, the model distinguishes PIO (the CPU
  // copies every byte into the NIC window; cheap setup, per-byte cost) from
  // DMA (the NIC pulls from pinned host memory; constant setup, no CPU
  // per-byte cost). Messages up to pio_threshold use PIO.
  Time tx_post_cost = 300;        ///< descriptor write + doorbell
  double tx_copy_per_byte = 0.6;  ///< PIO staging copy, ns per byte
  std::size_t pio_threshold = 2048;  ///< above this, DMA replaces PIO
  Time tx_dma_setup = 400;        ///< pin/map + descriptor for a DMA send
  Time poll_empty_cost = 80;      ///< completion-queue check, nothing there
  Time poll_hit_cost = 150;       ///< completion-queue check with an entry
  double rx_copy_per_byte = 0.6;  ///< ring -> user buffer copy, ns per byte
  Time rx_match_cost = 300;       ///< matched large recv: DMA lands in place

  // NIC / wire timing.
  Time tx_dma_delay = 200;         ///< host memory -> NIC
  double wire_ns_per_byte = 0.8;   ///< 10 Gb/s => 0.8 ns per byte
  Time wire_latency = 1200;        ///< propagation + switch
  Time rx_deliver_delay = 200;     ///< NIC -> host memory, completion write

  /// Maximum number of messages the NIC accepts before post_send() refuses
  /// (the transfer layer keeps its own backlog above this).
  int tx_queue_depth = 8;

  /// Myri-10G / MX 1.2.7: ~3 us one-way small-message latency once the
  /// library costs above it are added, ~2 ns/byte effective slope.
  static NicParams myri10g();

  /// ConnectX InfiniBand DDR: slightly lower wire latency, higher bandwidth.
  static NicParams connectx_ib();

  /// TCP over GigE: the slow profile (tens of microseconds, kernel stack).
  static NicParams tcp_gige();
};

}  // namespace pm2::net
