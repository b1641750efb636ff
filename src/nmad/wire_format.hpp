// pm2sim -- on-the-wire format of NewMadeleine packets.
//
// A NIC packet payload carries one or more *chunks*, each with a fixed
// binary header. Headers are serialized as real little-endian bytes; chunk
// data is carried as an iovec-style segment list alongside the header
// region (net::Payload), one segment per chunk, so building a packet never
// re-copies payload bytes that already live in a stable buffer.
//
// Wire layout (what linearize() reproduces and flat packets carry):
//   packet payload := u16 chunk_count, chunk*
//   chunk          := ChunkHeader (37 bytes), data[chunk_len]
//
// Chunk kinds:
//   kEager   -- (a slice of) a small message; offset/total support both
//               aggregation (several chunks per packet) and splitting
//               (several packets per message, multirail).
//   kRts     -- rendezvous request: announces (tag, msg_seq, total_len);
//               cookie identifies the sender's request.
//   kCts     -- rendezvous grant: echoes the cookie.
//   kRdvData -- (a slice of) rendezvous bulk data, sent on trk 1. When the
//               receive buffer is already known (the CTS told the sender),
//               the chunk is *placed*: it occupies wire bytes but carries
//               no host bytes -- the modeled DMA landed them directly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nmad/types.hpp"
#include "simnet/packet.hpp"

namespace pm2::nm {

enum class ChunkKind : std::uint8_t {
  kEager = 1,
  kRts = 2,
  kCts = 3,
  kRdvData = 4,
};

const char* to_string(ChunkKind k);

struct ChunkHeader {
  ChunkKind kind = ChunkKind::kEager;
  Tag tag = 0;
  std::uint32_t msg_seq = 0;    ///< per-gate, per-direction message number
  std::uint32_t offset = 0;     ///< byte offset of this chunk in the message
  std::uint32_t chunk_len = 0;  ///< bytes of data following this header
  std::uint32_t total_len = 0;  ///< total message length
  std::uint64_t cookie = 0;     ///< rendezvous correlation id
  /// Originating endpoint (scalable-endpoints routing): the receiver
  /// demultiplexes the chunk to its endpoint of the same index, so
  /// rendezvous placements and matching resolve against the owning
  /// endpoint's state. Packed into the high 8 bits of the msg_seq wire
  /// word (msg_seq is per-(endpoint, gate) and capped at 2^24), so the
  /// wire size -- and the whole byte stream at endpoints = 1 -- is
  /// unchanged.
  std::uint8_t ep = 0;

  /// Serialized size of a chunk header in bytes.
  static constexpr std::size_t kWireSize = 1 + 8 + 4 + 4 + 4 + 4 + 8;

  /// Number of msg_seq values available per (endpoint, gate) direction.
  static constexpr std::uint32_t kMaxSeq = 1u << 24;
};

/// Endpoint id of the first chunk of a packet payload without full
/// decoding (the rx demultiplex peek). All chunks of one packet originate
/// from the same endpoint (packets are arranged per (endpoint, gate)).
/// Returns 0 on malformed/empty payloads (the reader reports those).
std::uint8_t peek_packet_ep(const net::Payload& payload);

/// Incrementally builds a packet payload. Chunk data is gathered once into
/// a pooled slab (or marked placed, carrying no bytes); headers live in a
/// reused header region. take() emits a segmented net::Payload.
class PacketBuilder {
 public:
  PacketBuilder();

  /// Pre-size for @p chunks headers and @p data_bytes of gathered data
  /// (growth hint; never required for correctness).
  void reserve(std::size_t chunks, std::size_t data_bytes);

  /// Append one chunk, gathering h.chunk_len bytes of @p data. @p data may
  /// be null iff h.chunk_len == 0.
  void add_chunk(const ChunkHeader& h, const std::uint8_t* data);

  /// Append one *placed* chunk: h.chunk_len wire bytes, no host bytes.
  void add_chunk_placed(const ChunkHeader& h);

  /// Attach a host-only annotation to the most recently added chunk.
  void annotate_last(void* note);

  std::size_t chunk_count() const { return segs_.size(); }
  std::size_t payload_size() const { return wire_size_; }

  /// Size the payload would have after adding a chunk of @p data_len bytes.
  std::size_t size_with(std::size_t data_len) const {
    return wire_size_ + ChunkHeader::kWireSize + data_len;
  }

  /// Finalize and take the payload. The builder is reset for reuse.
  net::Payload take();

 private:
  void put_header(const ChunkHeader& h);
  void grow_data(std::size_t need);

  enum class SegMode : std::uint8_t { kGathered, kPlaced };
  struct Seg {
    std::uint32_t slab_off = 0;  ///< into the data slab (kGathered)
    std::uint32_t len = 0;
    SegMode mode = SegMode::kGathered;
    void* note = nullptr;
  };

  std::vector<std::uint8_t> hdr_;  ///< count slot + serialized headers
  std::vector<Seg> segs_;
  net::SlabRef data_;
  std::size_t data_used_ = 0;
  std::size_t wire_size_ = 2;
};

/// Decodes a packet payload chunk by chunk. Works on both flat byte
/// payloads (raw injection) and segmented ones.
class PacketReader {
 public:
  explicit PacketReader(const std::vector<std::uint8_t>& payload);
  explicit PacketReader(const net::Payload& payload);

  /// Chunks remaining.
  std::size_t remaining() const { return remaining_; }

  /// Read the next chunk. Returns nullopt (and poisons the reader) on a
  /// malformed payload. @p data_out receives a pointer to the chunk data
  /// (null for placed chunks); @p note_out, if given, the chunk's host
  /// annotation.
  std::optional<ChunkHeader> next(const std::uint8_t** data_out,
                                  void** note_out = nullptr);

  /// True if the payload was well-formed so far.
  bool ok() const { return ok_; }

 private:
  const std::uint8_t* buf_ = nullptr;  ///< flat bytes, or the header region
  std::size_t buf_len_ = 0;
  const net::Payload* seg_payload_ = nullptr;  ///< non-null in segmented mode
  std::size_t seg_index_ = 0;
  std::size_t pos_ = 0;
  std::size_t remaining_ = 0;
  bool ok_ = true;
};

}  // namespace pm2::nm
