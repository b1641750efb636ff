#include "nmad/wire_format.hpp"

#include <cassert>
#include <cstring>

namespace pm2::nm {

const char* to_string(ChunkKind k) {
  switch (k) {
    case ChunkKind::kEager: return "eager";
    case ChunkKind::kRts: return "rts";
    case ChunkKind::kCts: return "cts";
    case ChunkKind::kRdvData: return "rdv-data";
  }
  return "?";
}

namespace {

template <typename T>
void put(std::vector<std::uint8_t>& buf, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

template <typename T>
bool get(const std::uint8_t* buf, std::size_t size, std::size_t& pos, T* out) {
  if (pos + sizeof(T) > size) return false;
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(buf[pos + i]) << (8 * i);
  }
  pos += sizeof(T);
  *out = v;
  return true;
}

}  // namespace

// --------------------------------------------------------------------------
// PacketBuilder
// --------------------------------------------------------------------------

PacketBuilder::PacketBuilder() = default;

void PacketBuilder::open_header() {
  // The chunk-count slot, written by take(); it comes first, so the header
  // region allocates with the first chunk, not when the builder is built.
  if (hdr_.empty()) put<std::uint16_t>(hdr_, 0);
}

void PacketBuilder::reserve(std::size_t chunks, std::size_t data_bytes) {
  hdr_.reserve(2 + chunks * ChunkHeader::kWireSize);
  segs_.reserve(chunks);
  if (data_bytes > 0 && data_used_ + data_bytes > data_.capacity()) {
    grow_data(data_used_ + data_bytes);
  }
}

void PacketBuilder::put_header(const ChunkHeader& h) {
  assert(h.msg_seq < ChunkHeader::kMaxSeq && "msg_seq overflows the seq word");
  open_header();
  put<std::uint8_t>(hdr_, static_cast<std::uint8_t>(h.kind));
  put<std::uint64_t>(hdr_, h.tag);
  put<std::uint32_t>(hdr_, (static_cast<std::uint32_t>(h.ep) << 24) |
                               (h.msg_seq & (ChunkHeader::kMaxSeq - 1)));
  put<std::uint32_t>(hdr_, h.offset);
  put<std::uint32_t>(hdr_, h.chunk_len);
  put<std::uint32_t>(hdr_, h.total_len);
  put<std::uint64_t>(hdr_, h.cookie);
  wire_size_ += ChunkHeader::kWireSize + h.chunk_len;
}

void PacketBuilder::grow_data(std::size_t need) {
  net::SlabRef bigger = net::BufferPool::global().acquire(need);
  if (data_used_ > 0) {
    std::memcpy(bigger.data(), data_.data(), data_used_);
  }
  data_ = std::move(bigger);
}

void PacketBuilder::add_chunk(const ChunkHeader& h, const std::uint8_t* data) {
  assert((data != nullptr || h.chunk_len == 0) && "null data with bytes");
  put_header(h);
  Seg seg;
  seg.slab_off = static_cast<std::uint32_t>(data_used_);
  seg.len = h.chunk_len;
  segs_.push_back(seg);
  if (h.chunk_len == 0) return;
  if (data_used_ + h.chunk_len > data_.capacity()) {
    grow_data(data_used_ + h.chunk_len);
  }
  std::memcpy(data_.data() + data_used_, data, h.chunk_len);
  data_used_ += h.chunk_len;
}

void PacketBuilder::add_chunk_placed(const ChunkHeader& h) {
  put_header(h);
  Seg seg;
  seg.len = h.chunk_len;
  seg.mode = SegMode::kPlaced;
  segs_.push_back(seg);
}

void PacketBuilder::annotate_last(void* note) {
  assert(!segs_.empty());
  segs_.back().note = note;
}

net::Payload PacketBuilder::take() {
  assert(segs_.size() <= 0xFFFF);
  const std::size_t count = segs_.size();
  open_header();
  hdr_[0] = static_cast<std::uint8_t>(count & 0xFF);
  hdr_[1] = static_cast<std::uint8_t>(count >> 8);
  net::SlabRef hdr = net::BufferPool::global().acquire(hdr_.size());
  std::memcpy(hdr.data(), hdr_.data(), hdr_.size());

  std::vector<net::PayloadView> views;
  views.reserve(count);
  for (const Seg& seg : segs_) {
    net::PayloadView v;
    v.len = seg.len;
    v.note = seg.note;
    if (seg.mode == SegMode::kPlaced) {
      v.placed = true;
    } else if (seg.len > 0) {
      v.data = data_.data() + seg.slab_off;
    }
    views.push_back(v);
  }
  net::Payload out = net::Payload::segmented(
      std::move(hdr), static_cast<std::uint32_t>(hdr_.size()),
      std::move(data_), std::move(views));

  hdr_.clear();
  segs_.clear();
  data_used_ = 0;
  wire_size_ = 2;
  return out;
}

// --------------------------------------------------------------------------
// PacketReader
// --------------------------------------------------------------------------

PacketReader::PacketReader(const std::vector<std::uint8_t>& payload)
    : buf_(payload.data()), buf_len_(payload.size()) {
  std::uint16_t count = 0;
  if (!get(buf_, buf_len_, pos_, &count)) {
    ok_ = false;
    return;
  }
  remaining_ = count;
}

PacketReader::PacketReader(const net::Payload& payload) {
  if (payload.flat()) {
    buf_ = payload.flat_bytes().data();
    buf_len_ = payload.flat_bytes().size();
  } else {
    buf_ = payload.header_bytes();
    buf_len_ = payload.header_len();
    seg_payload_ = &payload;
  }
  std::uint16_t count = 0;
  if (!get(buf_, buf_len_, pos_, &count)) {
    ok_ = false;
    return;
  }
  remaining_ = count;
}

std::optional<ChunkHeader> PacketReader::next(const std::uint8_t** data_out,
                                              void** note_out) {
  if (!ok_ || remaining_ == 0) return std::nullopt;
  ChunkHeader h;
  std::uint8_t kind = 0;
  std::uint32_t seq_word = 0;
  if (!get(buf_, buf_len_, pos_, &kind) ||
      !get(buf_, buf_len_, pos_, &h.tag) ||
      !get(buf_, buf_len_, pos_, &seq_word) ||
      !get(buf_, buf_len_, pos_, &h.offset) ||
      !get(buf_, buf_len_, pos_, &h.chunk_len) ||
      !get(buf_, buf_len_, pos_, &h.total_len) ||
      !get(buf_, buf_len_, pos_, &h.cookie)) {
    ok_ = false;
    return std::nullopt;
  }
  h.kind = static_cast<ChunkKind>(kind);
  h.ep = static_cast<std::uint8_t>(seq_word >> 24);
  h.msg_seq = seq_word & (ChunkHeader::kMaxSeq - 1);
  if (kind < 1 || kind > 4) {
    ok_ = false;
    return std::nullopt;
  }
  if (note_out != nullptr) *note_out = nullptr;
  if (seg_payload_ != nullptr) {
    if (seg_index_ >= seg_payload_->segments()) {
      ok_ = false;
      return std::nullopt;
    }
    const net::PayloadView& seg = seg_payload_->segment(seg_index_++);
    if (seg.len != h.chunk_len) {
      ok_ = false;
      return std::nullopt;
    }
    *data_out = seg.data;
    if (note_out != nullptr) *note_out = seg.note;
  } else {
    if (pos_ + h.chunk_len > buf_len_) {
      ok_ = false;
      return std::nullopt;
    }
    *data_out = h.chunk_len > 0 ? buf_ + pos_ : nullptr;
    pos_ += h.chunk_len;
  }
  --remaining_;
  return h;
}

std::uint8_t peek_packet_ep(const net::Payload& payload) {
  // Layout: u16 chunk_count, then the first header: kind (1) + tag (8) +
  // seq word (4, endpoint id in the high byte) + ... -- the ep byte sits at
  // offset 2 + 1 + 8 + 3 = 14 of the header region.
  constexpr std::size_t kEpByte = 2 + 1 + 8 + 3;
  const std::uint8_t* buf;
  std::size_t len;
  if (payload.flat()) {
    buf = payload.flat_bytes().data();
    len = payload.flat_bytes().size();
  } else {
    buf = payload.header_bytes();
    len = payload.header_len();
  }
  return len > kEpByte ? buf[kEpByte] : 0;
}

}  // namespace pm2::nm
