// Delivery checker: every payload encodes its (channel, seq), so a receiver
// can tell a right delivery from a corrupted or misordered one.
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"

namespace pb {
namespace {

std::uint64_t payload_base(std::uint32_t channel, std::uint32_t seq) {
  return mix64((std::uint64_t{channel} << 32) | seq);
}

/// Walks the payload of (channel, seq) word by word, handing each word and
/// its byte span to @p fn; stops early when @p fn returns false.
template <typename Fn>
bool for_each_word(std::uint32_t channel, std::uint32_t seq, std::size_t len,
                   Fn&& fn) {
  const std::uint64_t base = payload_base(channel, seq);
  std::size_t off = 0;
  std::uint64_t i = 0;
  if (len >= 8) {
    const std::uint64_t head = (std::uint64_t{seq} << 32) | channel;
    if (!fn(head, off, std::size_t{8})) return false;
    off = 8;
    i = 1;
  }
  for (; off < len; off += 8, ++i) {
    const std::size_t n = len - off < 8 ? len - off : 8;
    if (!fn(mix64(base + i), off, n)) return false;
  }
  return true;
}

bool matches(std::uint32_t channel, std::uint32_t seq, const std::uint8_t* buf,
             std::size_t len) {
  return for_each_word(channel, seq, len,
                       [buf](std::uint64_t w, std::size_t off, std::size_t n) {
                         return std::memcmp(buf + off, &w, n) == 0;
                       });
}

}  // namespace

void fill_payload(std::uint32_t channel, std::uint32_t seq, std::uint8_t* buf,
                  std::size_t len) {
  for_each_word(channel, seq, len,
                [buf](std::uint64_t w, std::size_t off, std::size_t n) {
                  std::memcpy(buf + off, &w, n);
                  return true;
                });
}

Verdict check_payload(std::uint32_t channel, std::uint32_t seq,
                      std::size_t expected_len, const std::uint8_t* buf,
                      std::size_t got_len) {
  if (got_len == expected_len && matches(channel, seq, buf, got_len)) {
    return Verdict::kOk;
  }
  if (got_len >= 8) {
    std::uint32_t head[2];
    std::memcpy(head, buf, sizeof(head));
    if (head[0] == channel && head[1] != seq &&
        matches(channel, head[1], buf, got_len)) {
      return Verdict::kMisordered;
    }
  }
  return Verdict::kCorrupt;
}

std::string checker_self_test() {
  const std::uint32_t kChannel = 3;
  const std::vector<std::size_t> sizes = {1, 7, 8, 64, 300, 2048, 5, 1000};
  std::vector<std::vector<std::uint8_t>> sent(sizes.size());
  for (std::uint32_t s = 0; s < sizes.size(); ++s) {
    sent[s].resize(sizes[s]);
    fill_payload(kChannel, s, sent[s].data(), sizes[s]);
  }
  // Deliver `order[k]`'s bytes to the receive posted for message k.
  auto failures = [&](const std::vector<std::size_t>& order,
                      const std::vector<std::vector<std::uint8_t>>& bytes) {
    int n = 0;
    for (std::uint32_t k = 0; k < sizes.size(); ++k) {
      const auto& got = bytes[order[k]];
      if (check_payload(kChannel, k, sizes[k], got.data(), got.size()) !=
          Verdict::kOk) {
        ++n;
      }
    }
    return n;
  };
  const std::vector<std::size_t> in_order = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::size_t> swapped = {0, 1, 2, 4, 3, 5, 6, 7};
  auto flipped = sent;
  flipped[5][100] ^= 0x01;

  std::string why;
  if (const int n = failures(in_order, sent); n != 0) {
    why += "clean stream: " + std::to_string(n) + " failures, want 0; ";
  }
  if (const int n = failures(swapped, sent); n != 2) {
    why += "swapped pair: " + std::to_string(n) + " failures, want 2; ";
  }
  if (check_payload(kChannel, 3, sizes[3], sent[4].data(), sent[4].size()) !=
      Verdict::kMisordered) {
    why += "swapped delivery not classified as misordered; ";
  }
  if (const int n = failures(in_order, flipped); n != 1) {
    why += "flipped byte: " + std::to_string(n) + " failures, want 1; ";
  }
  return why;
}

}  // namespace pb
