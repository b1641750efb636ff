// pm2sim -- fixed-size bitmap with a find-next-set query.
//
// Progression engines keep "which of N things has work" as one bit each and
// walk only the set bits: next(from) skips 64 idle entries per word, so a
// walk costs O(set bits + N / 64) instead of O(N).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace pm2::sim {

class Bitmap {
 public:
  explicit Bitmap(int n = 0) { resize(n); }

  /// Resize to @p n bits, all clear.
  void resize(int n) {
    words_.assign(static_cast<std::size_t>((n + 63) / 64), 0);
  }

  void set(int i) { words_[word(i)] |= bit(i); }
  void reset(int i) { words_[word(i)] &= ~bit(i); }
  bool test(int i) const { return (words_[word(i)] & bit(i)) != 0; }

  /// Lowest set index >= @p from, or -1 if there is none.
  int next(int from) const {
    std::size_t w = word(from);
    if (w >= words_.size()) return -1;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++w == words_.size()) return -1;
      bits = words_[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(bits);
  }

 private:
  static std::size_t word(int i) { return static_cast<std::size_t>(i) >> 6; }
  static std::uint64_t bit(int i) { return std::uint64_t{1} << (i & 63); }

  std::vector<std::uint64_t> words_;
};

}  // namespace pm2::sim
