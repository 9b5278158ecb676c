// Packed bitmaps over epoch indices.
//
// DynamicBitmap stores one bit per epoch and exposes the word-level access
// the tenant-grouping inner loop needs: candidate-evaluation in the two-step
// heuristic runs word-parallel boolean algebra restricted to the candidate's
// nonzero words (see activity/level_set.h).

#ifndef THRIFTY_COMMON_BITMAP_H_
#define THRIFTY_COMMON_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace thrifty {

/// \brief Number of set bits in `count` words.
size_t PopcountWords(const uint64_t* words, size_t count);

/// \brief Fixed-size packed bitmap (one bit per epoch index).
class DynamicBitmap {
 public:
  DynamicBitmap() = default;

  /// \brief Creates a bitmap of `num_bits` zero bits.
  explicit DynamicBitmap(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  size_t num_bits() const { return num_bits_; }
  size_t num_words() const { return words_.size(); }

  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  /// \brief Sets all bits in [begin, end) (clamped to the bitmap size).
  void SetRange(size_t begin, size_t end);

  /// \brief Number of set bits.
  size_t Popcount() const;

  uint64_t word(size_t w) const { return words_[w]; }
  uint64_t& mutable_word(size_t w) { return words_[w]; }
  const uint64_t* data() const { return words_.data(); }

  bool operator==(const DynamicBitmap& other) const = default;

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace thrifty

#endif  // THRIFTY_COMMON_BITMAP_H_
