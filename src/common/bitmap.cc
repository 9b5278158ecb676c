#include "common/bitmap.h"

#include <algorithm>

#include "common/simd.h"

namespace thrifty {

size_t PopcountWords(const uint64_t* words, size_t count) {
  return simd::SpanPopcount(words, count);
}

void DynamicBitmap::SetRange(size_t begin, size_t end) {
  end = std::min(end, num_bits_);
  if (begin >= end) return;
  size_t first_word = begin >> 6;
  size_t last_word = (end - 1) >> 6;
  uint64_t first_mask = ~uint64_t{0} << (begin & 63);
  uint64_t last_mask = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (first_word == last_word) {
    words_[first_word] |= first_mask & last_mask;
    return;
  }
  words_[first_word] |= first_mask;
  for (size_t w = first_word + 1; w < last_word; ++w) words_[w] = ~uint64_t{0};
  words_[last_word] |= last_mask;
}

size_t DynamicBitmap::Popcount() const {
  return PopcountWords(words_.data(), words_.size());
}

}  // namespace thrifty
