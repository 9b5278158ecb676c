#include "oracles/dense_epochizer.h"

#include <algorithm>

namespace thrifty {

DynamicBitmap IntervalsToBitmap(const IntervalSet& intervals,
                                const EpochConfig& epochs) {
  DynamicBitmap bits(epochs.NumEpochs());
  for (const auto& iv : intervals.intervals()) {
    SimTime begin = std::max(iv.begin, epochs.begin);
    SimTime end = std::min(iv.end, epochs.end);
    if (begin >= end) continue;
    size_t first = epochs.EpochOf(begin);
    // end is exclusive; an interval touching an epoch boundary does not
    // occupy the next epoch.
    size_t last = epochs.EpochOf(end - 1);
    bits.SetRange(first, last + 1);
  }
  return bits;
}

}  // namespace thrifty
