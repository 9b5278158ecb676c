// Test oracle: the dense interval -> epoch-bitmap discretization.
//
// The historical epochization pipeline materialized one d-bit bitmap per
// tenant (one bit per epoch) and compressed it into a sparse
// ActivityVector afterwards. Production builds the sparse words directly
// (activity/streamed_epochizer.h) and never allocates the Θ(d) bitmap;
// this oracle keeps the dense construction so tests can cross-check the
// streamed pipeline word for word, and size the working state it avoids.

#ifndef THRIFTY_TESTS_ORACLES_DENSE_EPOCHIZER_H_
#define THRIFTY_TESTS_ORACLES_DENSE_EPOCHIZER_H_

#include "activity/epoch.h"
#include "common/bitmap.h"
#include "common/interval.h"

namespace thrifty {

/// \brief Discretizes activity intervals onto the epoch grid as a dense
/// bitmap: an epoch is set iff some interval overlaps it (interval ends are
/// exclusive, and intervals are clipped to the grid's horizon).
DynamicBitmap IntervalsToBitmap(const IntervalSet& intervals,
                                const EpochConfig& epochs);

}  // namespace thrifty

#endif  // THRIFTY_TESTS_ORACLES_DENSE_EPOCHIZER_H_
