// The clock the streaming service's Tick() reads.
//
// The discrete-event SimEngine owns simulated time for experiments; the
// streaming service instead reads a manually advanced VirtualClock, which
// tests, soaks and byte-deterministic replay all pin.
// Determinism contract: nothing downstream of the clock may branch on
// *when* Now() is sampled beyond recording it — the streaming service writes
// every sampled time into its event log, so a replay never consults a clock.

#ifndef THRIFTY_SIM_CLOCK_SOURCE_H_
#define THRIFTY_SIM_CLOCK_SOURCE_H_

#include "common/sim_time.h"

namespace thrifty {

/// \brief Manually advanced monotone millisecond clock.
class VirtualClock {
 public:
  explicit VirtualClock(SimTime start = 0) : now_(start) {}

  /// \brief Milliseconds since the clock's origin; never decreases.
  SimTime Now() const { return now_; }

  /// \brief Moves the clock to `t`; ignores moves into the past (the clock
  /// is monotone by contract).
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

  void Advance(SimDuration delta) {
    if (delta > 0) now_ += delta;
  }

 private:
  SimTime now_;
};

}  // namespace thrifty

#endif  // THRIFTY_SIM_CLOCK_SOURCE_H_
