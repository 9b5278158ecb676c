// Wall-clock elapsed time for solver stats and bench timings. Wall times
// are reported beside results and never enter a fingerprint.

#ifndef THRIFTY_COMMON_STOPWATCH_H_
#define THRIFTY_COMMON_STOPWATCH_H_

#include <chrono>

namespace thrifty {

/// \brief Seconds elapsed on the steady clock since `since`.
inline double SecondsSince(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

}  // namespace thrifty

#endif  // THRIFTY_COMMON_STOPWATCH_H_
