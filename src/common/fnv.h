// FNV-1a 64-bit hashing.
//
// The one fingerprint function used everywhere byte-identity is asserted:
// bench result tables, deployment-plan membership streams, event logs, and
// controller trajectories all hash through this so fingerprints recorded in
// results/BENCH_*.json are comparable across binaries and dispatch targets.

#ifndef THRIFTY_COMMON_FNV_H_
#define THRIFTY_COMMON_FNV_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace thrifty {

inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// \brief FNV-1a over a byte string, optionally chained from a prior hash.
inline uint64_t Fnv1a64(std::string_view bytes,
                        uint64_t hash = kFnv1a64Offset) {
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnv1a64Prime;
  }
  return hash;
}

/// \brief Formats a 64-bit fingerprint as 16 lowercase hex digits — the
/// one printed form of every fingerprint.
inline std::string Hex64(uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

}  // namespace thrifty

#endif  // THRIFTY_COMMON_FNV_H_
