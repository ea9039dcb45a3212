// The one stateless hash every seeded draw in the simulator derives from.
#pragma once

#include <cstdint>

namespace mip::sim {

/// splitmix64 finalizer: a cheap avalanche mix. Pure and stateless — the
/// determinism contract (DESIGN §10) leans on every "random" draw being
/// a function of values like this, so adjacent seeds or indices land far
/// apart without any RNG state to share.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

}  // namespace mip::sim
