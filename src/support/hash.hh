/**
 * @file
 * The splitmix64 finalizer: the bit mixer behind the ring placement,
 * request fingerprints, trace ids, the evaluation memo and the result
 * cache's key hash and snapshot checksum.  Its outputs are pinned by
 * those layers' tests, so it must never change.
 */

#ifndef JITSCHED_SUPPORT_HASH_HH
#define JITSCHED_SUPPORT_HASH_HH

#include <cstdint>

namespace jitsched {

/** SplitMix64 finalizer of @p x + the golden-ratio increment. */
inline constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace jitsched

#endif // JITSCHED_SUPPORT_HASH_HH
