#include "cluster/ring.hh"

#include <algorithm>

#include "support/hash.hh"
#include "support/logging.hh"

namespace jitsched {
namespace cluster {

HashRing::HashRing(std::size_t backends, std::size_t vnodes)
    : backends_(backends)
{
    if (backends == 0)
        JITSCHED_PANIC("a hash ring needs at least one backend");
    if (vnodes == 0)
        JITSCHED_PANIC("vnodes must be >= 1");
    points_.reserve(backends * vnodes);
    for (std::size_t b = 0; b < backends; ++b)
        for (std::size_t v = 0; v < vnodes; ++v)
            points_.push_back(
                {mix64(mix64(b + 1) ^ mix64(v)), b});
    std::sort(points_.begin(), points_.end());
}

std::size_t
HashRing::ownerOf(std::uint64_t fingerprint) const
{
    // First point strictly after the key, wrapping at the top.
    auto it = std::upper_bound(
        points_.begin(), points_.end(),
        Point{fingerprint, backends_}); // backend field > any real id
    if (it == points_.end())
        it = points_.begin();
    return it->backend;
}

std::vector<std::size_t>
HashRing::ownerChain(std::uint64_t fingerprint) const
{
    std::vector<std::size_t> chain;
    chain.reserve(backends_);
    std::vector<bool> seen(backends_, false);
    auto it = std::upper_bound(
        points_.begin(), points_.end(),
        Point{fingerprint, backends_});
    for (std::size_t walked = 0;
         walked < points_.size() && chain.size() < backends_;
         ++walked, ++it) {
        if (it == points_.end())
            it = points_.begin();
        if (!seen[it->backend]) {
            seen[it->backend] = true;
            chain.push_back(it->backend);
        }
    }
    return chain;
}

} // namespace cluster
} // namespace jitsched
