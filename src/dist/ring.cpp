#include "dist/ring.h"

#include <algorithm>

#include "common/check.h"

namespace softborg::dist {

namespace {

// SplitMix64 finalizer, a well-studied avalanche, so placement quality is a
// known quantity.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

HashRing::HashRing(std::size_t num_shards, std::size_t vnodes_per_shard)
    : vnodes_(vnodes_per_shard) {
  SB_CHECK(num_shards >= 1 && vnodes_per_shard >= 1);
  points_.reserve(num_shards * vnodes_per_shard);
  for (std::size_t s = 0; s < num_shards; ++s) {
    num_shards_ = s + 1;
    insert_points(s);
  }
}

void HashRing::insert_points(std::size_t shard) {
  for (std::size_t v = 0; v < vnodes_; ++v) {
    // Distinct stream per (shard, vnode); the 0x9e37… odd constant keeps
    // shard streams disjoint for any vnode count.
    const std::uint64_t pos =
        mix(shard * 0x9e3779b97f4a7c15ULL + v + 1);
    points_.emplace_back(pos, static_cast<std::uint32_t>(shard));
  }
  std::sort(points_.begin(), points_.end());
}

std::size_t HashRing::owner(std::uint64_t key) const {
  const std::uint64_t h = mix(key);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const auto& point, std::uint64_t value) { return point.first < value; });
  if (it == points_.end()) it = points_.begin();  // wrap past the top
  return it->second;
}

void HashRing::add_shard() {
  insert_points(num_shards_);
  num_shards_++;
}

}  // namespace softborg::dist
