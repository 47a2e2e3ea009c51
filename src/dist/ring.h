// Consistent-hash ring for trace routing (ISSUE 9 tentpole).
//
// The router must support adding shard processes to a live fleet:
// mod-hashing would re-key nearly every program, invalidating every shard's
// accumulated trees at once, while a consistent ring moves only ~1/(n+1) of
// the key space to the newcomer. The ring is the hive's only routing
// function: in-process SimNet fleets and socket fleets both route by it.
// Each shard projects `vnodes_per_shard` points onto the 64-bit ring
// (splitmix-mixed, so placement is deterministic and well spread); a key is
// owned by the first point clockwise from its hash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace softborg::dist {

class HashRing {
 public:
  explicit HashRing(std::size_t num_shards, std::size_t vnodes_per_shard = 64);

  std::size_t num_shards() const { return num_shards_; }

  // Which shard owns `key` (binary search over the sorted points).
  std::size_t owner(std::uint64_t key) const;

  // Adds shard `num_shards()` to the ring. Existing keys either keep their
  // owner or move to the new shard — never between old shards (the property
  // tests pin this).
  void add_shard();

 private:
  void insert_points(std::size_t shard);

  std::size_t num_shards_ = 0;
  std::size_t vnodes_ = 0;
  // (ring position, shard), sorted by position.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
};

}  // namespace softborg::dist
