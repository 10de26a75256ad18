#include "cluster/osd_map.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/random.h"

namespace gdedup {

ActingSet::ActingSet(const std::vector<OsdId>& osds) {
  assert(osds.size() <= static_cast<size_t>(kCapacity));
  n_ = static_cast<uint32_t>(osds.size());
  std::copy(osds.begin(), osds.end(), osds_.begin());
}

void OsdMap::add_osd(OsdId id, HostId host, double weight) {
  crush_.add_device(id, host, weight);
  up_[id] = true;
  epoch_++;
  rebuild_placement();
}

void OsdMap::mark_down(OsdId id) {
  assert(up_.count(id));
  if (up_[id]) {
    up_[id] = false;
    epoch_++;
    rebuild_placement();
  }
}

void OsdMap::mark_up(OsdId id) {
  assert(up_.count(id));
  if (!up_[id]) {
    up_[id] = true;
    epoch_++;
    rebuild_placement();
  }
}

bool OsdMap::is_up(OsdId id) const {
  auto it = up_.find(id);
  return it != up_.end() && it->second;
}

std::vector<OsdId> OsdMap::up_osds() const {
  std::vector<OsdId> out;
  for (const auto& [id, up] : up_) {
    if (up) out.push_back(id);
  }
  return out;
}

PoolId OsdMap::create_pool(PoolConfig cfg) {
  assert(cfg.pg_num > 0);
  if (cfg.size() > ActingSet::kCapacity) {
    std::fprintf(stderr, "pool %s: size %d exceeds %d\n", cfg.name.c_str(),
                 cfg.size(), ActingSet::kCapacity);
    std::abort();
  }
  const PoolId id = next_pool_++;
  pools_[id] = std::move(cfg);
  epoch_++;
  rebuild_placement();
  return id;
}

const PoolConfig& OsdMap::pool(PoolId id) const {
  auto it = pools_.find(id);
  assert(it != pools_.end());
  return it->second;
}

void OsdMap::set_dedup(PoolId id, const DedupTierConfig& dedup) {
  auto it = pools_.find(id);
  assert(it != pools_.end());
  it->second.dedup = dedup;
  epoch_++;
}

std::optional<PoolId> OsdMap::pool_by_name(const std::string& name) const {
  for (const auto& [id, cfg] : pools_) {
    if (cfg.name == name) return id;
  }
  return std::nullopt;
}

std::vector<PoolId> OsdMap::pool_ids() const {
  std::vector<PoolId> out;
  out.reserve(pools_.size());
  for (const auto& [id, cfg] : pools_) out.push_back(id);
  return out;
}

uint64_t OsdMap::placement_seed(PoolId pool, uint32_t pg) {
  return mix64((static_cast<uint64_t>(pool) << 32) | pg);
}

void OsdMap::rebuild_placement() {
  // Lookups read the table without a lock, so a rebuild while shard
  // workers run would race them; see the header comment.  Checked in
  // every build type: rebuilds are rare and the check is one load.
  if (sim_parallel_phase()) {
    std::fprintf(stderr, "osdmap: map changed inside a parallel window\n");
    std::abort();
  }
  std::vector<OsdId> down;
  for (const auto& [id, up] : up_) {
    if (!up) down.push_back(id);
  }
  placement_.assign(static_cast<size_t>(next_pool_), {});
  for (const auto& [id, cfg] : pools_) {
    std::vector<ActingSet>& t = placement_[static_cast<size_t>(id)];
    t.reserve(cfg.pg_num);
    for (uint32_t pg = 0; pg < cfg.pg_num; pg++) {
      t.emplace_back(crush_.select(placement_seed(id, pg), cfg.size(), down));
    }
  }
}

}  // namespace gdedup
