#pragma once

// Shared fixtures/helpers for the cluster-level tests.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/random.h"
#include "dedup/recipe.h"
#include "rados/cluster.h"
#include "rados/sync.h"

namespace gdedup::testutil {

inline ClusterConfig small_cluster_config() {
  ClusterConfig cfg;  // paper defaults: 4 nodes x 4 OSDs, 3 clients
  return cfg;
}

inline Buffer random_buffer(size_t n, uint64_t seed) {
  Buffer b(n);
  Rng rng(seed);
  rng.fill(b.mutable_data(), n);
  return b;
}

// Default tier parameters used by the dedup tests: 32KB static chunks,
// aggressive engine, rate control off (tests drive determinism; the rate
// controller has its own tests and benches).
inline DedupTierConfig test_tier_config(uint32_t chunk_size = 32 * 1024) {
  DedupTierConfig t;
  t.mode = DedupMode::kPostProcess;
  t.chunk_size = chunk_size;
  t.rate_control = false;
  t.engine_tick = msec(50);
  t.max_dedup_per_tick = 128;
  t.hitcount_threshold = 1000000;  // effectively "nothing is hot"
  t.promote_on_read = false;
  return t;
}

// Load the persisted chunk map of `oid` from one OSD's local store,
// resolving recipe indirection (a no-op in default mode, where every
// entry has an inline omap record).
inline ChunkMap load_map_at(Cluster& c, OsdId osd, PoolId pool,
                            const std::string& oid) {
  const ObjectStore* st = c.osd(osd)->store_if_exists(pool);
  if (st == nullptr) return ChunkMap();
  auto r = load_chunk_map_resolved(&c, *st, {pool, oid});
  return r.is_ok() ? std::move(r).value() : ChunkMap();
}

// A cluster with a replicated metadata pool tiered onto a replicated
// chunk pool, dedup enabled.
struct DedupHarness {
  std::unique_ptr<Cluster> cluster;
  PoolId meta = -1;
  PoolId chunks = -1;
  std::unique_ptr<RadosClient> client;

  explicit DedupHarness(DedupTierConfig tier,
                        ClusterConfig ccfg = small_cluster_config(),
                        RedundancyScheme chunk_scheme =
                            RedundancyScheme::kReplicated) {
    cluster = std::make_unique<Cluster>(ccfg);
    meta = cluster->create_replicated_pool("meta", 2);
    if (chunk_scheme == RedundancyScheme::kReplicated) {
      chunks = cluster->create_replicated_pool("chunks", 2);
    } else {
      chunks = cluster->create_ec_pool("chunks", 2, 1);
    }
    cluster->enable_dedup(meta, chunks, tier);
    client = std::make_unique<RadosClient>(cluster.get(),
                                           cluster->client_node(0));
  }

  Status write(const std::string& oid, uint64_t off, Buffer data) {
    return sync_write(*cluster, *client, meta, oid, off, std::move(data));
  }
  Result<Buffer> read(const std::string& oid, uint64_t off, uint64_t len) {
    return sync_read(*cluster, *client, meta, oid, off, len);
  }
  bool drain() { return cluster->drain_dedup(); }
  // Sum of tier counter `idx` (an l_tier_* index) over the meta pool.
  uint64_t tier(int idx) const { return cluster->counter_sum(idx, meta); }

  // Total refcount entries across all chunk objects (from primary copies).
  uint64_t total_chunk_refs() {
    uint64_t total = 0;
    for (Osd* o : cluster->osds()) {
      const ObjectStore* st = o->store_if_exists(chunks);
      if (st == nullptr) continue;
      for (const auto& key : st->list(chunks)) {
        if (cluster->osdmap().primary(chunks, key.oid) != o->id()) continue;
        auto raw = st->getxattr(key, kRefsXattr);
        if (!raw.is_ok()) continue;
        auto refs = decode_refs(raw.value());
        if (refs.is_ok()) total += refs->size();
      }
    }
    return total;
  }

  // Number of distinct chunk objects (counted at primaries).
  uint64_t chunk_object_count() {
    uint64_t n = 0;
    for (Osd* o : cluster->osds()) {
      const ObjectStore* st = o->store_if_exists(chunks);
      if (st == nullptr) continue;
      for (const auto& key : st->list(chunks)) {
        if (cluster->osdmap().primary(chunks, key.oid) == o->id()) n++;
      }
    }
    return n;
  }

  // Check invariant 3 of DESIGN.md: every chunk-map reference is matched
  // by a ref entry on the chunk object, and vice versa.
  ::testing::AssertionResult refcounts_consistent();
};

inline ::testing::AssertionResult DedupHarness::refcounts_consistent() {
  // Gather references held by chunk maps (primary metadata objects only).
  std::map<std::string, std::set<std::string>> held;  // chunk oid -> refs
  for (Osd* o : cluster->osds()) {
    const ObjectStore* st = o->store_if_exists(meta);
    if (st == nullptr) continue;
    for (const auto& key : st->list(meta)) {
      if (cluster->osdmap().primary(meta, key.oid) != o->id()) continue;
      auto cm = load_chunk_map_resolved(cluster.get(), *st, key);
      if (!cm.is_ok()) {
        return ::testing::AssertionFailure()
               << "corrupt chunk map on " << key.oid;
      }
      if (cm->unresolved()) {
        return ::testing::AssertionFailure()
               << "unresolvable recipe chunks on " << key.oid;
      }
      for (const auto& [off, e] : cm->entries()) {
        if (e.flushed()) {
          held[e.chunk_id].insert(key.oid + "@" + std::to_string(off));
        }
      }
      for (const auto& [base, rec] : cm->recipes()) {
        held[rec.chunk_id].insert(key.oid + "@" +
                                  std::to_string(kRecipeRefBit | base));
      }
    }
  }
  // Gather refs recorded on chunk objects.
  std::map<std::string, std::set<std::string>> recorded;
  for (Osd* o : cluster->osds()) {
    const ObjectStore* st = o->store_if_exists(chunks);
    if (st == nullptr) continue;
    for (const auto& key : st->list(chunks)) {
      if (cluster->osdmap().primary(chunks, key.oid) != o->id()) continue;
      auto raw = st->getxattr(key, kRefsXattr);
      if (!raw.is_ok()) {
        return ::testing::AssertionFailure()
               << "chunk " << key.oid << " missing refs xattr";
      }
      auto refs = decode_refs(raw.value());
      if (!refs.is_ok()) {
        return ::testing::AssertionFailure()
               << "chunk " << key.oid << " refs undecodable";
      }
      for (const auto& r : refs.value()) {
        recorded[key.oid].insert(r.oid + "@" + std::to_string(r.offset));
      }
    }
  }
  // held must be a subset of recorded (a crash may leave an extra recorded
  // ref pending redo, but never a held-but-unrecorded one), and every
  // chunk object must have at least one recorded ref.
  for (const auto& [cid, hs] : held) {
    auto it = recorded.find(cid);
    if (it == recorded.end()) {
      return ::testing::AssertionFailure()
             << "chunk map references missing chunk object " << cid;
    }
    for (const auto& r : hs) {
      if (!it->second.count(r)) {
        return ::testing::AssertionFailure()
               << "chunk " << cid << " lacks ref entry " << r;
      }
    }
  }
  for (const auto& [cid, rs] : recorded) {
    if (rs.empty()) {
      return ::testing::AssertionFailure()
             << "chunk " << cid << " exists with zero refs";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace gdedup::testutil
