// Cluster expansion / rebalancing: adding OSDs remaps a minimal share of
// placement, backfill populates the newcomers, and dedup state rides along
// (the paper's claim that rebalancing reuses stock storage features).

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/fio_gen.h"

namespace gdedup {
namespace {

using testutil::DedupHarness;
using testutil::random_buffer;
using testutil::test_tier_config;

constexpr uint32_t kChunk = 32 * 1024;

TEST(Rebalance, NewOsdReceivesBackfill) {
  Cluster c;
  const PoolId pool = c.create_replicated_pool("p", 2);
  RadosClient client(&c, c.client_node(0));
  std::map<std::string, Buffer> truth;
  for (int i = 0; i < 40; i++) {
    const std::string oid = "o" + std::to_string(i);
    Buffer data = random_buffer(32 * 1024, static_cast<uint64_t>(i));
    ASSERT_TRUE(sync_write(c, client, pool, oid, 0, data).is_ok());
    truth[oid] = data;
  }

  const OsdId fresh = c.add_osd(/*host=*/0);
  EXPECT_EQ(fresh, 16);
  uint64_t objects = 0;
  c.recover(&objects, nullptr);
  EXPECT_GT(objects, 0u);  // some PGs remapped to the newcomer

  // The newcomer now holds its placement share.
  const ObjectStore* st = c.osd(fresh)->store_if_exists(pool);
  ASSERT_NE(st, nullptr);
  EXPECT_GT(st->list(pool).size(), 0u);

  // Every object readable, every replica in place.
  for (const auto& [oid, data] : truth) {
    for (OsdId o : c.osdmap().acting(pool, oid)) {
      ASSERT_TRUE(c.osd(o)->local_exists(pool, oid)) << oid << "@" << o;
    }
    auto r = sync_read(c, client, pool, oid, 0, 0);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(r->content_equals(data));
  }
}

TEST(Rebalance, MovementIsProportional) {
  // straw2 property at the cluster level: adding 1 OSD to 16 moves about
  // 1/17 of placements, not a reshuffle.
  Cluster c;
  const PoolId pool = c.create_replicated_pool("p", 2, /*pg_num=*/512);
  std::map<uint32_t, ActingSet> before;
  for (uint32_t pg = 0; pg < 512; pg++) {
    before[pg] = c.osdmap().acting_for_pg(pool, pg);
  }
  c.add_osd(1);
  size_t moved = 0, total = 0;
  for (uint32_t pg = 0; pg < 512; pg++) {
    auto after = c.osdmap().acting_for_pg(pool, pg);
    for (size_t i = 0; i < after.size(); i++) {
      total++;
      if (after[i] != before[pg][i]) moved++;
    }
  }
  EXPECT_GT(moved, 0u);
  // Expect ~2/17 of slots affected (new device takes its share in either
  // replica position); allow generous slack, but far below a reshuffle.
  EXPECT_LT(static_cast<double>(moved) / static_cast<double>(total), 0.30);
}

TEST(Rebalance, DedupSurvivesExpansion) {
  DedupHarness h(test_tier_config());
  workload::FioConfig fcfg;
  fcfg.total_bytes = 8ull << 20;
  fcfg.block_size = kChunk;
  fcfg.dedupe_ratio = 0.5;
  workload::FioGenerator gen(fcfg);
  for (uint64_t b = 0; b < gen.num_blocks(); b++) {
    ASSERT_TRUE(h.write("o" + std::to_string(b), 0, gen.block(b)).is_ok());
  }
  ASSERT_TRUE(h.drain());
  const uint64_t chunks_before = h.chunk_object_count();
  const uint64_t refs_before = h.total_chunk_refs();

  // Grow the cluster by two OSDs on different hosts and rebalance.
  h.cluster->add_osd(0);
  h.cluster->add_osd(2);
  h.cluster->recover();

  // Dedup state is intact: same chunk population, same references, all
  // data readable, and new writes keep deduplicating.
  EXPECT_EQ(h.chunk_object_count(), chunks_before);
  EXPECT_EQ(h.total_chunk_refs(), refs_before);
  EXPECT_TRUE(h.refcounts_consistent());
  for (uint64_t b = 0; b < gen.num_blocks(); b += 7) {
    auto r = h.read("o" + std::to_string(b), 0, 0);
    ASSERT_TRUE(r.is_ok()) << b;
    EXPECT_TRUE(r->content_equals(gen.block(b)));
  }
  ASSERT_TRUE(h.write("fresh", 0, gen.block(0)).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), chunks_before);  // deduped against old
  EXPECT_EQ(h.total_chunk_refs(), refs_before + 1);
}

TEST(Rebalance, ChunkPlacementFollowsContentAfterExpansion) {
  // Double hashing after expansion: the same content written post-growth
  // maps onto the (possibly migrated) chunk object, wherever it now lives.
  DedupHarness h(test_tier_config());
  Buffer data = random_buffer(kChunk, 42);
  ASSERT_TRUE(h.write("before", 0, data).is_ok());
  ASSERT_TRUE(h.drain());

  h.cluster->add_osd(3);
  h.cluster->recover();

  ASSERT_TRUE(h.write("after", 0, data).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.chunk_object_count(), 1u);
  EXPECT_EQ(h.total_chunk_refs(), 2u);
  const Fingerprint fp =
      Fingerprint::compute(FingerprintAlgo::kSha256, data.span());
  const OsdId primary = h.cluster->osdmap().primary(h.chunks, fp.hex());
  EXPECT_TRUE(h.cluster->osd(primary)->local_exists(h.chunks, fp.hex()));
}

}  // namespace
}  // namespace gdedup
