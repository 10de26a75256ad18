// CRUSH placement: determinism, failure domains, weight proportionality,
// minimal movement; OsdMap pools, acting sets, epochs.

#include "cluster/crush.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cluster/osd_map.h"
#include "common/random.h"

namespace gdedup {
namespace {

CrushMap paper_map() {
  // 4 hosts x 4 OSDs, the paper's testbed.
  CrushMap m;
  for (int h = 0; h < 4; h++) {
    for (int d = 0; d < 4; d++) m.add_device(h * 4 + d, h);
  }
  return m;
}

TEST(Crush, Deterministic) {
  CrushMap m = paper_map();
  for (uint64_t x = 0; x < 100; x++) {
    EXPECT_EQ(m.select(x, 3), m.select(x, 3));
  }
}

TEST(Crush, DistinctDevices) {
  CrushMap m = paper_map();
  for (uint64_t x = 0; x < 500; x++) {
    auto sel = m.select(x, 3);
    std::set<OsdId> uniq(sel.begin(), sel.end());
    EXPECT_EQ(uniq.size(), sel.size());
  }
}

TEST(Crush, SpreadsAcrossHosts) {
  CrushMap m = paper_map();
  for (uint64_t x = 0; x < 500; x++) {
    auto sel = m.select(x, 3);
    std::set<HostId> hosts;
    for (OsdId o : sel) hosts.insert(o / 4);
    EXPECT_EQ(hosts.size(), sel.size()) << "replicas share a host at x=" << x;
  }
}

TEST(Crush, FallsBackWhenFewHosts) {
  CrushMap m;
  m.add_device(0, 0);
  m.add_device(1, 0);
  m.add_device(2, 0);  // one host only
  auto sel = m.select(42, 2);
  EXPECT_EQ(sel.size(), 2u);  // still finds two distinct devices
}

TEST(Crush, LoadIsBalanced) {
  CrushMap m = paper_map();
  std::map<OsdId, int> primary_count;
  const int n = 20000;
  for (int x = 0; x < n; x++) {
    primary_count[m.select(static_cast<uint64_t>(x), 1)[0]]++;
  }
  for (const auto& [osd, c] : primary_count) {
    EXPECT_NEAR(c, n / 16, n / 16 * 0.2) << "osd " << osd;
  }
}

TEST(Crush, WeightProportionality) {
  CrushMap m;
  m.add_device(0, 0, 1.0);
  m.add_device(1, 1, 2.0);  // double weight
  std::map<OsdId, int> count;
  const int n = 30000;
  for (int x = 0; x < n; x++) {
    count[m.select(static_cast<uint64_t>(x), 1)[0]]++;
  }
  const double frac1 = static_cast<double>(count[1]) / n;
  EXPECT_NEAR(frac1, 2.0 / 3.0, 0.03);
}

TEST(Crush, ZeroWeightExcluded) {
  CrushMap m = paper_map();
  ASSERT_TRUE(m.set_weight(5, 0.0).is_ok());
  for (int x = 0; x < 2000; x++) {
    auto sel = m.select(static_cast<uint64_t>(x), 3);
    for (OsdId o : sel) EXPECT_NE(o, 5);
  }
}

TEST(Crush, ExcludeListRespected) {
  CrushMap m = paper_map();
  for (int x = 0; x < 1000; x++) {
    auto sel = m.select(static_cast<uint64_t>(x), 3, {0, 1, 2, 3});
    for (OsdId o : sel) EXPECT_GE(o, 4);
  }
}

// The property that justifies straw2: removing one device only remaps
// inputs that previously chose it.
TEST(Crush, MinimalMovementOnDeviceLoss) {
  CrushMap m = paper_map();
  const int n = 5000;
  std::vector<OsdId> before(n);
  for (int x = 0; x < n; x++) {
    before[static_cast<size_t>(x)] = m.select(static_cast<uint64_t>(x), 1)[0];
  }
  int moved = 0;
  for (int x = 0; x < n; x++) {
    const OsdId after = m.select(static_cast<uint64_t>(x), 1, {7})[0];
    if (after != before[static_cast<size_t>(x)]) {
      moved++;
      EXPECT_EQ(before[static_cast<size_t>(x)], 7)
          << "input moved although its device survived";
    }
  }
  // Roughly 1/16 of inputs lived on the removed device.
  EXPECT_NEAR(moved, n / 16, n / 16 * 0.35);
}

TEST(Crush, MinimalMovementOnWeightChange) {
  CrushMap m = paper_map();
  const int n = 5000;
  std::vector<OsdId> before(n);
  for (int x = 0; x < n; x++) {
    before[static_cast<size_t>(x)] = m.select(static_cast<uint64_t>(x), 1)[0];
  }
  ASSERT_TRUE(m.set_weight(3, 0.5).is_ok());
  int moved_to_other = 0;
  for (int x = 0; x < n; x++) {
    const OsdId after = m.select(static_cast<uint64_t>(x), 1)[0];
    if (after != before[static_cast<size_t>(x)]) {
      // Only inputs leaving the deweighted device may move.
      EXPECT_EQ(before[static_cast<size_t>(x)], 3);
      moved_to_other++;
    }
  }
  EXPECT_GT(moved_to_other, 0);
  EXPECT_LT(moved_to_other, n / 16);  // about half of osd 3's share
}

// --------------------------------------------------------------- OsdMap

OsdMap paper_osdmap() {
  OsdMap m;
  for (int h = 0; h < 4; h++) {
    for (int d = 0; d < 4; d++) m.add_osd(h * 4 + d, h);
  }
  return m;
}

TEST(OsdMap, PoolCreationAndLookup) {
  OsdMap m = paper_osdmap();
  PoolConfig cfg;
  cfg.name = "meta";
  cfg.replicas = 2;
  const PoolId id = m.create_pool(cfg);
  EXPECT_TRUE(m.has_pool(id));
  EXPECT_EQ(m.pool(id).name, "meta");
  EXPECT_EQ(m.pool_by_name("meta"), id);
  EXPECT_FALSE(m.pool_by_name("nope").has_value());
}

TEST(OsdMap, ActingSizeMatchesScheme) {
  OsdMap m = paper_osdmap();
  PoolConfig rep;
  rep.name = "rep";
  rep.replicas = 2;
  PoolConfig ec;
  ec.name = "ec";
  ec.scheme = RedundancyScheme::kErasure;
  ec.ec_k = 2;
  ec.ec_m = 1;
  const PoolId pr = m.create_pool(rep);
  const PoolId pe = m.create_pool(ec);
  EXPECT_EQ(m.acting(pr, "obj1").size(), 2u);
  EXPECT_EQ(m.acting(pe, "obj1").size(), 3u);
}

TEST(OsdMap, SpaceAmplification) {
  PoolConfig rep;
  rep.replicas = 3;
  EXPECT_DOUBLE_EQ(rep.space_amplification(), 3.0);
  PoolConfig ec;
  ec.scheme = RedundancyScheme::kErasure;
  ec.ec_k = 2;
  ec.ec_m = 1;
  EXPECT_DOUBLE_EQ(ec.space_amplification(), 1.5);
}

TEST(OsdMap, DownOsdLeavesActing) {
  OsdMap m = paper_osdmap();
  PoolConfig cfg;
  cfg.name = "p";
  const PoolId p = m.create_pool(cfg);
  // Find an object whose primary is OSD 0.
  std::string victim;
  for (int i = 0; i < 1000; i++) {
    std::string oid = "obj" + std::to_string(i);
    if (m.primary(p, oid) == 0) {
      victim = oid;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  m.mark_down(0);
  auto acting = m.acting(p, victim);
  for (OsdId o : acting) EXPECT_NE(o, 0);
  EXPECT_EQ(acting.size(), 2u);
  m.mark_up(0);
  EXPECT_EQ(m.primary(p, victim), 0);  // mapping restored
}

TEST(OsdMap, EpochAdvancesOnChange) {
  OsdMap m = paper_osdmap();
  const uint64_t e0 = m.epoch();
  m.mark_down(3);
  EXPECT_GT(m.epoch(), e0);
  const uint64_t e1 = m.epoch();
  m.mark_down(3);  // no-op
  EXPECT_EQ(m.epoch(), e1);
}

TEST(OsdMap, SameContentIdSamePlacement) {
  // The heart of double hashing: a chunk OID derived from content maps to
  // the same acting set no matter who computes it.
  OsdMap m = paper_osdmap();
  PoolConfig cfg;
  cfg.name = "chunks";
  const PoolId p = m.create_pool(cfg);
  const std::string chunk_oid = "sha256:abcdef0123456789";
  EXPECT_EQ(m.acting(p, chunk_oid), m.acting(p, chunk_oid));
  EXPECT_EQ(m.pg_of(p, chunk_oid), m.pg_of(p, chunk_oid));
}

TEST(OsdMap, PgWithinBounds) {
  OsdMap m = paper_osdmap();
  PoolConfig cfg;
  cfg.name = "p";
  cfg.pg_num = 64;
  const PoolId p = m.create_pool(cfg);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(m.pg_of(p, "o" + std::to_string(i)), 64u);
  }
}

TEST(OsdMap, UpOsdsTracksState) {
  OsdMap m = paper_osdmap();
  EXPECT_EQ(m.up_osds().size(), 16u);
  m.mark_down(1);
  m.mark_down(2);
  EXPECT_EQ(m.up_osds().size(), 14u);
  EXPECT_FALSE(m.is_up(1));
  EXPECT_TRUE(m.is_up(0));
}

// ------------------------------------------------------ placement table

// Every (pool, pg) the map serves must equal a fresh CrushMap::select for
// the map as it now stands: the table is a cache of the pure placement
// function, never a second one.
void expect_table_matches_crush(const OsdMap& m) {
  std::vector<OsdId> down;
  for (OsdId id : m.all_osds()) {
    if (!m.is_up(id)) down.push_back(id);
  }
  for (PoolId p : m.pool_ids()) {
    const PoolConfig& cfg = m.pool(p);
    for (uint32_t pg = 0; pg < cfg.pg_num; pg++) {
      const uint64_t seed = mix64((static_cast<uint64_t>(p) << 32) | pg);
      const std::vector<OsdId> fresh =
          m.crush().select(seed, cfg.size(), down);
      const ActingSet served = m.acting_for_pg(p, pg);
      ASSERT_EQ(std::vector<OsdId>(served.begin(), served.end()), fresh)
          << "pool " << p << " pg " << pg;
    }
  }
}

TEST(OsdMap, PlacementTableTracksEveryMutation) {
  OsdMap m = paper_osdmap();
  PoolConfig rep;
  rep.name = "rep";
  rep.pg_num = 64;
  PoolConfig ec;
  ec.name = "ec";
  ec.scheme = RedundancyScheme::kErasure;
  ec.ec_k = 2;
  ec.ec_m = 2;
  ec.pg_num = 32;

  const PoolId pr = m.create_pool(rep);
  expect_table_matches_crush(m);
  const PoolId pe = m.create_pool(ec);
  expect_table_matches_crush(m);

  m.add_osd(16, 1, 2.0);  // heavier device on an existing host
  expect_table_matches_crush(m);
  m.add_osd(17, 4);  // new host
  expect_table_matches_crush(m);

  m.mark_down(5);
  expect_table_matches_crush(m);
  m.mark_down(17);
  m.mark_down(12);
  expect_table_matches_crush(m);
  m.mark_up(5);
  expect_table_matches_crush(m);

  DedupTierConfig dc;
  dc.mode = DedupMode::kPostProcess;
  dc.chunk_pool = pe;
  const uint64_t before = m.epoch();
  m.set_dedup(pr, dc);
  EXPECT_GT(m.epoch(), before);
  EXPECT_EQ(m.pool(pr).dedup.chunk_pool, pe);
  expect_table_matches_crush(m);

  // Every object lookup is the table row of its PG.
  for (int i = 0; i < 200; i++) {
    const std::string oid = "sha256:" + std::to_string(i * 7919);
    for (PoolId p : {pr, pe}) {
      const ActingSet a = m.acting(p, oid);
      EXPECT_EQ(a, m.acting_for_pg(p, m.pg_of(p, oid)));
      EXPECT_EQ(m.primary(p, oid), a.empty() ? -1 : a[0]);
    }
  }
}

TEST(OsdMap, CopiedAndMovedMapsServeTheSameSets) {
  OsdMap m = paper_osdmap();
  PoolConfig cfg;
  cfg.name = "p";
  const PoolId p = m.create_pool(cfg);
  m.mark_down(2);

  OsdMap copy = m;
  OsdMap moved_from = m;
  OsdMap moved = std::move(moved_from);
  for (uint32_t pg = 0; pg < cfg.pg_num; pg++) {
    EXPECT_EQ(copy.acting_for_pg(p, pg), m.acting_for_pg(p, pg));
    EXPECT_EQ(moved.acting_for_pg(p, pg), m.acting_for_pg(p, pg));
  }
  // The copy is independent: changing it leaves the original's table be.
  copy.mark_up(2);
  copy.mark_down(0);
  expect_table_matches_crush(copy);
  expect_table_matches_crush(m);
}

TEST(OsdMap, ActingSetOutlivesMapChange) {
  // A caller may still be walking an acting set when a handler changes
  // the map (an OSD crashing itself marks itself down).  What it holds
  // must stay readable and unchanged.
  OsdMap m = paper_osdmap();
  PoolConfig cfg;
  cfg.name = "p";
  const PoolId p = m.create_pool(cfg);
  const ActingSet held = m.acting(p, "obj");
  const std::vector<OsdId> snapshot(held.begin(), held.end());
  ASSERT_EQ(snapshot.size(), 2u);

  m.mark_down(held[0]);
  EXPECT_EQ(std::vector<OsdId>(held.begin(), held.end()), snapshot);
  const ActingSet now = m.acting(p, "obj");
  EXPECT_EQ(std::find(now.begin(), now.end(), held[0]), now.end());
  EXPECT_NE(now, held);
}

}  // namespace
}  // namespace gdedup
