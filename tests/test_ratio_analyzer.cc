// Local-vs-global dedup ratio accounting (the Figure 3 / Table 1 baseline)
// and a cross-check of the analyzer against the real dedup system.

#include "dedup/ratio_analyzer.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/fio_gen.h"

namespace gdedup {
namespace {

using testutil::DedupHarness;
using testutil::test_tier_config;

OsdMap make_map(int osds) {
  OsdMap m;
  for (int i = 0; i < osds; i++) m.add_osd(i, i / 4);
  PoolConfig cfg;
  cfg.name = "p";
  // High PG count so placement variance reflects per-object hashing, not
  // PG granularity (real clusters balance this with upmap).
  cfg.pg_num = 4096;
  m.create_pool(cfg);
  return m;
}

TEST(RatioAnalyzer, AllUniqueIsZero) {
  OsdMap m = make_map(16);
  RatioAnalyzer a(&m, 0, 32 * 1024);
  Rng rng(1);
  for (int i = 0; i < 32; i++) {
    Buffer b(32 * 1024);
    rng.fill(b.mutable_data(), b.size());
    a.add_object("o" + std::to_string(i), b);
  }
  EXPECT_DOUBLE_EQ(a.global().ratio(), 0.0);
  EXPECT_DOUBLE_EQ(a.local().ratio(), 0.0);
}

TEST(RatioAnalyzer, AllIdenticalNearsOne) {
  OsdMap m = make_map(16);
  RatioAnalyzer a(&m, 0, 32 * 1024);
  Buffer b = testutil::random_buffer(32 * 1024, 2);
  const int n = 64;
  for (int i = 0; i < n; i++) a.add_object("o" + std::to_string(i), b);
  EXPECT_NEAR(a.global().ratio(), 1.0 - 1.0 / n, 1e-9);
  // Local: one unique copy per OSD that received at least one object.
  EXPECT_LT(a.local().ratio(), a.global().ratio());
  EXPECT_GT(a.local().ratio(), 0.5);
}

TEST(RatioAnalyzer, GlobalMatchesFioKnob) {
  // FIO dedupe_percentage=50 must yield ~50% global dedup — the paper's
  // Figure 3 observation that "global deduplication shows the same results
  // as given deduplication ratios".
  OsdMap m = make_map(16);
  RatioAnalyzer a(&m, 0, 8192);
  workload::FioConfig fc;
  fc.total_bytes = 16ull << 20;
  fc.block_size = 8192;
  fc.dedupe_ratio = 0.5;
  workload::FioGenerator gen(fc);
  for (uint64_t i = 0; i < gen.num_blocks(); i++) {
    a.add_object("b" + std::to_string(i), gen.block(i));
  }
  EXPECT_NEAR(a.global().percent(), 50.0, 3.0);
  EXPECT_NEAR(a.global().ratio(), gen.exact_dedup_ratio(), 1e-9);
}

TEST(RatioAnalyzer, LocalShrinksWithMoreOsds) {
  // Table 1's trend: local dedup ratio decays roughly as 1/#OSDs while
  // global stays put.
  workload::FioConfig fc;
  fc.total_bytes = 16ull << 20;
  fc.block_size = 8192;
  fc.dedupe_ratio = 0.5;
  workload::FioGenerator gen(fc);

  double prev_local = 1.0;
  for (int osds : {4, 8, 16}) {
    OsdMap m = make_map(osds);
    RatioAnalyzer a(&m, 0, 8192);
    for (uint64_t i = 0; i < gen.num_blocks(); i++) {
      a.add_object("b" + std::to_string(i), gen.block(i));
    }
    EXPECT_NEAR(a.global().percent(), 50.0, 3.0) << osds;
    EXPECT_LT(a.local().percent(), prev_local * 100.0) << osds;
    // Local sits in the band around (dedupe / osds) the paper reports.
    EXPECT_GT(a.local().percent(), 0.5 * 50.0 / osds) << osds;
    EXPECT_LT(a.local().percent(), 3.0 * 50.0 / osds) << osds;
    prev_local = a.local().ratio();
  }
}

TEST(RatioAnalyzer, PlacementBalanced) {
  OsdMap m = make_map(16);
  RatioAnalyzer a(&m, 0, 8192);
  Rng rng(3);
  for (int i = 0; i < 2000; i++) {
    Buffer b(8192);
    rng.fill(b.mutable_data(), b.size());
    a.add_object("o" + std::to_string(i), b);
  }
  ASSERT_EQ(a.per_osd().size(), 16u);
  for (const auto& [osd, rep] : a.per_osd()) {
    EXPECT_NEAR(static_cast<double>(rep.logical_bytes),
                2000.0 * 8192 / 16, 2000.0 * 8192 / 16 * 0.35);
  }
}

TEST(RatioAnalyzer, MatchesRealSystemStoredBytes) {
  // Cross-check: the analyzer's predicted unique bytes equal what the real
  // dedup pipeline actually stores in the chunk pool (per replica).
  DedupHarness h(test_tier_config());
  RatioAnalyzer a(&h.cluster->osdmap(), h.meta, 32 * 1024);

  Rng rng(4);
  std::vector<uint64_t> seeds = {10, 11, 12, 10, 11, 10, 13, 10};  // dups
  for (size_t i = 0; i < seeds.size(); i++) {
    Buffer data = testutil::random_buffer(32 * 1024, seeds[i]);
    const std::string oid = "x" + std::to_string(i);
    a.add_object(oid, data);
    ASSERT_TRUE(h.write(oid, 0, data).is_ok());
  }
  ASSERT_TRUE(h.drain());
  const auto cs = h.cluster->pool_stats(h.chunks);
  // Chunk pool stores unique bytes x2 (replication).
  EXPECT_EQ(cs.stored_data_bytes, a.global().unique_bytes * 2);
}

}  // namespace
}  // namespace gdedup
