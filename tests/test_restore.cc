// Fragmentation-aware restore path: the selective rewrite (container
// coalescing) in dedup/tier.cc and the forward-assembly read cache.
//
// What must hold: rewrite swaps map entries onto content-addressed
// container objects without ever breaking invariant 3 (refs match maps),
// readback is byte-identical, deep scrub stays clean (container OID ==
// fingerprint of the concatenated content), and read amplification
// measurably drops.  The assembly cache is host-side only: the
// determinism digest is byte-identical with it on or off, at any
// shard count.  Rewrite mode changes virtual time by design and
// carries its own frozen digest.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "sim_e2e_scenario.h"
#include "dedup/scrub.h"
#include "dedup/tier.h"
#include "test_util.h"
#include "workload/fio_gen.h"

namespace gdedup {
namespace {

using testutil::DedupHarness;
using testutil::load_map_at;
using testutil::random_buffer;
using testutil::small_cluster_config;
using testutil::test_tier_config;

constexpr uint32_t kChunk = 32 * 1024;

DedupTierConfig rewrite_tier_config(int run_len = 4, int max_pct = 100) {
  DedupTierConfig t = test_tier_config();
  t.restore_rewrite = true;
  t.rewrite_run_len = run_len;
  t.rewrite_max_pct = max_pct;
  t.rewrite_frag_threshold = 0.5;
  return t;
}

// --- Selective rewrite: container coalescing correctness ---

TEST(RestoreRewrite, CoalescesRunsIntoContainers) {
  DedupHarness h(rewrite_tier_config(/*run_len=*/4, /*max_pct=*/100));
  Buffer image = random_buffer(8 * kChunk, 0xabc);
  ASSERT_TRUE(h.write("obj", 0, image).is_ok());
  ASSERT_TRUE(h.drain());

  // Eight evicted singleton chunks coalesced as two 4-chunk containers;
  // the old chunk objects lost their last ref and were reclaimed.
  EXPECT_EQ(h.tier(l_tier_rewrite_runs), 2u);
  EXPECT_EQ(h.tier(l_tier_rewrite_chunks), 8u);
  EXPECT_EQ(h.tier(l_tier_rewrite_bytes), 8ull * kChunk);
  EXPECT_EQ(h.chunk_object_count(), 2u);
  EXPECT_EQ(h.total_chunk_refs(), 8u);  // one ref per slot, per container
  EXPECT_TRUE(h.refcounts_consistent());

  // The map names the containers with cumulative in-object offsets.
  const OsdId prim = h.cluster->osdmap().primary(h.meta, "obj");
  const ChunkMap cm = load_map_at(*h.cluster, prim, h.meta, "obj");
  ASSERT_EQ(cm.entries().size(), 8u);
  std::string run_oid;
  uint64_t expect_off = 0;
  for (const auto& [off, e] : cm.entries()) {
    EXPECT_TRUE(e.container) << "slot @" << off;
    EXPECT_FALSE(e.dirty);
    EXPECT_FALSE(e.cached);
    if (off % (4ull * kChunk) == 0) {  // run boundary
      run_oid = e.chunk_id;
      expect_off = 0;
    }
    EXPECT_EQ(e.chunk_id, run_oid) << "slot @" << off;
    EXPECT_EQ(e.chunk_off, expect_off) << "slot @" << off;
    expect_off += e.length;
  }

  // Byte-identical readback through the container path.
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(image));

  // Read amplification dropped: one full-object read touches 2 distinct
  // chunk objects over 2 RPCs (the digested per-chunk counter still sees
  // all 8 slots).
  const uint64_t objects0 = h.tier(l_tier_read_chunk_objects);
  const uint64_t rpcs0 = h.tier(l_tier_read_chunk_rpcs);
  const uint64_t redirected0 = h.tier(l_tier_redirected_read_chunks);
  auto r2 = h.read("obj", 0, 0);
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(h.tier(l_tier_read_chunk_objects) - objects0, 2u);
  EXPECT_EQ(h.tier(l_tier_read_chunk_rpcs) - rpcs0, 2u);
  EXPECT_EQ(h.tier(l_tier_redirected_read_chunks) - redirected0, 8u);
}

TEST(RestoreRewrite, RespectsRewriteCap) {
  // max_pct=50 over 8 eligible chunks caps the rewrite at 4 chunks (one
  // 4-run); the rest stay ordinary singletons.
  DedupHarness h(rewrite_tier_config(/*run_len=*/4, /*max_pct=*/50));
  Buffer image = random_buffer(8 * kChunk, 0xca5);
  ASSERT_TRUE(h.write("obj", 0, image).is_ok());
  ASSERT_TRUE(h.drain());

  EXPECT_EQ(h.tier(l_tier_rewrite_runs), 1u);
  EXPECT_EQ(h.tier(l_tier_rewrite_chunks), 4u);
  EXPECT_EQ(h.chunk_object_count(), 5u);  // 1 container + 4 singletons
  EXPECT_TRUE(h.refcounts_consistent());
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(image));
}

TEST(RestoreRewrite, OverwriteAfterRewriteStaysConsistent) {
  DedupHarness h(rewrite_tier_config(/*run_len=*/4, /*max_pct=*/100));
  Buffer image = random_buffer(8 * kChunk, 0xdef);
  ASSERT_TRUE(h.write("obj", 0, image).is_ok());
  ASSERT_TRUE(h.drain());
  ASSERT_EQ(h.chunk_object_count(), 2u);

  // Dirty one slot of the first container.  Its flush produces a fresh
  // ordinary chunk and derefs the container's slot ref; the container
  // survives on the remaining three refs.
  Buffer patch = random_buffer(kChunk, 0x123);
  ASSERT_TRUE(h.write("obj", kChunk, patch).is_ok());
  ASSERT_TRUE(h.drain());

  Buffer want = image;  // COW copy, then patch in place
  want.write_at(kChunk, patch);
  auto r = h.read("obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(want));
  EXPECT_TRUE(h.refcounts_consistent());

  // Invariants hold under the scrubber too, and GC finds nothing to do.
  Scrubber s(h.cluster.get(), h.meta, h.chunks);
  EXPECT_TRUE(s.deep_scrub().clean());
  const ScrubReport gc = s.collect_garbage();
  EXPECT_EQ(gc.dangling_refs_dropped, 0u);
  EXPECT_EQ(gc.leaked_chunks_reclaimed, 0u);
}

TEST(RestoreRewrite, DeepScrubVerifiesContainerFingerprints) {
  // Container OIDs are content-addressed over the *concatenated* run, so
  // the scrubber's fingerprint recompute must come back clean.
  DedupHarness h(rewrite_tier_config(/*run_len=*/4, /*max_pct=*/100));
  ASSERT_TRUE(h.write("obj", 0, random_buffer(8 * kChunk, 0xbeef)).is_ok());
  ASSERT_TRUE(h.drain());
  ASSERT_GE(h.tier(l_tier_rewrite_runs), 1u);

  Scrubber s(h.cluster.get(), h.meta, h.chunks);
  const ScrubReport rep = s.deep_scrub();
  EXPECT_TRUE(rep.clean());
  EXPECT_GT(rep.chunks_checked, 0u);
  EXPECT_EQ(rep.fingerprint_mismatches, 0u);
}

TEST(RestoreRewrite, OffByDefaultNeverRewrites) {
  DedupHarness h(test_tier_config());
  ASSERT_TRUE(h.write("obj", 0, random_buffer(8 * kChunk, 0x777)).is_ok());
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.tier(l_tier_rewrite_runs), 0u);
  EXPECT_EQ(h.tier(l_tier_rewrite_chunks), 0u);
  EXPECT_EQ(h.chunk_object_count(), 8u);
}

// --- Assembly window: zero-copy replies ---

TEST(RestoreAssembly, OutOfOrderLandingsShareOneWindow) {
  // A sequential restore from an EC chunk pool.  Three one-chunk reads
  // establish the streak and the third opens a window over chunks
  // [2, 18); the next reads are issued together, two chunks each, so
  // their chunk replies land in whatever order the shards answer.  Every
  // reply must carry the image's bytes, and the replies carved from the
  // window must all share its one storage: a landing chunk never
  // re-copies the window under replies already sent.
  DedupHarness h(test_tier_config(), small_cluster_config(),
                 RedundancyScheme::kErasure);
  constexpr uint64_t kChunks = 20;
  const Buffer image = random_buffer(kChunks * kChunk, 0x5eed);
  ASSERT_TRUE(h.write("img", 0, image).is_ok());
  ASSERT_TRUE(h.drain());
  ASSERT_EQ(h.tier(l_tier_asm_window_opens), 0u);

  std::vector<Buffer> windowed;
  for (uint64_t c = 0; c < 3; c++) {
    auto r = h.read("img", c * kChunk, kChunk);
    ASSERT_TRUE(r.is_ok()) << c;
    EXPECT_TRUE(r->content_equals(image.slice(c * kChunk, kChunk))) << c;
    if (c == 2) windowed.push_back(std::move(r).value());
  }
  ASSERT_EQ(h.tier(l_tier_asm_window_opens), 1u);

  struct Reply {
    size_t issue = 0;
    uint64_t off = 0;
    Result<Buffer> r = Status::timed_out("never completed");
  };
  std::vector<Reply> replies;  // in completion order
  size_t issued = 0;
  for (uint64_t off = 3 * kChunk; off < 17 * kChunk; off += 2 * kChunk) {
    const size_t idx = issued++;
    h.client->read(h.meta, "img", off, 2 * kChunk,
                   [&replies, idx, off](Result<Buffer> r) {
                     replies.push_back({idx, off, std::move(r)});
                   });
  }
  while (replies.size() < issued && h.cluster->sched().step()) {
  }
  ASSERT_EQ(replies.size(), issued);
  bool out_of_order = false;
  for (size_t i = 0; i < replies.size(); i++) {
    if (replies[i].issue != i) out_of_order = true;
    ASSERT_TRUE(replies[i].r.is_ok()) << replies[i].off;
    EXPECT_TRUE(replies[i].r->content_equals(
        image.slice(replies[i].off, 2 * kChunk)))
        << "read @" << replies[i].off;
    windowed.push_back(std::move(replies[i].r).value());
  }
  EXPECT_TRUE(out_of_order) << "replies completed in issue order";
  auto last = h.read("img", 17 * kChunk, kChunk);
  ASSERT_TRUE(last.is_ok());
  EXPECT_TRUE(last->content_equals(image.slice(17 * kChunk, kChunk)));
  windowed.push_back(std::move(last).value());

  EXPECT_EQ(h.tier(l_tier_asm_window_opens), 1u);
  EXPECT_EQ(h.tier(l_tier_asm_hits), 16u);  // chunks 2..17
  for (size_t i = 1; i < windowed.size(); i++) {
    EXPECT_TRUE(windowed[i].shares_storage_with(windowed[0])) << i;
  }
}

// --- Determinism: assembly cache neutrality + frozen rewrite digest ---

struct RestoreDigest {
  std::string digest;
  uint64_t asm_hits = 0;
  uint64_t rewrite_runs = 0;
};

// A small preload -> drain -> sequential-restore scenario, digesting the
// per-op latency stream and the final cluster state (same contract as the
// sim-e2e determinism tests).
RestoreDigest run_restore_digest(bool assembly, bool rewrite, int shards) {
  ClusterConfig cc;
  cc.storage_nodes = 2;
  cc.osds_per_node = 2;
  cc.client_nodes = 1;
  cc.sim_shards = shards;
  Cluster c(cc);
  c.set_fast_paths_for_test(/*fp_fastpath=*/true, assembly);
  const PoolId base = c.create_replicated_pool("base", 2);
  const PoolId chunks = c.create_replicated_pool("chunks", 2);
  DedupTierConfig t = test_tier_config();
  t.restore_rewrite = rewrite;
  t.rewrite_run_len = 8;
  t.rewrite_max_pct = 100;
  c.enable_dedup(base, chunks, t);

  RadosClient client(&c, c.client_node(0));
  const uint64_t image_bytes = 8ull << 20;
  BlockDevice bdev(&client, base, "img", image_bytes, 4u << 20);

  bench::DeterminismDigest dig;
  workload::FioConfig fio;
  fio.total_bytes = image_bytes;
  fio.block_size = kChunk;
  fio.dedupe_ratio = 0.5;
  fio.seed = 7;
  workload::FioGenerator gen(fio);
  bench::run_closed_loop(
      c, gen.num_blocks(), /*depth=*/8,
      bench::digesting_issuer(
          c,
          [&](size_t idx, std::function<void(uint64_t)> done) {
            bdev.write(static_cast<uint64_t>(idx) * kChunk, gen.block(idx),
                       [done = std::move(done)](Status) { done(kChunk); });
          },
          &dig));
  EXPECT_TRUE(c.drain_dedup());

  const uint32_t rb = 256 * 1024;
  bench::run_closed_loop(
      c, image_bytes / rb, /*depth=*/4,
      bench::digesting_issuer(
          c,
          [&](size_t idx, std::function<void(uint64_t)> done) {
            bdev.read(static_cast<uint64_t>(idx) * rb, rb,
                      [done = std::move(done), rb](Result<Buffer>) {
                        done(rb);
                      });
          },
          &dig));
  bench::digest_final_state(c, base, chunks, &dig);

  return {dig.hex(), c.counter_sum(l_tier_asm_hits, base),
          c.counter_sum(l_tier_rewrite_runs, base)};
}

TEST(RestoreAssembly, DigestInvariantAcrossShards) {
  const RestoreDigest off = run_restore_digest(/*assembly=*/false,
                                               /*rewrite=*/false, 1);
  EXPECT_EQ(off.asm_hits, 0u);
  for (int shards : {1, 4}) {
    const RestoreDigest on =
        run_restore_digest(/*assembly=*/true, /*rewrite=*/false, shards);
    const std::string at = "shards=" + std::to_string(shards);
    EXPECT_EQ(on.digest, off.digest) << at;
    // The cache must actually engage on a sequential sweep — a digest
    // match against a dormant cache would prove nothing.
    EXPECT_GT(on.asm_hits, 0u) << at;
  }
}

TEST(RestoreRewrite, FrozenDigest) {
  // Rewrite mode intentionally changes placement and virtual time; what
  // it must NOT do is vary across shard counts or silently drift.
  // Re-freeze deliberately when the rewrite policy changes.
  const RestoreDigest serial = run_restore_digest(/*assembly=*/true,
                                                  /*rewrite=*/true, 1);
  const RestoreDigest sharded = run_restore_digest(/*assembly=*/true,
                                                   /*rewrite=*/true, 4);
  EXPECT_GT(serial.rewrite_runs, 0u);
  EXPECT_EQ(serial.digest, sharded.digest);
  EXPECT_EQ(serial.digest, "29a3a1e0");
}

}  // namespace
}  // namespace gdedup
