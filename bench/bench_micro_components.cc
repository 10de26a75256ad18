// Component microbenchmarks (google-benchmark): the building blocks whose
// calibrated costs drive the simulator — fingerprint hashing, rolling
// hash, chunking (fixed vs CDC — the Section 5 trade-off), LZ codec,
// Reed-Solomon, CRUSH selection, OsdMap acting-set lookup, bloom filters,
// chunk-map codec, object-store transactions and extent reads — plus a
// double-hashing-vs-fingerprint-index lookup comparison.
//
// Extra modes (bypass google-benchmark):
//   --pipeline_json=PATH  run the content-pipeline suite (live vs frozen
//                         seed reference implementations) and write the
//                         BENCH_PIPELINE.json trajectory point to PATH
//   --smoke               same suite with tiny inputs/durations; used by
//                         the `bench_smoke` ctest to exercise the harness

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "bench_util.h"
#include "cluster/crush.h"
#include "cluster/osd_map.h"
#include "common/bloom_filter.h"
#include "common/buffer.h"
#include "common/crc32.h"
#include "common/random.h"
#include "compress/lz.h"
#include "dedup/chunk_map.h"
#include "dedup/chunker.h"
#include "dedup/fingerprint_cache.h"
#include "ec/reed_solomon.h"
#include "hash/fingerprint.h"
#include "hash/rabin.h"
#include "hash/sha1.h"
#include "hash/sha256.h"
#include "osd/object_store.h"
#include "reference_impls.h"
#include "sim_e2e_scenario.h"
#include "workload/content.h"

namespace gdedup {
namespace {

Buffer test_data(size_t n, double compressible = 0.0) {
  return workload::BlockContent::make(0xbead, n, compressible);
}

void BM_Sha256(benchmark::State& state) {
  Buffer data = test_data(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::of(data.span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(32768)->Arg(131072);

void BM_Sha1(benchmark::State& state) {
  Buffer data = test_data(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::of(data.span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(32768);

void BM_Crc32c(benchmark::State& state) {
  Buffer data = test_data(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data.span()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(32768);

void BM_RabinRoll(benchmark::State& state) {
  Buffer data = test_data(1 << 16);
  RabinRolling rh;
  for (auto _ : state) {
    uint64_t h = 0;
    for (uint8_t b : data.span()) h = rh.roll(b);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RabinRoll);

void BM_FixedChunking(benchmark::State& state) {
  Buffer data = test_data(4 << 20);
  FixedChunker c(32 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.split(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_FixedChunking);

void BM_CdcChunking(benchmark::State& state) {
  // The CPU cost the paper cites for rejecting CDC on the data path.
  Buffer data = test_data(4 << 20);
  CdcChunker c(8192, 32768, 131072);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.split(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_CdcChunking);

void BM_LzCompress(benchmark::State& state) {
  Buffer data = test_data(32 * 1024, static_cast<double>(state.range(0)) / 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCodec::compress(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_LzCompress)->Arg(0)->Arg(50)->Arg(90);

void BM_LzDecompress(benchmark::State& state) {
  Buffer comp = LzCodec::compress(test_data(32 * 1024, 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCodec::decompress(comp));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 32768);
}
BENCHMARK(BM_LzDecompress);

void BM_RsEncode(benchmark::State& state) {
  ReedSolomon rs(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  Buffer data = test_data(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RsEncode)->Args({2, 1})->Args({4, 2})->Args({6, 3});

void BM_RsReconstruct(benchmark::State& state) {
  ReedSolomon rs(4, 2);
  Buffer data = test_data(1 << 20);
  auto shards = rs.encode(data);
  for (auto _ : state) {
    std::vector<std::optional<Buffer>> opt(shards.begin(), shards.end());
    opt[0].reset();
    opt[3].reset();
    benchmark::DoNotOptimize(rs.reconstruct(opt));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RsReconstruct);

void BM_CrushSelect(benchmark::State& state) {
  CrushMap m;
  for (int i = 0; i < static_cast<int>(state.range(0)); i++) {
    m.add_device(i, i / 4);
  }
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.select(x++, 3));
  }
}
BENCHMARK(BM_CrushSelect)->Arg(16)->Arg(64)->Arg(256);

// What every client op, chunk put, deref and replica write pays for
// placement: OsdMap::acting on a chunk-style OID (fingerprint hex), on the
// paper's 4x4 testbed with a 128-PG metadata pool and a 128-PG chunk pool.
void BM_OsdMapActing(benchmark::State& state) {
  OsdMap m;
  for (int i = 0; i < 16; i++) m.add_osd(i, i / 4);
  PoolId pools[2];
  for (int p = 0; p < 2; p++) {
    PoolConfig cfg;
    cfg.name = p == 0 ? "meta" : "chunks";
    cfg.pg_num = 128;
    pools[p] = m.create_pool(cfg);
  }
  std::vector<std::string> oids;
  Rng rng(5);
  for (int i = 0; i < 1024; i++) {
    Buffer b(64);
    rng.fill(b.mutable_data(), b.size());
    oids.push_back(Fingerprint::compute(FingerprintAlgo::kSha256, b.span()).hex());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.acting(pools[i & 1], oids[i & 1023]));
    i++;
  }
}
BENCHMARK(BM_OsdMapActing);

void BM_BloomInsertQuery(benchmark::State& state) {
  BloomFilter bf(100000, 0.01);
  uint64_t k = 0;
  for (auto _ : state) {
    bf.insert(k);
    benchmark::DoNotOptimize(bf.maybe_contains(k ^ 1));
    k++;
  }
}
BENCHMARK(BM_BloomInsertQuery);

void BM_ChunkMapCodec(benchmark::State& state) {
  ChunkMap cm;
  const int entries = static_cast<int>(state.range(0));
  const std::string fp =
      Fingerprint::compute(FingerprintAlgo::kSha256,
                           test_data(64).span())
          .hex();
  for (int i = 0; i < entries; i++) {
    ChunkMapEntry& e = cm.obtain(static_cast<uint64_t>(i) * 32768, 32768);
    e.chunk_id = fp;
    e.cached = (i % 2) == 0;
  }
  for (auto _ : state) {
    Buffer enc = cm.encode();
    benchmark::DoNotOptimize(ChunkMap::decode(enc));
  }
}
BENCHMARK(BM_ChunkMapCodec)->Arg(16)->Arg(128)->Arg(1024);

// What every flush, chunk put, deref and replica write pays in the object
// store: apply() of a 1-3-op transaction (write, refs xattr, omap entry)
// on one object of a store holding 10k objects with chunk-style OIDs.
void BM_ObjectStoreApply(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  ObjectStore st;
  std::vector<ObjectKey> keys;
  Rng rng(11);
  for (int i = 0; i < 10000; i++) {
    Buffer b(64);
    rng.fill(b.mutable_data(), b.size());
    keys.push_back(
        {1, Fingerprint::compute(FingerprintAlgo::kSha256, b.span()).hex()});
    Transaction t;
    t.write(keys.back(), 0, Buffer(4096, 1));
    if (!st.apply(t).is_ok()) std::abort();
  }
  const Buffer data = test_data(4096);
  const Buffer value = test_data(64);
  size_t i = 0;
  for (auto _ : state) {
    const ObjectKey& k = keys[(i++ * 7919) % keys.size()];
    Transaction t;
    t.write(k, 0, data);
    if (ops > 1) t.setxattr(k, "refs", value);
    if (ops > 2) t.omap_set(k, "entry", value);
    benchmark::DoNotOptimize(st.apply(t));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObjectStoreApply)->Arg(1)->Arg(2)->Arg(3);

// A read across several extents with holes between them: the assembled
// copy every partially evicted or overwritten object read pays.
void BM_ExtentMapRead(benchmark::State& state) {
  ExtentMap em;
  const Buffer data = test_data(1 << 20);
  // 32 KiB extents with 8 KiB holes between them over 1 MiB.
  for (uint64_t off = 0; off + 32768 <= data.size(); off += 40960) {
    em.write(off, data.slice(off, 32768));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(em.read(4096, (1 << 20) - 8192));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          ((1 << 20) - 8192));
}
BENCHMARK(BM_ExtentMapRead);

// Ablation: duplicate lookup via double hashing (placement function only,
// no index) vs a conventional in-memory fingerprint index.
void BM_LookupDoubleHashing(benchmark::State& state) {
  CrushMap m;
  for (int i = 0; i < 16; i++) m.add_device(i, i / 4);
  Buffer chunk = test_data(32 * 1024);
  for (auto _ : state) {
    // fingerprint -> OID -> placement; no table, scales with nothing.
    const Fingerprint fp =
        Fingerprint::compute(FingerprintAlgo::kSha256, chunk.span());
    benchmark::DoNotOptimize(m.select(fnv1a(fp.hex()), 2));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 32768);
}
BENCHMARK(BM_LookupDoubleHashing);

void BM_LookupFingerprintIndex(benchmark::State& state) {
  // Conventional design: fingerprint + probe of a (here: in-memory, in
  // reality memory-starved) index table.
  std::unordered_map<Fingerprint, uint64_t> index;
  Rng rng(5);
  for (int i = 0; i < static_cast<int>(state.range(0)); i++) {
    Buffer b(64);
    rng.fill(b.mutable_data(), b.size());
    index[Fingerprint::compute(FingerprintAlgo::kSha256, b.span())] =
        static_cast<uint64_t>(i);
  }
  Buffer chunk = test_data(32 * 1024);
  for (auto _ : state) {
    const Fingerprint fp =
        Fingerprint::compute(FingerprintAlgo::kSha256, chunk.span());
    benchmark::DoNotOptimize(index.find(fp));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 32768);
}
BENCHMARK(BM_LookupFingerprintIndex)->Arg(100000)->Arg(1000000);

// ------------------------------------------------- content-pipeline suite
//
// Measures the live implementations against the frozen seed copies in
// reference_impls.h, cross-checking outputs (digest / boundary mismatches
// abort), and writes a flat JSON document — the perf trajectory point.

int run_pipeline_suite(const std::string& json_path, bool smoke) {
  using bench::JsonWriter;
  using bench::WallTimer;
  using bench::measure_mbps;

  const double min_sec = smoke ? 0.02 : 0.25;
  const size_t hash_len = 32 * 1024;               // one chunk
  const size_t cdc_len = smoke ? (1 << 20) : (8 << 20);

  WallTimer total;
  JsonWriter j;
  j.add("schema", std::string("gdedup.bench_pipeline.v1"));
  j.add("mode", std::string(smoke ? "smoke" : "full"));

  Buffer hash_buf = test_data(hash_len);
  Buffer cdc_buf = test_data(cdc_len);

  // --- SHA-1 ---
  {
    const auto live = Sha1::of(hash_buf.span());
    const auto ref = bench::ref::Sha1::of(hash_buf.span());
    if (std::memcmp(live.data(), ref.data(), live.size()) != 0) {
      std::fprintf(stderr, "FATAL: sha1 fast path digest mismatch\n");
      return 1;
    }
    const double mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(Sha1::of(hash_buf.span())); },
        hash_len, min_sec);
    const double ref_mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(bench::ref::Sha1::of(hash_buf.span())); },
        hash_len, min_sec);
    j.add("sha1_mbps", mbps);
    j.add("sha1_ref_mbps", ref_mbps);
    j.add("sha1_speedup", mbps / ref_mbps);
  }

  // --- SHA-256 ---
  {
    const auto live = Sha256::of(hash_buf.span());
    const auto ref = bench::ref::Sha256::of(hash_buf.span());
    if (std::memcmp(live.data(), ref.data(), live.size()) != 0) {
      std::fprintf(stderr, "FATAL: sha256 fast path digest mismatch\n");
      return 1;
    }
    const double mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(Sha256::of(hash_buf.span())); },
        hash_len, min_sec);
    const double ref_mbps = measure_mbps(
        [&] {
          benchmark::DoNotOptimize(bench::ref::Sha256::of(hash_buf.span()));
        },
        hash_len, min_sec);
    j.add("sha256_mbps", mbps);
    j.add("sha256_ref_mbps", ref_mbps);
    j.add("sha256_speedup", mbps / ref_mbps);
  }

  // --- CRC32C ---
  {
    if (crc32c(hash_buf.span()) != bench::ref::crc32c_slice4(hash_buf.span())) {
      std::fprintf(stderr, "FATAL: crc32c fast path mismatch\n");
      return 1;
    }
    const double mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(crc32c(hash_buf.span())); }, hash_len,
        min_sec);
    const double ref_mbps = measure_mbps(
        [&] {
          benchmark::DoNotOptimize(bench::ref::crc32c_slice4(hash_buf.span()));
        },
        hash_len, min_sec);
    j.add("crc32c_mbps", mbps);
    j.add("crc32c_ref_mbps", ref_mbps);
    j.add("crc32c_speedup", mbps / ref_mbps);
  }

  // --- fixed chunking ---
  {
    FixedChunker c(32 * 1024);
    const double mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(c.split(cdc_buf)); }, cdc_len, min_sec);
    j.add("fixed_mbps", mbps);
  }

  // --- CDC chunking: fast split vs frozen seed split ---
  {
    CdcChunker c(8192, 32768, 131072);
    const auto fast = c.split(cdc_buf);
    const auto ref = bench::ref::cdc_split(cdc_buf, 8192, 32768, 131072);
    bool same = fast.size() == ref.size();
    for (size_t i = 0; same && i < fast.size(); i++) {
      same = fast[i].offset == ref[i].offset &&
             fast[i].data.size() == ref[i].data.size();
    }
    if (!same) {
      std::fprintf(stderr, "FATAL: cdc fast path boundary mismatch\n");
      return 1;
    }
    const double mbps = measure_mbps(
        [&] { benchmark::DoNotOptimize(c.split(cdc_buf)); }, cdc_len, min_sec);
    const double ref_mbps = measure_mbps(
        [&] {
          benchmark::DoNotOptimize(
              bench::ref::cdc_split(cdc_buf, 8192, 32768, 131072));
        },
        cdc_len, min_sec);
    j.add("cdc_mbps", mbps);
    j.add("cdc_ref_mbps", ref_mbps);
    j.add("cdc_speedup", mbps / ref_mbps);
  }

  // --- fingerprint memoization cache (COW identity) ---
  {
    FingerprintCache cache;
    const size_t nbufs = smoke ? 32 : 256;
    std::vector<Buffer> bufs;
    bufs.reserve(nbufs);
    for (size_t i = 0; i < nbufs; i++) {
      bufs.push_back(test_data(4096 + i));
    }
    // First pass misses and fills; second pass (same Buffers, unmutated)
    // must hit — the noop re-flush pattern.
    for (int pass = 0; pass < 2; pass++) {
      for (const Buffer& b : bufs) {
        const auto* hit = cache.find(b, FingerprintAlgo::kSha1);
        if (hit == nullptr) {
          cache.insert(b, FingerprintAlgo::kSha1,
                       Fingerprint::compute(FingerprintAlgo::kSha1, b.span()));
        }
      }
    }
    const double hit_rate =
        static_cast<double>(cache.hits()) / static_cast<double>(cache.lookups());
    if (cache.hits() != nbufs) {
      std::fprintf(stderr, "FATAL: fingerprint cache re-probe missed\n");
      return 1;
    }
    j.add("fp_cache_hit_rate", hit_rate);
  }

  // --- sim-e2e smoke digest: must reproduce the frozen reference
  //     bit-for-bit ---
  {
    bench::SimE2eConfig cfg;
    cfg.image_bytes = 4ull << 20;
    cfg.preload_block = 64 * 1024;
    cfg.random_writes = 128;
    cfg.random_reads = 128;
    const bench::SimE2eResult r = bench::run_sim_e2e(cfg);
    // Frozen from this exact smoke scenario.  Re-frozen for the sharded
    // event engine (receiver-sequenced rx + global control lane; see
    // tests/test_sim_determinism.cc).
    constexpr const char* kSmokeDigest = "8a3248c7";
    if (r.digest != kSmokeDigest) {
      std::fprintf(stderr,
                   "FATAL: sim-e2e smoke digest %s != frozen reference %s\n",
                   r.digest.c_str(), kSmokeDigest);
      return 1;
    }
    j.add("sim_e2e_smoke_digest", r.digest);
  }

  j.add("wall_sec", total.elapsed_sec());

  const std::string doc = j.str();
  std::fputs(doc.c_str(), stdout);
  if (!json_path.empty()) {
    if (!j.write_file(json_path)) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace gdedup

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; i++) {
    const std::string_view a = argv[i];
    if (a.rfind("--pipeline_json=", 0) == 0) {
      json_path = std::string(a.substr(std::strlen("--pipeline_json=")));
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty() || smoke) {
    return gdedup::run_pipeline_suite(json_path, smoke);
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
