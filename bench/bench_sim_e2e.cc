// End-to-end simulation-core wall-clock benchmark.
//
// Runs the canonical write -> flush -> read scenario of
// sim_e2e_scenario.h on the paper's 4x4-OSD testbed shape and reports how
// many *simulated* megabytes of client traffic the simulator pushes per
// *wall-clock* second, plus scheduler events/sec and the determinism
// digest.  Wall-clock figures are printed with the host they were measured
// on (nproc, CPU model, build type): they compare only against runs of the
// same host and build, so the bench carries no throughput reference of its
// own.  The digest is the one frozen reference, and it gates the run.
//
// Modes:
//   --json=PATH  write the BENCH_SIM.json trajectory point to PATH
//   --smoke      tiny scenario; structural self-checks only (ctest)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "sim_e2e_scenario.h"

namespace gdedup::bench {
namespace {

// Frozen reference for this exact scenario: the virtual-time fingerprint
// every host-side change must reproduce exactly.  Re-frozen once for the
// sharded engine (receiver-sequenced rx + global control lane — see
// tests/test_sim_determinism.cc for the behaviour-change rationale).
constexpr const char* kReferenceDigest = "fc0493f7";

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

// What the wall-clock figures were measured on.
struct HostStamp {
  unsigned nproc = std::thread::hardware_concurrency();
  std::string cpu = "unknown";
  std::string build_type = BENCH_BUILD_TYPE;
};

HostStamp host_stamp() {
  HostStamp h;
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      h.cpu = line.substr(colon + 2);
    }
    break;
  }
  return h;
}

SimE2eConfig smoke_config() {
  SimE2eConfig cfg;
  cfg.image_bytes = 4ull << 20;
  cfg.preload_block = 64 * 1024;
  cfg.random_writes = 128;
  cfg.random_reads = 128;
  return cfg;
}

// Dedup-heavy variant for the two-tier fast-path comparison: nearly every
// generated block duplicates an earlier one (long content clusters), and
// overwrites are chunk-aligned so phase-2 flushes hash whole generated
// blocks instead of unique overlay merges.  This is the workload the
// fingerprint index exists for; the default 0.5-dedupe scenario keeps the
// frozen digest and measures that the fast path costs nothing there.
SimE2eConfig dedup_heavy_config() {
  SimE2eConfig cfg;
  cfg.image_bytes = 128ull << 20;
  cfg.dedupe = 0.95;
  cfg.small_block = 32 * 1024;  // == chunk_size: aligned overwrites
  cfg.random_writes = 8192;
  cfg.random_reads = 4096;
  return cfg;
}

void print_fastpath(const SimE2eResult& r) {
  std::printf("  fp fast path         : %8s (%llu SHA run, %llu avoided, "
              "%llu memo hits)\n",
              r.fp_fastpath_used ? "on" : "off",
              static_cast<unsigned long long>(r.sha_computed),
              static_cast<unsigned long long>(r.sha_avoided),
              static_cast<unsigned long long>(r.fingerprint_cache_hits));
  std::printf("    sha avoided ratio  : %8.3f (%llu weak hits, %llu "
              "collisions, %llu bloom negatives)\n",
              r.sha_avoided_ratio(),
              static_cast<unsigned long long>(r.weak_hash_hits),
              static_cast<unsigned long long>(r.weak_collisions),
              static_cast<unsigned long long>(r.bloom_negative_hits));
  std::printf("    meta read amp      : %8.4f (%llu KB refs read, %llu KB "
              "written, %llu decodes, %llu cache hits)\n",
              r.meta_read_amp(),
              static_cast<unsigned long long>(r.meta_bytes_read / 1024),
              static_cast<unsigned long long>(r.meta_bytes_written / 1024),
              static_cast<unsigned long long>(r.refs_decodes),
              static_cast<unsigned long long>(r.refs_cache_hits));
}

int run_smoke() {
  SimE2eConfig cfg = smoke_config();
  WallTimer wt;
  SimE2eResult r = run_sim_e2e(cfg);
  const double wall = wt.elapsed_sec();

  // Structural self-checks: the scenario must complete, drain its dedup
  // backlog, and digest every completed op plus the fixed counter block.
  const uint64_t expect_ops =
      cfg.image_bytes / cfg.preload_block + cfg.random_writes + cfg.random_reads;
  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "bench_sim_e2e smoke FAILED: %s\n", what);
      ok = false;
    }
  };
  check(r.ops == expect_ops, "completed-op count mismatch");
  check(r.drained, "dedup backlog did not drain");
  check(r.sim_bytes > 0, "no simulated bytes moved");
  check(r.events > r.ops, "implausibly few scheduler events");
  check(r.digest_samples > r.ops, "digest missed the counter block");

  // Fast-path invariance at smoke scale: switching the two-tier path off
  // must reproduce the same digest (it changes host-side work only), and
  // having it on can only reduce the number of full SHA runs.
  SimE2eConfig off = cfg;
  off.fp_fastpath = false;
  SimE2eResult roff = run_sim_e2e(off);
  check(roff.digest == r.digest, "digest depends on the fp fast path");
  check(r.sha_computed <= roff.sha_computed,
        "fast path increased full-SHA invocations");
  check(roff.sha_avoided == 0 && roff.weak_hash_hits == 0,
        "fast-path counters moved while forced off");

  std::printf("smoke ok=%d ops=%llu events=%llu digest=%s wall=%.2fs\n",
              ok ? 1 : 0, static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.events), r.digest.c_str(),
              wall);
  return ok ? 0 : 1;
}

int run_full(const std::string& json_path) {
  print_header("Simulation-core end-to-end wall-clock benchmark",
               "bench trajectory (BENCH_SIM.json); scenario of every "
               "figure/table bench");

  SimE2eConfig cfg;  // full-size defaults: 4x4 OSDs, 256 MB image
  WallTimer wt;
  SimE2eResult r = run_sim_e2e(cfg);
  const double wall = wt.elapsed_sec();

  const double sim_mb = static_cast<double>(r.sim_bytes) / 1e6;
  const double mb_per_wall_sec = sim_mb / wall;
  const double events_per_sec = static_cast<double>(r.events) / wall;
  const HostStamp host = host_stamp();

  std::printf("\nscenario: %d nodes x %d OSDs, %.0f MB image, %zu+%zu random ops\n",
              cfg.storage_nodes, cfg.osds_per_node,
              static_cast<double>(cfg.image_bytes) / 1e6, cfg.random_writes,
              cfg.random_reads);
  std::printf("  host                 : nproc=%u cpu='%s' build=%s\n",
              host.nproc, host.cpu.c_str(), host.build_type.c_str());
  std::printf("  wall time            : %8.2f s\n", wall);
  std::printf("  simulated traffic    : %8.1f MB (%llu client ops)\n", sim_mb,
              static_cast<unsigned long long>(r.ops));
  std::printf("  sim MB / wall second : %8.1f\n", mb_per_wall_sec);
  std::printf("  events / wall second : %8.3gM\n", events_per_sec / 1e6);
  std::printf("  virtual duration     : %8.2f s (%llu events)\n",
              static_cast<double>(r.sim_duration) / kSecond,
              static_cast<unsigned long long>(r.events));
  const bool digest_ok = r.digest == kReferenceDigest;
  std::printf("  determinism digest   : %s (%llu samples, reference %s%s)\n",
              r.digest.c_str(),
              static_cast<unsigned long long>(r.digest_samples),
              kReferenceDigest, digest_ok ? ", match" : ", MISMATCH");
  std::printf("  drained              : %s\n", r.drained ? "yes" : "NO");
  std::printf("  engine shards        : %8d (%llu windows, %llu sync barriers)\n",
              r.sim_shards_used, static_cast<unsigned long long>(r.sim.windows),
              static_cast<unsigned long long>(r.sim.shard_sync_barriers));
  std::printf("  engine dispatches    : %8llu (%llu batched, %llu ingress, "
              "%.1f KB arena)\n",
              static_cast<unsigned long long>(r.sim.events_dispatched),
              static_cast<unsigned long long>(r.sim.events_batched),
              static_cast<unsigned long long>(r.sim.ingress_messages),
              static_cast<double>(r.sim.arena_bytes) / 1024.0);
  std::printf("  kernels              :\n");
  for (const auto& k : r.kernels) {
    std::printf("    %-12s %8llu jobs  %8.1f ms busy\n", k.name,
                static_cast<unsigned long long>(k.jobs),
                static_cast<double>(k.busy_ns) / 1e6);
  }
  print_fastpath(r);

  // Two-tier fast-path comparison on the dedup-heavy variant: run it once
  // with the fast path on and once switched off.  Both digests must
  // match (the fast path is host-side only) and the on-run must cut full
  // SHA invocations by at least 2x — that pair of properties is the
  // acceptance contract for the fingerprint index.
  std::printf("\ndedup-heavy variant (dedupe=%.2f, chunk-aligned overwrites):\n",
              dedup_heavy_config().dedupe);
  SimE2eConfig hv = dedup_heavy_config();
  WallTimer hwt_on;
  SimE2eResult hon = run_sim_e2e(hv);
  const double heavy_wall_on = hwt_on.elapsed_sec();
  hv.fp_fastpath = false;
  WallTimer hwt_off;
  SimE2eResult hoff = run_sim_e2e(hv);
  const double heavy_wall_off = hwt_off.elapsed_sec();

  const double heavy_mb = static_cast<double>(hon.sim_bytes) / 1e6;
  const double sha_reduction =
      static_cast<double>(hoff.sha_computed) /
      static_cast<double>(hon.sha_computed > 0 ? hon.sha_computed : 1);
  const bool heavy_digest_ok = hon.digest == hoff.digest;
  std::printf("  sim MB / wall second : %8.1f on, %8.1f off\n",
              heavy_mb / heavy_wall_on, heavy_mb / heavy_wall_off);
  std::printf("  full SHA invocations : %8llu -> %llu  (%.2fx reduction)\n",
              static_cast<unsigned long long>(hoff.sha_computed),
              static_cast<unsigned long long>(hon.sha_computed),
              sha_reduction);
  std::printf("  digest on == off     : %8s (%s vs %s)\n",
              heavy_digest_ok ? "yes" : "NO", hon.digest.c_str(),
              hoff.digest.c_str());
  print_fastpath(hon);

  if (!json_path.empty()) {
    JsonWriter jw;
    jw.add("bench", std::string("sim_e2e"));
    jw.add("scenario", std::string("4x4osd_write_flush_read"));
    jw.add("nproc", static_cast<double>(host.nproc));
    jw.add("cpu_model", host.cpu);
    jw.add("build_type", host.build_type);
    jw.add("sim_mb_per_wall_sec", mb_per_wall_sec);
    jw.add("events_per_wall_sec", events_per_sec);
    jw.add("wall_seconds", wall);
    jw.add("simulated_mb", sim_mb);
    jw.add("client_ops", static_cast<double>(r.ops));
    jw.add("scheduler_events", static_cast<double>(r.events));
    jw.add("virtual_seconds", static_cast<double>(r.sim_duration) / kSecond);
    jw.add("determinism_digest", r.digest);
    jw.add("reference_digest", std::string(kReferenceDigest));
    jw.add("digest_samples", static_cast<double>(r.digest_samples));
    jw.add("sim_shards", static_cast<double>(r.sim_shards_used));
    jw.add("sim_events_dispatched", static_cast<double>(r.sim.events_dispatched));
    jw.add("sim_events_batched", static_cast<double>(r.sim.events_batched));
    jw.add("sim_ingress_messages", static_cast<double>(r.sim.ingress_messages));
    jw.add("sim_shard_sync_barriers",
           static_cast<double>(r.sim.shard_sync_barriers));
    jw.add("sim_windows", static_cast<double>(r.sim.windows));
    jw.add("sim_arena_bytes", static_cast<double>(r.sim.arena_bytes));
    for (const auto& k : r.kernels) {
      jw.add(std::string("offload_") + k.name + "_jobs",
             static_cast<double>(k.jobs));
      jw.add(std::string("offload_") + k.name + "_busy_ms",
             static_cast<double>(k.busy_ns) / 1e6);
    }
    jw.add("fp_fastpath", r.fp_fastpath_used ? 1.0 : 0.0);
    jw.add("fp_sha_computed", static_cast<double>(r.sha_computed));
    jw.add("fp_sha_avoided", static_cast<double>(r.sha_avoided));
    jw.add("fp_sha_avoided_ratio", r.sha_avoided_ratio());
    jw.add("fp_weak_hash_hits", static_cast<double>(r.weak_hash_hits));
    jw.add("fp_weak_collisions", static_cast<double>(r.weak_collisions));
    jw.add("fp_bloom_negative_hits",
           static_cast<double>(r.bloom_negative_hits));
    jw.add("meta_bytes_read", static_cast<double>(r.meta_bytes_read));
    jw.add("meta_bytes_written", static_cast<double>(r.meta_bytes_written));
    jw.add("meta_read_amp", r.meta_read_amp());
    jw.add("refs_decodes", static_cast<double>(r.refs_decodes));
    jw.add("refs_cache_hits", static_cast<double>(r.refs_cache_hits));
    jw.add("heavy_sha_reduction", sha_reduction);
    jw.add("heavy_digest_match", heavy_digest_ok ? 1.0 : 0.0);
    jw.add("heavy_sim_mb_per_wall_sec_on", heavy_mb / heavy_wall_on);
    jw.add("heavy_sim_mb_per_wall_sec_off", heavy_mb / heavy_wall_off);
    jw.add("heavy_sha_avoided_ratio", hon.sha_avoided_ratio());
    jw.add("heavy_meta_read_amp", hon.meta_read_amp());
    if (!jw.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\ntrajectory point written to %s\n", json_path.c_str());
  }
  if (!digest_ok) {
    std::fprintf(stderr,
                 "FATAL: determinism digest drifted from the frozen "
                 "reference — a host-side change moved virtual time\n");
    return 1;
  }
  if (!heavy_digest_ok) {
    std::fprintf(stderr,
                 "FATAL: dedup-heavy digest differs with the fast path on "
                 "vs off — the fast path leaked into virtual time\n");
    return 1;
  }
  if (sha_reduction < 2.0) {
    std::fprintf(stderr,
                 "FATAL: dedup-heavy full-SHA reduction %.2fx is below the "
                 "2x acceptance floor\n", sha_reduction);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gdedup::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  return smoke ? gdedup::bench::run_smoke()
               : gdedup::bench::run_full(json_path);
}
