// perfbench — the repository's benchmark: three workloads driven through
// the program's public API, end-to-end metrics in host time (how fast the
// simulator runs) and in virtual time (how the simulated dedup system
// serves its users), per-layer metrics from a traced run, and checks of
// every output against the benchmark's own content model.
//
//   perfbench --workload vm_image|backup_restore|tenant_churn --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// A run repeats whole rounds with the same seed until S seconds have
// passed.  Each round brings up a fresh cluster, generates every input
// (setup), runs the workload phases (the timed region), then verifies.
// The first round of a run reads back all live data and audits the chunk
// pool with the reference SHA-256; later rounds must reproduce its
// virtual-time figures and chunk-pool listing exactly.  With --trace 1
// each traced round is paired with an untraced one, and only per-layer
// metrics are reported.  The last line of stdout is the JSON result.
// perfbench/README.md documents every metric and workload.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/crc32.h"
#include "dedup/scrub.h"
#include "harness.h"
#include "model.h"
#include "workload/churn.h"
#include "workload/content.h"
#include "workload/fio_gen.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr uint32_t kChunk = 32 * 1024;  // tier_config().chunk_size
constexpr int kDepth = 16;              // closed-loop outstanding ops

using Values = std::map<std::string, double>;

// Phase labels for the span file.
enum Phase : uint16_t {
  kNoPhase,
  kPreload,
  kOverwrite,
  kRandRead,
  kBackupWrite,
  kRestoreNewest,
  kRestoreOldest,
  kOnboard,
  kLadder,
  kSweep,
  kReadback,
  kAudit,
};
const std::vector<std::string> kPhaseLabels = {
    "",      "preload", "overwrite", "random_read", "backup_write",
    "restore_newest",   "restore_oldest", "onboard", "ladder",
    "sweep", "readback", "chunk_audit"};

double mb(uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }
double secs(SimTime t) { return static_cast<double>(t) / 1e9; }

// 0..n-1 in a seeded Fisher-Yates order.
std::vector<size_t> shuffled(size_t n, Rng& rng) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; i++) v[i] = i;
  for (size_t i = n; i > 1; i--) std::swap(v[i - 1], v[rng.below(i)]);
  return v;
}

// Buffers generated once per distinct content seed, so duplicate content
// shares storage exactly as the program's zero-copy writes do.
class ContentCache {
 public:
  Buffer get(uint64_t seed, uint32_t len) {
    auto it = by_seed_.find(seed ^ (static_cast<uint64_t>(len) << 48));
    if (it != by_seed_.end()) return it->second;
    Buffer b = workload::BlockContent::make(seed, len);
    by_seed_.emplace(seed ^ (static_cast<uint64_t>(len) << 48), b);
    return b;
  }

 private:
  std::unordered_map<uint64_t, Buffer> by_seed_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual ClusterConfig cluster() const { return {}; }
  virtual bool ec_chunks() const { return false; }
  // Every input of the round, from the seed alone.
  virtual void generate() = 0;
  // The timed workload phases.  Fills the virtual-time end-to-end metrics
  // (and per-rung layer metrics) into `e2e` / `layer`.
  virtual void run(Round& r, Values& e2e, Values& layer) = 0;
  // Full readback of live data the phases did not already verify.
  virtual void readback(Round& r) = 0;
  virtual void live(LiveChunks& lc) const = 0;
  virtual uint64_t live_bytes() const = 0;
  virtual bool runs_gc() const { return false; }
};

// Record `data` at `off` in the model, then write it through `bd`; a
// non-OK status is a failed write.  `done` runs on completion.
template <typename Done>
void model_write(Round& r, BlockDevice& bd, ContentModel& m, uint64_t off,
                 Buffer data, Done done) {
  m.write(off, data);
  r.ops.attempt(kOpWrite);
  r.payload_bytes += data.size();
  r.issue([&] {
    bd.write(off, std::move(data), [&r, off, done](Status st) {
      if (!st.is_ok()) {
        r.ops.fail(kOpWrite, "@" + std::to_string(off) + " " + st.to_string());
      }
      done();
    });
  });
}

// Sequential whole-range reads of `m` in `io`-byte ops at kDepth, each
// verified; `read(off, len, cb)` issues one.
template <typename Read>
SimTime verified_scan(Round& r, const ContentModel& m, uint64_t io, int kind,
                      Read&& read, std::vector<SimTime>* lat,
                      uint64_t* bytes) {
  const size_t n = static_cast<size_t>((m.size() + io - 1) / io);
  return closed_loop(
      r, n, kDepth,
      [&](size_t i, auto done) {
        const uint64_t off = i * io;
        r.ops.attempt(kind);
        r.issue([&] {
          read(off, io, [&r, &m, off, io, kind, bytes, done](Result<Buffer> got) {
            if (bytes != nullptr && got.is_ok()) *bytes += got.value().size();
            const std::string bad =
                r.check([&] { return m.verify(off, io, got); });
            if (!bad.empty()) r.ops.fail(kind, "@" + std::to_string(off) + " " + bad);
            done();
          });
        });
      },
      lat);
}

// ---------------------------------------------------------------- vm_image
//
// The reference scenario: a 256 MiB image preloaded in 32 KiB sequential
// writes at dedupe 0.5, 16384 random 8 KiB overwrites, drain, 16384
// random 8 KiB reads, all closed loop at depth 16, 4x4 OSDs, 2x pools.
class VmImage : public Workload {
 public:
  static constexpr uint64_t kImage = 256ull << 20;
  static constexpr uint32_t kObject = 4u << 20;
  static constexpr uint32_t kPreBlock = 32 * 1024;
  static constexpr uint32_t kSmall = 8 * 1024;
  static constexpr size_t kOps = 16384;
  static constexpr double kDedupe = 0.5;

  explicit VmImage(uint64_t seed) : seed_(seed), model_(kSmall) {}

  void generate() override {
    workload::FioConfig fio;
    fio.total_bytes = kImage;
    fio.block_size = kPreBlock;
    fio.dedupe_ratio = kDedupe;
    fio.seed = seed_;
    workload::FioGenerator gen(fio);
    std::unordered_map<uint64_t, Buffer> by_seed;
    preload_.reserve(gen.num_blocks());
    for (uint64_t i = 0; i < gen.num_blocks(); i++) {
      auto [it, fresh] = by_seed.try_emplace(gen.content_seed(i));
      if (fresh) it->second = gen.block(i);
      preload_.push_back(it->second);
    }
    writes_ = workload::make_random_ops(kImage, kSmall, kOps, true, kDedupe,
                                        seed_ ^ 0x5EED);
    for (const auto& op : writes_) {
      write_data_.push_back(cache_.get(op.content_seed, op.length));
    }
    reads_ = workload::make_random_ops(kImage, kSmall, kOps, false, 0.0,
                                       seed_ ^ 0xBEEF);
  }

  void run(Round& r, Values& e2e, Values&) override {
    bdev_ = std::make_unique<BlockDevice>(&r.client, r.base, "vm-image",
                                          kImage, kObject);
    std::vector<SimTime> pre_lat, w_lat, r_lat;
    SimTime pre_t, w_t, r_t;
    {
      Scope s(r.tr, Sp::kPhase, kPreload);
      pre_t = write_phase(r, preload_.size(),
                          [&](size_t i) { return i * uint64_t{kPreBlock}; },
                          [&](size_t i) { return preload_[i]; }, &pre_lat);
    }
    {
      Scope s(r.tr, Sp::kPhase, kOverwrite);
      w_t = write_phase(r, writes_.size(),
                        [&](size_t i) { return writes_[i].offset; },
                        [&](size_t i) { return write_data_[i]; }, &w_lat);
    }
    const SimTime drain = r.drain();
    if (drain < 0) r.ops.fail(kOpWrite, "dedup backlog did not drain");
    {
      Scope s(r.tr, Sp::kPhase, kRandRead);
      r_t = closed_loop(
          r, reads_.size(), kDepth,
          [&](size_t i, auto done) {
            const workload::IoOp& op = reads_[i];
            r.ops.attempt(kOpRead);
            r.issue([&] {
              bdev_->read(op.offset, op.length,
                          [&r, this, &op, done](Result<Buffer> got) {
                            const std::string bad = r.check([&] {
                              return model_.verify(op.offset, op.length, got);
                            });
                            if (!bad.empty()) r.ops.fail(kOpRead, bad);
                            done();
                          });
            });
          },
          &r_lat);
      r.payload_bytes += reads_.size() * uint64_t{kSmall};
    }
    const uint64_t written = preload_.size() * uint64_t{kPreBlock} +
                             writes_.size() * uint64_t{kSmall};
    // p99: 164 of 16384 samples beyond.  p99.9 (16 beyond) moved by 56%
    // (quartile distance over median) across five seeds.
    const double q = 0.99;
    e2e["write_mb_s"] = mb(written) / secs(pre_t + w_t);
    e2e["read_mb_s"] = mb(reads_.size() * uint64_t{kSmall}) / secs(r_t);
    e2e["write_mean_ms"] = mean_ms(w_lat);
    e2e["write_tail_ms"] = pct_ms(w_lat, q);
    e2e["read_mean_ms"] = mean_ms(r_lat);
    e2e["read_tail_ms"] = pct_ms(r_lat, q);
    e2e["drain_s"] = secs(drain);
    e2e["sustained_iops"] =
        static_cast<double>(preload_.size() + writes_.size() + reads_.size()) /
        secs(pre_t + w_t + r_t);
  }

  void readback(Round& r) override {
    Scope s(r.tr, Sp::kPhase, kReadback);
    verified_scan(
        r, model_, 256 * 1024, kOpReadback,
        [&](uint64_t off, uint64_t len, auto cb) { bdev_->read(off, len, cb); },
        nullptr, nullptr);
  }

  void live(LiveChunks& lc) const override { lc.add(model_, kChunk); }
  uint64_t live_bytes() const override { return model_.size(); }

 private:
  template <typename Off, typename Data>
  SimTime write_phase(Round& r, size_t n, Off&& off_of, Data&& data_of,
                      std::vector<SimTime>* lat) {
    return closed_loop(
        r, n, kDepth,
        [&](size_t i, auto done) {
          model_write(r, *bdev_, model_, off_of(i), data_of(i), done);
        },
        lat);
  }

  uint64_t seed_;
  ContentModel model_;
  ContentCache cache_;
  std::vector<Buffer> preload_;
  std::vector<workload::IoOp> writes_, reads_;
  std::vector<Buffer> write_data_;
  std::unique_ptr<BlockDevice> bdev_;
};

// ----------------------------------------------------------- backup_restore
//
// Backup generations of one image on a 2x base pool and an EC(2,1) chunk
// pool (see Round::make_pools for why the base pool is not EC).  Each
// generation is a full copy of the previous one with kChange of its
// chunk-aligned 32 KiB blocks rewritten, streamed in 32 KiB sequential
// writes to its own image.  Then a drain and sequential 64 KiB restore
// reads of the newest and the oldest generation.
class BackupRestore : public Workload {
 public:
  static constexpr uint64_t kImage = 48ull << 20;
  static constexpr uint32_t kObject = 4u << 20;
  static constexpr uint32_t kBlock = 32 * 1024;
  static constexpr uint32_t kRestoreIo = 64 * 1024;
  static constexpr int kGens = 5;
  static constexpr double kChange = 0.04;
  static constexpr double kDedupe = 0.2;  // duplicates inside generation 0

  explicit BackupRestore(uint64_t seed) : seed_(seed) {}

  bool ec_chunks() const override { return true; }

  void generate() override {
    workload::FioConfig fio;
    fio.total_bytes = kImage;
    fio.block_size = kBlock;
    fio.dedupe_ratio = kDedupe;
    fio.seed = seed_;
    workload::FioGenerator gen(fio);
    std::unordered_map<uint64_t, Buffer> by_seed;
    gens_.assign(kGens, {});
    for (uint64_t i = 0; i < gen.num_blocks(); i++) {
      auto [it, fresh] = by_seed.try_emplace(gen.content_seed(i));
      if (fresh) it->second = gen.block(i);
      gens_[0].push_back(it->second);
    }
    Rng rng(mix64(seed_ ^ 0xBAC0));
    for (int g = 1; g < kGens; g++) {
      gens_[static_cast<size_t>(g)] = gens_[static_cast<size_t>(g - 1)];
      for (size_t b = 0; b < gens_[0].size(); b++) {
        if (rng.chance(kChange)) {
          gens_[static_cast<size_t>(g)][b] = workload::BlockContent::make(
              mix64(seed_ ^ (static_cast<uint64_t>(g) << 40) ^ b), kBlock);
        }
      }
    }
  }

  void run(Round& r, Values& e2e, Values&) override {
    for (int g = 0; g < kGens; g++) {
      bdevs_.push_back(std::make_unique<BlockDevice>(
          &r.client, r.base, "backup-g" + std::to_string(g), kImage, kObject));
      models_.emplace_back(kBlock);
    }
    std::vector<SimTime> w_lat, r_lat;
    SimTime w_t = 0, r_t = 0;
    uint64_t written = 0, restored = 0;
    {
      Scope s(r.tr, Sp::kPhase, kBackupWrite);
      for (int g = 0; g < kGens; g++) {
        const auto& blocks = gens_[static_cast<size_t>(g)];
        BlockDevice& bd = *bdevs_[static_cast<size_t>(g)];
        ContentModel& m = models_[static_cast<size_t>(g)];
        w_t += closed_loop(
            r, blocks.size(), kDepth,
            [&](size_t i, auto done) {
              model_write(r, bd, m, i * uint64_t{kBlock}, blocks[i], done);
            },
            &w_lat);
        written += blocks.size() * uint64_t{kBlock};
      }
    }
    const SimTime drain = r.drain();
    if (drain < 0) r.ops.fail(kOpWrite, "dedup backlog did not drain");
    for (int g : {kGens - 1, 0}) {
      Scope s(r.tr, Sp::kPhase, g == 0 ? kRestoreOldest : kRestoreNewest);
      BlockDevice& bd = *bdevs_[static_cast<size_t>(g)];
      r_t += verified_scan(
          r, models_[static_cast<size_t>(g)], kRestoreIo, kOpRead,
          [&](uint64_t off, uint64_t len, auto cb) { bd.read(off, len, cb); },
          &r_lat, &restored);
    }
    r.payload_bytes += restored;  // model_write counted the writes
    const double q = 0.99;  // 1536 restore reads: 15 beyond
    e2e["write_mb_s"] = mb(written) / secs(w_t);
    e2e["read_mb_s"] = mb(restored) / secs(r_t);
    e2e["write_mean_ms"] = mean_ms(w_lat);
    e2e["write_tail_ms"] = pct_ms(w_lat, q);
    e2e["read_mean_ms"] = mean_ms(r_lat);
    e2e["read_tail_ms"] = pct_ms(r_lat, q);
    e2e["drain_s"] = secs(drain);
    e2e["sustained_iops"] =
        static_cast<double>(w_lat.size() + r_lat.size()) / secs(w_t + r_t);
  }

  void readback(Round& r) override {
    Scope s(r.tr, Sp::kPhase, kReadback);
    for (int g = 1; g + 1 < kGens; g++) {
      BlockDevice& bd = *bdevs_[static_cast<size_t>(g)];
      verified_scan(
          r, models_[static_cast<size_t>(g)], 256 * 1024, kOpReadback,
          [&](uint64_t off, uint64_t len, auto cb) { bd.read(off, len, cb); },
          nullptr, nullptr);
    }
  }

  void live(LiveChunks& lc) const override {
    for (const ContentModel& m : models_) lc.add(m, kChunk);
  }
  uint64_t live_bytes() const override {
    uint64_t n = 0;
    for (const ContentModel& m : models_) n += m.size();
    return n;
  }

 private:
  uint64_t seed_;
  std::vector<std::vector<Buffer>> gens_;
  std::vector<std::unique_ptr<BlockDevice>> bdevs_;
  std::vector<ContentModel> models_;
};

// ------------------------------------------------------------ tenant_churn
//
// 16 storage nodes under the zipf multi-tenant ChurnWorkload.  Tenants are
// onboarded (closed loop) and their data deduplicated, then an open loop
// of overwrites and reads runs at a fixed ladder of Poisson-offered rates
// straddling the rate controller's 500 / 4000 IOPS watermarks, then a
// drain, GC to a fixpoint, a deep scrub, and a verified closed-loop read
// sweep of every object.
//
// The ladder issues no removes (ChurnConfig::delete_frac = 0) and writes
// whole chunks (io_bytes = chunk size).  With removes, a completed remove
// can be followed by reads that still return the old bytes, live objects
// read back NotFound for a reclaimed chunk, and with 16 KiB writes one
// object's flush merges forever so the drain never ends.  With 16 KiB
// writes and no removes, a read issued after an overwrite was acked can
// still return the block's onboarding bytes.  Each happens on some seeds
// only.  Deref and GC still run: every flush of an overwritten chunk
// dereferences the chunk it replaces.
class TenantChurn : public Workload {
 public:
  static constexpr int kTenants = 16;
  static constexpr int kObjectsPerTenant = 48;
  static constexpr uint32_t kObjectBytes = 64 * 1024;
  static constexpr uint32_t kIo = 32 * 1024;
  // Offered rates, cluster-wide.  The watermarks apply per primary OSD, so
  // over 16 OSDs the rungs offer ~125, 500, 1000, 2000 and 5000 IOPS to
  // each: below, at, between and above the 500 / 4000 watermarks.
  static constexpr std::array<int, 5> kRungs = {2000, 8000, 16000, 32000,
                                                80000};
  // Virtual length of each rung.  The named rung runs longest so its
  // latencies rest on enough samples; the saturating top rung shortest.
  static constexpr std::array<SimTime, 5> kRungLen = {
      kSecond / 2, kSecond / 2, kSecond, kSecond / 2, kSecond / 10};
  // Latencies come from the 16000 IOPS rung, between the watermarks.
  static constexpr int kNamedRung = 2;
  // Tail percentile: the named rung has ~2400 reads, 24 beyond p99.
  static constexpr double kTail = 0.99;
  // sustained_iops: a rung is sustained when its write tail is within the
  // limit and at most half the objects are dirty at its end.  The backlog
  // counts dirty objects, so it is bounded by the object count and cannot
  // grow without limit; once the rate controller throttles the engine it
  // jumps from about a third of the objects to nearly all of them.
  static constexpr double kWriteTailLimitMs = 5.0;
  static constexpr size_t kBacklogCap = kTenants * kObjectsPerTenant / 2;

  explicit TenantChurn(uint64_t seed) : seed_(seed) {}

  ClusterConfig cluster() const override {
    ClusterConfig cc;
    cc.storage_nodes = 16;
    cc.osds_per_node = 1;
    return cc;
  }

  void generate() override {
    workload::ChurnConfig cfg;
    cfg.tenants = kTenants;
    cfg.objects_per_tenant = kObjectsPerTenant;
    cfg.object_bytes = kObjectBytes;
    cfg.io_bytes = kIo;
    cfg.delete_frac = 0;
    cfg.seed = seed_;
    workload::ChurnWorkload wl(cfg);
    // Tenants' objects arrive in a seeded order, each written front to back.
    const std::vector<workload::ChurnOp> plan = wl.onboarding_plan(0, kTenants);
    const size_t per_obj = kObjectBytes / kIo;
    Rng order(mix64(seed_ ^ 0x0B0A));
    for (size_t o : shuffled(plan.size() / per_obj, order)) {
      for (size_t b = 0; b < per_obj; b++) onboard_.push_back(plan[o * per_obj + b]);
    }
    sweep_order_ = shuffled(static_cast<size_t>(kTenants * kObjectsPerTenant), order);
    // Independent tenants: Poisson arrivals at each rung's rate.
    Rng arrivals(mix64(seed_ ^ 0xA771));
    for (size_t k = 0; k < kRungs.size(); k++) {
      double t = 0;
      while (true) {
        t += -std::log(1.0 - arrivals.uniform01()) * 1e9 / kRungs[k];
        if (t >= static_cast<double>(kRungLen[k])) break;
        due_.push_back(rung_start(k) + static_cast<SimTime>(t));
        rung_of_.push_back(k);
        ladder_.push_back(wl.next_op());
      }
    }
    for (const auto* ops : {&onboard_, &ladder_}) {
      for (const auto& op : *ops) {
        if (op.kind == workload::ChurnOpKind::kWrite) {
          data_.push_back(cache_.get(op.content_seed, op.length));
        }
      }
    }
    for (int t = 0; t < kTenants; t++) {
      for (int o = 0; o < kObjectsPerTenant; o++) {
        objects_.emplace(wl.oid(t, o), Obj{ContentModel(kIo)});
      }
    }
  }

  void run(Round& r, Values& e2e, Values& layer) override {
    size_t next_data = 0;
    SimTime onboard_t;
    {
      Scope s(r.tr, Sp::kPhase, kOnboard);
      onboard_t = closed_loop(
          r, onboard_.size(), kDepth,
          [&](size_t i, auto done) {
            issue_op(r, onboard_[i], data_[next_data++], r.now(), nullptr,
                     done);
          },
          nullptr);
    }
    const uint64_t onboarded = onboard_.size() * uint64_t{kIo};
    r.payload_bytes += onboarded;
    if (r.drain() < 0) r.ops.fail(kOpWrite, "onboarding did not drain");

    // Open loop: each op is issued when due, whatever is outstanding, and
    // its latency counts from the due time.  The backlog is sampled at the
    // end of every rung.
    struct Rung {
      std::vector<SimTime> w_lat, r_lat;
      size_t completed = 0;
      size_t backlog_end = 0;
    };
    std::vector<Rung> rungs(kRungs.size());
    {
      Scope s(r.tr, Sp::kPhase, kLadder);
      const SimTime t0 = r.now();
      size_t outstanding = 0;
      for (size_t i = 0; i < ladder_.size(); i++) {
        const workload::ChurnOp& op = ladder_[i];
        const SimTime due = t0 + due_[i];
        const Buffer data = op.kind == workload::ChurnOpKind::kWrite
                                ? data_[next_data++]
                                : Buffer();
        Rung& g = rungs[rung_of_[i]];
        outstanding++;
        r.c.sched().at(due, [&, due, data] {
          auto* lat = op.kind == workload::ChurnOpKind::kWrite  ? &g.w_lat
                      : op.kind == workload::ChurnOpKind::kRead ? &g.r_lat
                                                                : nullptr;
          issue_op(r, op, data, due, lat, [&g, &outstanding] {
            g.completed++;
            outstanding--;
          });
        });
      }
      size_t ended = 0;  // rungs whose end has passed
      while (outstanding > 0) {
        if (!r.step()) {
          r.stalled = true;
          break;
        }
        while (ended < kRungs.size() && r.now() >= t0 + rung_start(ended + 1)) {
          rungs[ended++].backlog_end = r.backlog();
        }
      }
      while (ended < kRungs.size()) rungs[ended++].backlog_end = r.backlog();
    }
    for (const auto& op : ladder_) r.payload_bytes += op.length;
    const SimTime drain = r.drain();
    if (drain < 0) r.ops.fail(kOpWrite, "dedup backlog did not drain");
    {
      Scrubber sc(&r.c, r.base, r.chunks);
      uint64_t reclaimed = 0;
      bool fixpoint = false;
      for (int pass = 0; pass < 8 && !fixpoint; pass++) {
        Scope s(r.tr, Sp::kGc);
        const ScrubReport rep = sc.collect_garbage();
        reclaimed += rep.leaked_chunks_reclaimed;
        fixpoint = rep.leaked_chunks_reclaimed == 0 &&
                   rep.dangling_refs_dropped == 0 && rep.refs_repaired == 0;
      }
      r.ops.attempt(kOpAudit);
      if (!fixpoint) r.ops.fail(kOpAudit, "GC reached no fixpoint in 8 passes");
      layer["dedup.gc_reclaimed"] = static_cast<double>(reclaimed);
      Scope s(r.tr, Sp::kScrub);
      const ScrubReport rep = sc.deep_scrub();
      r.ops.attempt(kOpAudit);
      if (rep.fingerprint_mismatches != 0 || rep.replica_mismatches != 0) {
        r.ops.fail(kOpAudit, "deep scrub: " +
                                 std::to_string(rep.fingerprint_mismatches) +
                                 " fingerprint, " +
                                 std::to_string(rep.replica_mismatches) +
                                 " replica mismatches");
      }
    }
    uint64_t swept = 0;
    SimTime sweep_t;
    {
      Scope s(r.tr, Sp::kPhase, kSweep);
      std::vector<const std::pair<const std::string, Obj>*> objs;
      for (const auto& kv : objects_) objs.push_back(&kv);
      sweep_t = closed_loop(
          r, objs.size(), kDepth,
          [&](size_t i, auto done) {
            const std::string& oid = objs[sweep_order_[i]]->first;
            const ContentModel& m = objs[sweep_order_[i]]->second.model;
            r.ops.attempt(kOpReadback);
            r.issue([&] {
              r.client.read(r.base, oid, 0, kObjectBytes,
                            [&r, &m, &swept, &oid, done](Result<Buffer> got) {
                              if (got.is_ok()) swept += got.value().size();
                              const std::string bad = r.check([&] {
                                return m.verify(0, kObjectBytes, got);
                              });
                              if (!bad.empty()) {
                                r.ops.fail(kOpReadback, oid + " " + bad);
                              }
                              done();
                            });
            });
          },
          nullptr);
    }
    r.payload_bytes += swept;

    // sustained_iops: the completed rate of the highest sustained rung.
    double sustained = 0;
    for (size_t k = 0; k < kRungs.size(); k++) {
      Rung& g = rungs[k];
      layer["dedup.backlog_end.r" + std::to_string(kRungs[k])] =
          static_cast<double>(g.backlog_end);
      const bool ok = pct_ms(g.w_lat, kTail) <= kWriteTailLimitMs &&
                      g.backlog_end <= kBacklogCap;
      if (ok) sustained = static_cast<double>(g.completed) / secs(kRungLen[k]);
      std::printf("rung %d IOPS: %zu ops, write p50 %.3f p%g %.3f ms, "
                  "backlog at end %zu%s\n",
                  kRungs[k], g.completed, pct_ms(g.w_lat, 0.5), kTail * 100,
                  pct_ms(g.w_lat, kTail), g.backlog_end,
                  ok ? "" : " (not sustained)");
    }
    std::printf("ladder reads not compared (an overwrite overlapped): %zu\n",
                unverified_reads_);
    const Rung& named = rungs[kNamedRung];
    e2e["write_mb_s"] = mb(onboarded) / secs(onboard_t);
    e2e["read_mb_s"] = mb(swept) / secs(sweep_t);
    e2e["write_mean_ms"] = mean_ms(named.w_lat);
    e2e["write_tail_ms"] = pct_ms(named.w_lat, kTail);
    e2e["read_mean_ms"] = mean_ms(named.r_lat);
    e2e["read_tail_ms"] = pct_ms(named.r_lat, kTail);
    e2e["drain_s"] = secs(drain);
    e2e["sustained_iops"] = sustained;
  }

  void readback(Round&) override {}  // the sweep read every object
  bool runs_gc() const override { return true; }

  void live(LiveChunks& lc) const override {
    for (const auto& [oid, o] : objects_) lc.add(o.model, kChunk);
  }
  uint64_t live_bytes() const override {
    uint64_t n = 0;
    for (const auto& [oid, o] : objects_) n += o.model.exists() ? o.model.size() : 0;
    return n;
  }

 private:
  // Per-object model plus what is in flight on it: a read is compared with
  // the model only if no write of its object was outstanding at issue or
  // issued before it completed, since either order is then valid.
  struct Obj {
    ContentModel model;
    int mutating = 0;
    uint64_t epoch = 0;
  };

  template <typename Done>
  void issue_op(Round& r, const workload::ChurnOp& op, Buffer data,
                SimTime due, std::vector<SimTime>* lat, Done done) {
    Obj& o = objects_.at(op.oid);
    auto finish = [&r, due, lat, done] {
      if (lat != nullptr) lat->push_back(r.now() - due);
      done();
    };
    switch (op.kind) {
      case workload::ChurnOpKind::kWrite: {
        o.model.write(op.offset, data);
        o.mutating++;
        o.epoch++;
        r.ops.attempt(kOpWrite);
        r.issue([&] {
          r.client.write(r.base, op.oid, op.offset, std::move(data),
                         [&r, &o, &op, finish](Status st) {
                           o.mutating--;
                           if (!st.is_ok()) {
                             r.ops.fail(kOpWrite, op.oid + " " + st.to_string());
                           }
                           finish();
                         });
        });
        break;
      }
      case workload::ChurnOpKind::kRemove:  // delete_frac is 0
        r.ops.attempt(kOpRemove);
        r.ops.fail(kOpRemove, op.oid + " remove generated but not modelled");
        finish();
        break;
      case workload::ChurnOpKind::kRead: {
        const bool quiet = o.mutating == 0;
        const uint64_t epoch = o.epoch;
        r.ops.attempt(kOpRead);
        r.issue([&] {
          r.client.read(
              r.base, op.oid, op.offset, op.length,
              [this, &r, &o, &op, quiet, epoch, finish](Result<Buffer> got) {
                if (quiet && o.epoch == epoch) {
                  const std::string bad = r.check(
                      [&] { return o.model.verify(op.offset, op.length, got); });
                  if (!bad.empty()) r.ops.fail(kOpRead, op.oid + " " + bad);
                } else {
                  unverified_reads_++;
                }
                finish();
              });
        });
        break;
      }
    }
  }

  uint64_t seed_;
  ContentCache cache_;
  std::vector<workload::ChurnOp> onboard_, ladder_;
  // Virtual offset of rung k from the ladder start (k = size: its end).
  static SimTime rung_start(size_t k) {
    SimTime t = 0;
    for (size_t i = 0; i < k; i++) t += kRungLen[i];
    return t;
  }

  std::vector<size_t> sweep_order_;
  std::vector<SimTime> due_;     // ladder op due times, from ladder start
  std::vector<size_t> rung_of_;  // ladder op -> rung
  std::vector<Buffer> data_;  // write payloads, in issue order
  std::map<std::string, Obj> objects_;
  size_t unverified_reads_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed) {
  if (name == "vm_image") return std::make_unique<VmImage>(seed);
  if (name == "backup_restore") return std::make_unique<BackupRestore>(seed);
  if (name == "tenant_churn") return std::make_unique<TenantChurn>(seed);
  return nullptr;
}

// ------------------------------------------------------------------ rounds

struct RoundOut {
  double setup_s = 0;
  double timed_s = 0;
  Values e2e;    // virtual-time end-to-end metrics + sim_mb_per_wall_s
  Values layer;  // per-layer metrics (complete only for traced rounds)
  std::string sig;  // virtual results + chunk-pool listing; equal each round
};

double kernel_s(Cluster& c, Kernel k) {
  return static_cast<double>(c.exec_pool()->kernel_stats(k).busy_ns) / 1e9;
}
double kernel_jobs(Cluster& c, Kernel k) {
  return static_cast<double>(c.exec_pool()->kernel_stats(k).jobs);
}

// Per-layer counters, read from the program's registries at the end of
// the timed region.
void snapshot_layers(Round& r, Values& l) {
  obs::PerfRegistry* reg = r.c.perf_registry();
  auto tier = [&](const char* n) {
    return static_cast<double>(counter_sum(reg, "tier.osd", n));
  };
  auto osd = [&](const char* n) {
    return static_cast<double>(counter_sum(reg, "osd.", n));
  };
  const Scheduler::Stats ss = r.c.sched().stats();
  l["rados.ops"] = static_cast<double>(r.rados_ops);
  l["sim.events"] = static_cast<double>(ss.events_dispatched);
  l["sim.windows"] = static_cast<double>(ss.windows);
  l["sim.net_mb"] = mb(r.c.net().total_bytes_sent());
  l["hash.fingerprint_s"] = kernel_s(r.c, Kernel::kFingerprint);
  l["hash.fingerprint_jobs"] = kernel_jobs(r.c, Kernel::kFingerprint);
  l["hash.weak_hash_s"] = kernel_s(r.c, Kernel::kWeakHash);
  l["hash.crc_s"] = kernel_s(r.c, Kernel::kCrc);
  l["ec.encode_s"] = kernel_s(r.c, Kernel::kEcEncode);
  l["ec.decode_s"] = kernel_s(r.c, Kernel::kEcDecode);
  l["ec.encode_jobs"] = kernel_jobs(r.c, Kernel::kEcEncode);
  l["ec.decode_jobs"] = kernel_jobs(r.c, Kernel::kEcDecode);
  const double sha = tier("sha_computed");
  const double avoided = tier("sha_avoided") + tier("fingerprint_cache_hits");
  l["dedup.sha_avoided_ratio"] = sha + avoided > 0 ? avoided / (sha + avoided) : 0;
  l["dedup.prereads"] = tier("prereads");
  l["dedup.flush_merges"] = tier("flush_merges");
  l["dedup.merge_read_lat_p50_ms"] = hist_p50_ms(reg, "tier.osd", "merge_read_lat");
  l["dedup.chunks_flushed"] = tier("chunks_flushed");
  l["dedup.flush_mb"] = tier("flush_bytes") / 1e6;
  l["dedup.flush_lat_p50_ms"] = hist_p50_ms(reg, "tier.osd", "flush_lat");
  l["dedup.chunk_put_lat_p50_ms"] = hist_p50_ms(reg, "tier.osd", "chunk_put_lat");
  l["dedup.engine_ticks"] = tier("engine_ticks");
  l["dedup.hot_skips"] = tier("hot_skips");
  l["dedup.promotions"] = tier("promotions");
  l["dedup.evictions"] = tier("evictions");
  l["dedup.read_chunk_rpcs"] = tier("read_chunk_rpcs");
  const double read_mb = tier("read_logical_bytes") / 1e6;
  l["dedup.read_amp_objs_per_mb"] =
      read_mb > 0 ? tier("read_chunk_objects") / read_mb : 0;
  const double redirected = tier("redirected_read_chunks");
  l["dedup.asm_hit_ratio"] = redirected > 0 ? tier("asm_hits") / redirected : 0;
  l["dedup.derefs"] = tier("derefs");
  l["dedup.chunk_deref_lat_p50_ms"] = hist_p50_ms(reg, "tier.osd", "chunk_deref_lat");
  l["dedup.meta_txns"] = tier("meta_txns");
  l["dedup.recipe_chunks"] = tier("recipe_chunks");
  l["osd.chunk_puts"] = osd("chunk_puts");
  l["osd.chunk_created"] = osd("chunk_created");
  l["osd.chunk_dedup_hits"] = osd("chunk_dedup_hits");
  l["osd.meta_mb_written"] = osd("meta_bytes_written") / 1e6;
  l["osd.meta_mb_read"] = osd("meta_bytes_read") / 1e6;
  l["osd.refs_cache_hits"] = osd("refs_cache_hits");
  l["osd.sub_writes"] = osd("sub_writes");
  const ObjectStore::Stats bp = r.pool(r.base);
  const ObjectStore::Stats cp = r.pool(r.chunks);
  l["osd.base_omap_mb"] = mb(bp.omap_bytes);
  l["osd.chunk_pool_objects"] = static_cast<double>(cp.objects);
  l["osd.chunk_pool_stored_mb"] = mb(cp.stored_data_bytes);
}

// Chunk-pool audit.  Always: list the chunk objects into the round
// signature.  Full: read every chunk object back and check its name is the
// reference SHA-256 of its bytes, that the pool stores no more than the
// distinct live chunk bytes times its redundancy and, once GC has run,
// that every chunk object is the fingerprint of some live chunk.  Without
// GC a chunk the maps no longer reference may legitimately remain.
void audit(Round& r, const Workload& wl, bool full, std::string* sig) {
  std::set<std::string> names;
  for (Osd* o : r.c.osds()) {
    if (const ObjectStore* st = o->store_if_exists(r.chunks)) {
      for (const ObjectKey& k : st->list(r.chunks)) names.insert(k.oid);
    }
  }
  uint32_t crc = 0;
  for (const std::string& n : names) {
    crc = crc32c({reinterpret_cast<const uint8_t*>(n.data()), n.size()}, crc);
  }
  const ObjectStore::Stats cp = r.pool(r.chunks);
  char buf[128];
  std::snprintf(buf, sizeof(buf), " chunks=%zu/%08x stored=%llu", names.size(),
                crc, static_cast<unsigned long long>(cp.stored_data_bytes));
  *sig += buf;
  if (!full) return;

  Scope s(r.tr, Sp::kPhase, kAudit);
  LiveChunks lc;
  wl.live(lc);
  const std::vector<std::string> list(names.begin(), names.end());
  closed_loop(
      r, list.size(), kDepth,
      [&](size_t i, auto done) {
        const std::string& oid = list[i];
        r.ops.attempt(kOpAudit);
        if (wl.runs_gc() && lc.oids.count(oid) == 0) {
          r.ops.fail(kOpAudit, oid + " is no fingerprint of live content");
        }
        r.issue([&] {
          r.client.read(r.chunks, oid, 0, kChunk,
                        [&r, &oid, done](Result<Buffer> got) {
                          if (!got.is_ok()) {
                            r.ops.fail(kOpAudit, oid + " " + got.status().to_string());
                          } else if (sha256_oid(got.value().data(),
                                                got.value().size()) != oid) {
                            r.ops.fail(kOpAudit, oid + " content does not hash to its name");
                          }
                          done();
                        });
        });
      },
      nullptr);
  const double amp =
      r.c.osdmap().pool(r.chunks).space_amplification();
  r.ops.attempt(kOpAudit);
  if (static_cast<double>(cp.stored_data_bytes) >
      static_cast<double>(lc.distinct_bytes) * amp) {
    r.ops.fail(kOpAudit, "chunk pool stores " +
                             std::to_string(cp.stored_data_bytes) +
                             " bytes > distinct live " +
                             std::to_string(lc.distinct_bytes) + " x " +
                             std::to_string(amp));
  }
  std::printf("audit: %zu chunk objects, %zu live fingerprints, stored %.1f MB"
              " <= %.1f MB allowed\n",
              names.size(), lc.oids.size(), mb(cp.stored_data_bytes),
              static_cast<double>(lc.distinct_bytes) * amp / 1e6);
}

RoundOut run_round(const std::string& name, uint64_t seed, bool traced,
                   bool full, OpTally& ops, const std::string& trace_out) {
  RoundOut out;
  Tracer tr(traced);
  const int64_t t0 = host_ns();
  const int32_t setup_span = tr.open(Sp::kSetup);
  std::unique_ptr<Workload> wl = make_workload(name, seed);
  ClusterConfig cc = wl->cluster();
  // Keep every OpTracker trace of a traced round for the stage times.
  if (traced) cc.ops_history = static_cast<int>(obs::OpTracker::kMaxHistoricCap);
  Round r(cc, tr, ops);
  r.make_pools(wl->ec_chunks());
  int64_t gen_ns;
  {
    Scope s(tr, Sp::kGen);
    const int64_t g0 = host_ns();
    wl->generate();
    gen_ns = host_ns() - g0;
  }
  tr.close(setup_span);
  out.setup_s = static_cast<double>(host_ns() - t0) / 1e9;

  const int64_t c0 = r.inline_check_ns;
  const int64_t w0 = host_ns();
  wl->run(r, out.e2e, out.layer);
  const int64_t w1 = host_ns();
  out.timed_s = static_cast<double>(w1 - w0 - (r.inline_check_ns - c0)) / 1e9;
  if (r.stalled) ops.fail(kOpWrite, "event queue ran dry with ops outstanding");
  const uint64_t live = wl->live_bytes();
  out.e2e["stored_bytes_per_user_byte"] =
      static_cast<double>(r.pool(r.base).physical_bytes +
                          r.pool(r.chunks).physical_bytes) /
      static_cast<double>(live);
  out.e2e["sim_mb_per_wall_s"] = mb(r.payload_bytes) / out.timed_s;
  snapshot_layers(r, out.layer);
  out.layer["workload.gen_s"] = static_cast<double>(gen_ns) / 1e9;
  if (traced) {
    const auto& trk = *r.c.op_tracker();
    if (trk.finished() > trk.historic().size()) {
      ops.fail(kOpAudit, "op history evicted " +
                             std::to_string(trk.finished() - trk.historic().size()) +
                             " traces");
    }
    const auto stages = stage_self_s(trk);
    for (const char* st : {"tier_write", "tier_read", "fingerprint", "chunk_put",
                           "chunk_deref", "chunk_pool_read"}) {
      auto it = stages.find(st);
      out.layer[std::string("stage.") + st + ".self_s"] =
          it == stages.end() ? 0.0 : it->second;
    }
  }

  for (const auto& [k, v] : out.e2e) {
    if (k == "sim_mb_per_wall_s") continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%.17g ", k.c_str(), v);
    out.sig += buf;
  }
  {
    Scope s(tr, Sp::kCheck);
    if (full) wl->readback(r);
    audit(r, *wl, full, &out.sig);
  }

  if (traced) {
    const Tracer::Totals t = tr.totals();
    auto self = [&](Sp k) { return t.self[static_cast<int>(k)]; };
    auto incl = [&](Sp k) { return t.incl[static_cast<int>(k)]; };
    out.layer["rados.issue_s"] = self(Sp::kIssue);
    out.layer["sim.dispatch_s"] = self(Sp::kStep);
    out.layer["dedup.drain_wall_s"] = incl(Sp::kDrain);
    out.layer["dedup.gc_wall_s"] = incl(Sp::kGc);
    out.layer["dedup.scrub_wall_s"] = incl(Sp::kScrub);
    out.layer["check.s"] = incl(Sp::kCheck);
    if (!trace_out.empty() && !tr.write_csv(trace_out, kPhaseLabels)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }
  return out;
}

// -------------------------------------------------------------------- main

struct Metric {
  std::string name;
  const char* unit;
};

// End-to-end metrics (--trace 0).  Virtual-time units carry a sim- prefix.
const Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_mb_per_wall_s", "MB/s"},
    {"peak_rss_mb", "MB"},
    {"write_mb_s", "sim-MB/s"},
    {"read_mb_s", "sim-MB/s"},
    {"write_mean_ms", "sim-ms"},
    {"write_tail_ms", "sim-ms"},
    {"read_mean_ms", "sim-ms"},
    {"read_tail_ms", "sim-ms"},
    {"drain_s", "sim-s"},
    {"stored_bytes_per_user_byte", "ratio"},
    {"sustained_iops", "sim-IOPS"},
};

std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> m = {
      {"workload.gen_s", "s"},
      {"rados.issue_s", "s"},
      {"rados.ops", "count"},
      {"sim.dispatch_s", "s"},
      {"sim.events", "count"},
      {"sim.events_per_wall_s", "1/s"},
      {"sim.windows", "count"},
      {"sim.net_mb", "sim-MB"},
      {"hash.fingerprint_s", "s"},
      {"hash.fingerprint_jobs", "count"},
      {"hash.weak_hash_s", "s"},
      {"hash.crc_s", "s"},
      {"ec.encode_s", "s"},
      {"ec.decode_s", "s"},
      {"ec.encode_jobs", "count"},
      {"ec.decode_jobs", "count"},
      {"dedup.sha_avoided_ratio", "ratio"},
      {"dedup.prereads", "count"},
      {"dedup.flush_merges", "count"},
      {"dedup.merge_read_lat_p50_ms", "sim-ms"},
      {"dedup.chunks_flushed", "count"},
      {"dedup.flush_mb", "MB"},
      {"dedup.flush_lat_p50_ms", "sim-ms"},
      {"dedup.chunk_put_lat_p50_ms", "sim-ms"},
      {"dedup.engine_ticks", "count"},
      {"dedup.hot_skips", "count"},
      {"dedup.promotions", "count"},
      {"dedup.evictions", "count"},
      {"dedup.read_chunk_rpcs", "count"},
      {"dedup.read_amp_objs_per_mb", "objs/MB"},
      {"dedup.asm_hit_ratio", "ratio"},
      {"dedup.derefs", "count"},
      {"dedup.chunk_deref_lat_p50_ms", "sim-ms"},
      {"dedup.gc_reclaimed", "count"},
      {"dedup.meta_txns", "count"},
      {"dedup.recipe_chunks", "count"},
  };
  for (int rate : TenantChurn::kRungs) {
    m.push_back({"dedup.backlog_end.r" + std::to_string(rate), "count"});
  }
  const Metric tail[] = {
      {"dedup.drain_wall_s", "s"},
      {"dedup.gc_wall_s", "s"},
      {"dedup.scrub_wall_s", "s"},
      {"osd.chunk_puts", "count"},
      {"osd.chunk_created", "count"},
      {"osd.chunk_dedup_hits", "count"},
      {"osd.meta_mb_written", "MB"},
      {"osd.meta_mb_read", "MB"},
      {"osd.refs_cache_hits", "count"},
      {"osd.base_omap_mb", "MB"},
      {"osd.sub_writes", "count"},
      {"osd.chunk_pool_objects", "count"},
      {"osd.chunk_pool_stored_mb", "MB"},
      {"stage.tier_write.self_s", "sim-s"},
      {"stage.tier_read.self_s", "sim-s"},
      {"stage.fingerprint.self_s", "sim-s"},
      {"stage.chunk_put.self_s", "sim-s"},
      {"stage.chunk_deref.self_s", "sim-s"},
      {"stage.chunk_pool_read.self_s", "sim-s"},
      {"trace.overhead_s", "s"},
      {"check.s", "s"},
  };
  for (const Metric& t : tail) m.push_back(t);
  return m;
}

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "vm_image|backup_restore|tenant_churn --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

int main_impl(int argc, char** argv) {
  // The program's defaults are what gets measured: refuse any override.
  for (char** e = environ; *e != nullptr; e++) {
    if (std::strncmp(*e, "GDEDUP_", 7) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }
  std::string workload, trace_out;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v);
    else if (k == "--trace") trace = std::atoi(v);
    else if (k == "--trace-out") trace_out = v;
    else return usage(("unknown flag " + k).c_str());
  }
  if (argc % 2 == 0) return usage("flags come in pairs");
  if (!make_workload(workload, seed)) return usage("unknown workload");
  if (seconds <= 0 || (trace != 0 && trace != 1)) return usage("bad arguments");

  std::printf("workload: %s seed=%llu seconds=%g trace=%d nproc=%ld\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace, sysconf(_SC_NPROCESSORS_ONLN));
  OpTally ops;
  std::vector<RoundOut> rounds;   // untraced
  std::vector<RoundOut> traced;   // traced, paired with rounds[i]
  std::string ref_sig;
  const int64_t start = host_ns();
  // The first untraced round warms the heap and page cache; its host
  // figures are dropped, so an untraced run makes at least two rounds.
  do {
    const bool first = rounds.empty();
    if (trace == 1) {
      traced.push_back(run_round(workload, seed, true, first, ops, trace_out));
    }
    rounds.push_back(run_round(workload, seed, false, first && trace == 0, ops, ""));
    for (const RoundOut* ro : {trace == 1 ? &traced.back() : nullptr, &rounds.back()}) {
      if (ro == nullptr) continue;
      if (ref_sig.empty()) {
        ref_sig = ro->sig;
      } else {
        ops.attempt(kOpAudit);
        if (ro->sig != ref_sig) {
          ops.fail(kOpAudit, "round diverged from the first: " + ro->sig +
                                 " vs " + ref_sig);
        }
      }
    }
    const RoundOut& u = rounds.back();
    std::printf("round %zu: setup_s=%.4f timed_s=%.4f sim_mb_per_wall_s=%.3f\n",
                rounds.size(), u.setup_s, u.timed_s, u.e2e.at("sim_mb_per_wall_s"));
    std::fflush(stdout);
  } while (static_cast<double>(host_ns() - start) / 1e9 < seconds ||
           (trace == 0 && rounds.size() < 2));

  Values result;
  std::vector<Metric> metrics;
  if (trace == 0) {
    for (const Metric& m : kEndToEnd) metrics.push_back(m);
    for (const Metric& m : metrics) {
      std::vector<double> v;
      for (size_t i = 1; i < rounds.size(); i++) {
        const RoundOut& ro = rounds[i];
        if (m.name == "setup_s") v.push_back(ro.setup_s);
        else if (ro.e2e.count(m.name)) v.push_back(ro.e2e.at(m.name));
      }
      result[m.name] = median(v);
    }
    result["peak_rss_mb"] = peak_rss_mb();
  } else {
    metrics = per_layer_metrics();
    for (const Metric& m : metrics) {
      std::vector<double> v;
      for (size_t i = 0; i < traced.size(); i++) {
        Values l = traced[i].layer;
        l["trace.overhead_s"] = traced[i].timed_s - rounds[i].timed_s;
        l["sim.events_per_wall_s"] = l["sim.events"] / rounds[i].timed_s;
        v.push_back(l.count(m.name) ? l.at(m.name) : 0.0);
      }
      result[m.name] = median(v);
    }
  }

  std::printf("rounds: %zu untraced, %zu traced\n", rounds.size(), traced.size());
  for (int k = 0; k < kOpKinds; k++) {
    std::printf("ops %-11s attempted=%llu failed=%llu\n", op_kind_name(k),
                static_cast<unsigned long long>(ops.attempted[static_cast<size_t>(k)]),
                static_cast<unsigned long long>(ops.failed[static_cast<size_t>(k)]));
  }
  for (const std::string& f : ops.first_failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string body;
  for (const Metric& m : metrics) {
    double v = result[m.name];
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      finite = false;
      v = 0;
    }
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name.c_str(), v, m.unit);
    body += buf;
  }
  const bool correct = ops.total_failed() == 0 && finite;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.total_attempted());
  json += ", \"failed\": " + std::to_string(ops.total_failed());
  json += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
