#pragma once

// Shared pieces of the perfbench workloads: host-time spans, the round
// context every workload drives the cluster through, the closed loop, op
// accounting, and the metric helpers.
//
// Everything here sits outside the program: it times the calls the
// benchmark makes into the cluster, client, scheduler and scrubber, and it
// reads the program's own counters only through public accessors
// (PerfRegistry, ExecPool::kernel_stats, Scheduler::stats, OpTracker).

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/op_tracker.h"
#include "obs/perf_counters.h"
#include "rados/client.h"
#include "rados/cluster.h"

namespace perfbench {

using namespace gdedup;

inline int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ spans

// Span kinds, one per boundary the benchmark crosses into the program.
enum class Sp : uint8_t {
  kSetup,  // cluster bring-up plus input generation
  kGen,    // workload generators (src/workload, BlockContent)
  kPhase,  // one workload phase; label = phase name
  kStep,   // Scheduler::step
  kIssue,  // RadosClient / BlockDevice issue call
  kDrain,  // stepping until the dedup backlog is empty
  kGc,     // Scrubber::collect_garbage
  kScrub,  // Scrubber::deep_scrub
  kCheck,  // verification against the content model / chunk audit
  kCount,
};

inline const char* sp_name(Sp k) {
  static const char* const kNames[] = {"setup", "gen",   "phase", "step", "issue",
                                       "drain", "gc",    "scrub", "check"};
  return kNames[static_cast<int>(k)];
}

// In-memory span recorder.  Off, every call is one branch; on, a span is
// 24 bytes and two steady_clock reads.  Spans nest by a parent index, so
// self time is a span's duration minus its direct children's.
class Tracer {
 public:
  struct Span {
    Sp kind;
    uint16_t label;
    int32_t parent;
    int64_t begin;
    int64_t end;
  };

  explicit Tracer(bool on) : on_(on) {}

  int32_t open(Sp k, uint16_t label = 0) {
    if (!on_) return -1;
    spans_.push_back({k, label, cur_, host_ns(), 0});
    cur_ = static_cast<int32_t>(spans_.size() - 1);
    return cur_;
  }
  void close(int32_t i) {
    if (i < 0) return;
    spans_[static_cast<size_t>(i)].end = host_ns();
    cur_ = spans_[static_cast<size_t>(i)].parent;
  }

  // Seconds per kind: inclusive duration and self time.  Spans nested in a
  // check span belong to the check alone: the scheduler steps and issue
  // calls a readback makes are verification, not workload.
  struct Totals {
    std::array<double, static_cast<int>(Sp::kCount)> incl{};
    std::array<double, static_cast<int>(Sp::kCount)> self{};
  };
  Totals totals() const {
    std::vector<int64_t> child(spans_.size(), 0);
    std::vector<bool> in_check(spans_.size(), false);
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      if (s.parent < 0) continue;
      const size_t p = static_cast<size_t>(s.parent);
      child[p] += s.end - s.begin;
      in_check[i] = in_check[p] || spans_[p].kind == Sp::kCheck;
    }
    Totals t;
    for (size_t i = 0; i < spans_.size(); i++) {
      if (in_check[i]) continue;
      const Span& s = spans_[i];
      const int k = static_cast<int>(s.kind);
      t.incl[k] += static_cast<double>(s.end - s.begin) / 1e9;
      t.self[k] += static_cast<double>(s.end - s.begin - child[i]) / 1e9;
    }
    return t;
  }

  // One line per span: id,parent,kind,label,begin_ns,end_ns (begin relative
  // to the first span).
  bool write_csv(const std::string& path,
                 const std::vector<std::string>& labels) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,kind,label,begin_ns,end_ns\n");
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().begin;
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%d,%s,%s,%lld,%lld\n", i, s.parent, sp_name(s.kind),
                   s.label < labels.size() ? labels[s.label].c_str() : "",
                   static_cast<long long>(s.begin - t0),
                   static_cast<long long>(s.end - t0));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  int32_t cur_ = -1;
};

class Scope {
 public:
  Scope(Tracer& t, Sp k, uint16_t label = 0) : t_(t), i_(t.open(k, label)) {}
  ~Scope() { t_.close(i_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int32_t i_;
};

// ------------------------------------------------------------ op accounting

enum OpKind { kOpWrite, kOpRead, kOpRemove, kOpReadback, kOpAudit, kOpKinds };

inline const char* op_kind_name(int k) {
  static const char* const kNames[] = {"write", "read", "remove", "readback",
                                       "chunk_audit"};
  return kNames[k];
}

struct OpTally {
  std::array<uint64_t, kOpKinds> attempted{};
  std::array<uint64_t, kOpKinds> failed{};
  std::vector<std::string> first_failures;  // capped, for the log

  void attempt(int k) { attempted[static_cast<size_t>(k)]++; }
  void fail(int k, std::string why) {
    failed[static_cast<size_t>(k)]++;
    if (first_failures.size() < 8) {
      first_failures.push_back(std::string(op_kind_name(k)) + ": " + why);
    }
  }
  uint64_t total_attempted() const {
    uint64_t n = 0;
    for (uint64_t v : attempted) n += v;
    return n;
  }
  uint64_t total_failed() const {
    uint64_t n = 0;
    for (uint64_t v : failed) n += v;
    return n;
  }
};

// ------------------------------------------------------------ round context

// Dedup tier settings shared by every workload: the post-process design
// with the rate-control watermarks, tick and hotness threshold of the
// repository's reference scenario.
//
// Promotion on read is off.  DedupTier::promote_object marks the fetched
// chunks cached in the in-memory chunk map before the transaction that
// writes their bytes has landed, so a read of the object in that window
// is served from the punched local extent and returns zeros.  It hits a
// seed-dependent handful of reads per run, and a benchmark whose failure
// count moves with the seed cannot be compared run to run.  Turn this back
// on together with the fix.
inline DedupTierConfig tier_config() {
  DedupTierConfig t;
  t.mode = DedupMode::kPostProcess;
  t.chunk_size = 32 * 1024;
  t.rate_control = true;
  t.low_watermark_iops = 500;
  t.high_watermark_iops = 4000;
  t.engine_tick = msec(50);
  t.max_dedup_per_tick = 256;
  t.hitcount_threshold = 4;
  t.promote_on_read = false;
  return t;
}

// One round: a fresh cluster, the client, and the bookkeeping the metrics
// are built from.  Workloads drive the simulator only through step(),
// issue() and drain() so each crossing is spanned when tracing is on.
struct Round {
  Round(const ClusterConfig& cc, Tracer& t, OpTally& o)
      : tr(t), ops(o), c(cc), client(&c, c.client_node(0)) {}

  Tracer& tr;
  OpTally& ops;
  Cluster c;
  RadosClient client;
  PoolId base = -1;
  PoolId chunks = -1;
  std::vector<TierService*> tiers;

  uint64_t rados_ops = 0;
  uint64_t payload_bytes = 0;   // client payload moved by workload phases
  int64_t inline_check_ns = 0;  // verification run inside workload phases
  bool stalled = false;  // the event queue ran dry with ops outstanding

  // The base pool is always 2x replicated: on an EC(2,1) base pool the
  // drain after sequential 32 KiB writes grows memory without bound.
  void make_pools(bool ec_chunks) {
    base = c.create_replicated_pool("base", 2);
    chunks = ec_chunks ? c.create_ec_pool("chunks", 2, 1)
                       : c.create_replicated_pool("chunks", 2);
    c.enable_dedup(base, chunks, tier_config());
    for (Osd* o : c.osds()) {
      if (TierService* t = o->tier(base)) tiers.push_back(t);
    }
  }

  SimTime now() { return c.sched().now(); }

  bool step() {
    Scope s(tr, Sp::kStep);
    return c.sched().step();
  }

  template <typename F>
  void issue(F&& f) {
    Scope s(tr, Sp::kIssue);
    rados_ops++;
    f();
  }

  // Run `f` as verification: spanned, and its host time kept out of the
  // timed region.
  template <typename F>
  auto check(F&& f) {
    Scope s(tr, Sp::kCheck);
    const int64_t t0 = host_ns();
    auto r = f();
    inline_check_ns += host_ns() - t0;
    return r;
  }

  size_t backlog() const {
    size_t n = 0;
    for (const TierService* t : tiers) n += t->dirty_backlog();
    return n;
  }

  // Step until every tier's dedup backlog is empty.  Checked after every
  // step, so the virtual drain time is exact to the event (drain_dedup()
  // polls every 200 ms of virtual time).  Returns the virtual time the
  // backlog took to empty, or -1 if it did not within `max_wait`.
  SimTime drain(SimTime max_wait = sec(7200)) {
    Scope s(tr, Sp::kDrain);
    const SimTime t0 = now();
    while (backlog() > 0) {
      if (now() - t0 > max_wait || !step()) return -1;
    }
    return now() - t0;
  }

  ObjectStore::Stats pool(PoolId p) const { return c.pool_stats(p); }
};

// Closed loop: `depth` ops outstanding.  issue(i, done) starts op i and
// calls done() once it completed.  Latency is completion minus issue, in
// virtual ns.  Returns the virtual duration of the phase.
template <typename Issue>
SimTime closed_loop(Round& r, size_t n, int depth, Issue&& issue,
                    std::vector<SimTime>* lat) {
  const SimTime t0 = r.now();
  size_t next = 0;
  size_t done = 0;
  std::function<void()> pump = [&] {
    while (next < n && next - done < static_cast<size_t>(depth)) {
      const size_t i = next++;
      const SimTime issued = r.now();
      issue(i, [&, issued] {
        done++;
        if (lat != nullptr) lat->push_back(r.now() - issued);
        pump();
      });
    }
  };
  pump();
  while (done < n) {
    if (!r.step()) {
      r.stalled = true;
      break;
    }
  }
  return r.now() - t0;
}

// ----------------------------------------------------------------- metrics

// Nearest-rank percentile of virtual-ns samples, in ms.
inline double pct_ms(std::vector<SimTime> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / 1e6;
}

inline double mean_ms(const std::vector<SimTime>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (SimTime x : v) s += static_cast<double>(x);
  return s / static_cast<double>(v.size()) / 1e6;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

// Sum of counter `name` over every registry entity whose name starts with
// `prefix`.
inline uint64_t counter_sum(obs::PerfRegistry* reg, const std::string& prefix,
                            const std::string& name) {
  uint64_t n = 0;
  for (const auto& pc : reg->sorted()) {
    if (pc->name().rfind(prefix, 0) != 0) continue;
    const int idx = pc->index_of(name);
    if (idx >= 0) n += pc->get(idx);
  }
  return n;
}

// Histogram `name` merged over entities whose name starts with `prefix`;
// p50 in ms (virtual).
inline double hist_p50_ms(obs::PerfRegistry* reg, const std::string& prefix,
                          const std::string& name) {
  Histogram h;
  for (const auto& pc : reg->sorted()) {
    if (pc->name().rfind(prefix, 0) != 0) continue;
    const int idx = pc->index_of(name);
    if (idx < 0) continue;
    if (const Histogram* x = pc->histogram(idx)) h.merge(*x);
  }
  return static_cast<double>(h.percentile(0.5)) / 1e6;
}

// Virtual self time per OpTracker stage over the historic ring: a span's
// duration minus the union of the later spans of the same trace that it
// contains.
inline std::map<std::string, double> stage_self_s(const obs::OpTracker& trk) {
  std::map<std::string, double> out;
  for (const obs::OpTraceRef& t : trk.historic()) {
    const auto& sp = t->spans();
    for (size_t i = 0; i < sp.size(); i++) {
      if (sp[i].end < sp[i].begin) continue;
      std::vector<std::pair<SimTime, SimTime>> kids;
      for (size_t j = i + 1; j < sp.size(); j++) {
        if (sp[j].end < sp[j].begin) continue;
        if (sp[j].begin >= sp[i].begin && sp[j].end <= sp[i].end) {
          kids.push_back({sp[j].begin, sp[j].end});
        }
      }
      std::sort(kids.begin(), kids.end());
      SimTime covered = 0;
      SimTime reach = sp[i].begin;
      for (const auto& [b, e] : kids) {
        const SimTime from = std::max(b, reach);
        if (e > from) covered += e - from;
        reach = std::max(reach, e);
      }
      out[sp[i].stage] +=
          static_cast<double>(sp[i].end - sp[i].begin - covered) / 1e9;
    }
  }
  return out;
}

}  // namespace perfbench
