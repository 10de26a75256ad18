// Telemetry engine + watchdog tests (DESIGN.md §13).
//
// The two contracts under test:
//
//   1. Sampled, never digested — running the TelemetryEngine must not move
//      the determinism digest by a byte, at any (sampling on/off) x
//      (sim shards) combination, because the sampling
//      tick is a control-lane event that only *reads* cluster state.
//   2. The watchdog's default rules stay silent on a healthy
//      rate-controlled cluster and demonstrably fire when the
//      RateController is misconfigured (degenerate 0/0 watermarks put
//      every nonzero demand in the top throttle band).
//
// Plus unit coverage for the pieces underneath: series aggregation and
// windowed rates, edge-triggered rule hysteresis, probe cadence, OpTracker
// capacity validation (GDEDUP_OPS_HISTORY), Histogram log-bucket boundary
// values and batched percentiles, and SlidingWindowCounter advance()
// jumping far past its window — the sampler-cadence shapes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/op_tracker.h"
#include "obs/perf_counters.h"
#include "obs/timeseries.h"
#include "obs/watchdog.h"
#include "sim/metrics.h"
#include "sim_e2e_scenario.h"
#include "workload/content.h"

using namespace gdedup;

namespace {

// Scoped setenv that restores the previous value (the sanitizer script
// runs this binary with GDEDUP_* already set; tests must not clobber
// that for their siblings).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prev = ::getenv(name);
    if (prev != nullptr) saved_ = prev;
    had_ = prev != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

enum {
  l_test_first = 100,
  l_test_ops,
  l_test_depth,
  l_test_lat,
  l_test_last,
};

obs::PerfCountersRef make_test_counters(const std::string& name) {
  obs::PerfCountersBuilder b(name, l_test_first, l_test_last);
  b.add_counter(l_test_ops, "ops");
  b.add_gauge(l_test_depth, "depth");
  b.add_histogram(l_test_lat, "op_lat");
  return b.create();
}

}  // namespace

// ---------------------------------------------------------------------------
// Acceptance: sampling is invisible to the determinism digest.

TEST(Telemetry, DigestInvariantAcrossSamplingShards) {
  bench::SimE2eConfig cfg;
  cfg.storage_nodes = 4;
  cfg.osds_per_node = 4;
  cfg.seed = 11;
  cfg.image_bytes = 4ull << 20;
  cfg.preload_block = 64 * 1024;
  cfg.random_writes = 128;
  cfg.random_reads = 128;

  cfg.sim_shards = 1;
  cfg.telemetry = 0;
  const bench::SimE2eResult base = bench::run_sim_e2e(cfg);
  ASSERT_TRUE(base.drained);
  EXPECT_EQ(base.telemetry_ticks, 0u);

  for (int shards : {1, 4}) {
    for (SimTime telemetry : {SimTime(0), SimTime(100'000'000)}) {
      cfg.sim_shards = shards;
      cfg.telemetry = telemetry;
      const bench::SimE2eResult r = bench::run_sim_e2e(cfg);
      EXPECT_EQ(r.digest, base.digest)
          << "diverged at shards=" << shards << " telemetry=" << telemetry;
      EXPECT_EQ(r.sim_duration, base.sim_duration);
      if (telemetry > 0) {
        // The sampler really ran — its ticks are real (counted) control
        // events, they just leave no trace in the digest.
        EXPECT_GT(r.telemetry_ticks, 0u);
        EXPECT_EQ(r.events, base.events + r.telemetry_ticks);
      } else {
        EXPECT_EQ(r.telemetry_ticks, 0u);
        EXPECT_EQ(r.events, base.events);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine unit behavior on a synthetic registry.

TEST(Telemetry, SeriesAggregationRatesAndTimeline) {
  Scheduler sched;
  obs::PerfRegistry reg;
  auto a = make_test_counters("tier.a");
  auto b = make_test_counters("tier.b");
  auto other = make_test_counters("osd.0");
  reg.add(a);
  reg.add(b);
  reg.add(other);

  obs::TelemetryConfig tc;
  tc.interval = kSecond;
  obs::TelemetryEngine eng(&sched, &reg, tc);
  eng.add_series({"ops", "tier.", "ops", obs::SeriesAgg::kSum, true});
  eng.add_series({"depth_max", "tier.", "depth", obs::SeriesAgg::kMax, false});
  eng.add_series({"depth_mean", "tier.", "depth", obs::SeriesAgg::kMean,
                  false});
  eng.add_series({"lat_p99", "tier.", "op_lat.p99", obs::SeriesAgg::kMax,
                  false});
  eng.add_series({"lat_count", "tier.", "op_lat.count", obs::SeriesAgg::kSum,
                  false});

  a->inc(l_test_ops, 10);
  b->inc(l_test_ops, 5);
  other->inc(l_test_ops, 1000);  // wrong prefix: must not be aggregated
  a->set_gauge(l_test_depth, 3);
  b->set_gauge(l_test_depth, 7);
  a->record(l_test_lat, 1000);
  a->record(l_test_lat, 1000);
  b->record(l_test_lat, 50);
  eng.sample_now();

  ASSERT_NE(eng.series("ops"), nullptr);
  EXPECT_DOUBLE_EQ(eng.series("ops")->back(0), 15.0);
  EXPECT_DOUBLE_EQ(eng.series("depth_max")->back(0), 7.0);
  EXPECT_DOUBLE_EQ(eng.series("depth_mean")->back(0), 5.0);
  EXPECT_DOUBLE_EQ(eng.series("lat_count")->back(0), 3.0);
  // p99 of {1000, 1000} on tier.a; log-bucket answer stays <= max.
  EXPECT_GE(eng.series("lat_p99")->back(0), 50.0);
  EXPECT_LE(eng.series("lat_p99")->back(0), 1000.0);

  // Advance virtual time one interval so the second frame has a real
  // frame-to-frame dt for the timeline's rate columns.
  sched.at(kSecond, [] {});
  sched.run_until(kSecond);
  a->inc(l_test_ops, 20);
  eng.sample_now();
  EXPECT_DOUBLE_EQ(eng.series("ops")->back(0), 35.0);
  // Windowed rate: 20 ops over one 1 s interval.
  EXPECT_DOUBLE_EQ(eng.rate("ops", 1), 20.0);
  EXPECT_EQ(eng.ticks(), 2u);
  EXPECT_EQ(eng.frames(), 2u);

  // Timeline: one JSONL line per frame, fixed column order, rate columns
  // derived for rate-enabled specs.
  const std::string jl = eng.timeline_jsonl();
  EXPECT_EQ(std::count(jl.begin(), jl.end(), '\n'), 2);
  EXPECT_NE(jl.find("\"ops\":15"), std::string::npos);
  EXPECT_NE(jl.find("\"ops_rate\":20"), std::string::npos);
  const std::string csv = eng.timeline_csv();
  EXPECT_EQ(csv.rfind("tick,t_s,ops,ops_rate,depth_max,depth_mean,lat_p99,"
                      "lat_count",
                      0),
            0u)
      << csv;
}

TEST(Telemetry, EngineTickRidesTheControlLane) {
  Scheduler sched;
  obs::PerfRegistry reg;
  auto a = make_test_counters("tier.a");
  reg.add(a);

  obs::TelemetryConfig tc;
  tc.interval = kSecond;
  obs::TelemetryEngine eng(&sched, &reg, tc);
  eng.add_series({"ops", "tier.", "ops", obs::SeriesAgg::kSum, false});
  eng.start();
  ASSERT_TRUE(eng.running());

  // Keep non-telemetry work queued so the engine is never the only event
  // source; run 5.5 virtual seconds => exactly 5 samples.
  for (int i = 1; i <= 55; i++) {
    sched.at(static_cast<SimTime>(i) * kSecond / 10,
             [&a] { a->inc(l_test_ops); });
  }
  sched.run_until(5 * kSecond + kSecond / 2);
  EXPECT_EQ(eng.ticks(), 5u);
  eng.stop();
  EXPECT_FALSE(eng.running());
  const uint64_t after_stop = eng.ticks();
  sched.run_until(10 * kSecond);
  EXPECT_EQ(eng.ticks(), after_stop);  // stop() cancelled the armed tick
}

// ---------------------------------------------------------------------------
// Watchdog rule semantics on synthetic series.

namespace {

struct SyntheticDog {
  Scheduler sched;
  obs::PerfRegistry reg;
  obs::PerfCountersRef pc;
  std::unique_ptr<obs::TelemetryEngine> eng;
  std::unique_ptr<obs::Watchdog> dog;

  SyntheticDog() {
    pc = make_test_counters("tier.a");
    reg.add(pc);
    obs::TelemetryConfig tc;
    tc.interval = kSecond;
    eng = std::make_unique<obs::TelemetryEngine>(&sched, &reg, tc);
    eng->add_series(
        {"backlog", "tier.", "depth", obs::SeriesAgg::kSum, false});
    dog = std::make_unique<obs::Watchdog>(eng.get(), nullptr);
  }

  void tick(int64_t backlog) {
    pc->set_gauge(l_test_depth, backlog);
    eng->sample_now();
  }
};

}  // namespace

TEST(Watchdog, GrowthRuleNeedsMonotoneWindowAndHysteresis) {
  SyntheticDog s;
  obs::HealthRule r;
  r.name = "growth";
  r.kind = obs::RuleKind::kGrowth;
  r.series = "backlog";
  r.window = 3;
  r.threshold = 10;
  r.min_consecutive = 2;
  s.dog->add_rule(std::move(r));
  s.dog->arm();

  // Monotone climb: unhealthy once 4 samples exist and growth >= 10, but
  // the incident opens only after 2 consecutive unhealthy ticks.
  for (int64_t v : {0, 10, 20, 30}) s.tick(v);
  EXPECT_EQ(s.dog->incidents().size(), 0u);  // first unhealthy tick
  s.tick(40);
  ASSERT_EQ(s.dog->incidents().size(), 1u);
  EXPECT_EQ(s.dog->incidents()[0].rule, "growth");
  EXPECT_EQ(s.dog->open_incidents(), 1u);

  // A single dip breaks the monotone window => healthy; two healthy ticks
  // resolve the incident (edge-triggered, so no new incident on re-climb
  // until it first resolves).
  s.tick(35);
  EXPECT_EQ(s.dog->open_incidents(), 1u);  // hysteresis: not yet resolved
  s.tick(35);
  EXPECT_EQ(s.dog->open_incidents(), 0u);
  EXPECT_GE(s.dog->incidents()[0].resolved_tick, 0);
  EXPECT_EQ(s.dog->incidents().size(), 1u);  // still just the one incident
}

TEST(Watchdog, PlateauAtZeroGrowthStaysSilent) {
  SyntheticDog s;
  obs::HealthRule r;
  r.name = "growth";
  r.kind = obs::RuleKind::kGrowth;
  r.series = "backlog";
  r.window = 3;
  r.threshold = 10;
  r.min_consecutive = 1;
  s.dog->add_rule(std::move(r));
  s.dog->arm();
  // Non-decreasing but flat: growth 0 < threshold => healthy forever.
  for (int i = 0; i < 10; i++) s.tick(100);
  EXPECT_EQ(s.dog->incidents().size(), 0u);
}

TEST(Watchdog, ProbeRuleRunsOnItsCadence) {
  SyntheticDog s;
  int calls = 0;
  double next_value = 0.0;
  obs::HealthRule r;
  r.name = "probe";
  r.kind = obs::RuleKind::kProbe;
  r.threshold = 0.5;
  r.min_consecutive = 1;
  r.probe_every = 3;
  r.probe = [&calls, &next_value](SimTime) {
    calls++;
    return next_value;
  };
  s.dog->add_rule(std::move(r));
  s.dog->arm();

  for (int i = 0; i < 6; i++) s.tick(0);
  EXPECT_EQ(calls, 2);  // ticks 1 and 4
  EXPECT_EQ(s.dog->incidents().size(), 0u);

  next_value = 1.0;  // next probe (tick 7) sees a violation
  s.tick(0);
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(s.dog->incidents().size(), 1u);
  EXPECT_EQ(s.dog->incidents()[0].rule, "probe");
  // Value is held between probes: still unhealthy on non-probe ticks.
  s.tick(0);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(s.dog->open_incidents(), 1u);
}

// ---------------------------------------------------------------------------
// Acceptance: default rules fire on a misconfigured RateController and
// stay silent on the healthy defaults, on a real cluster.

namespace {

struct ClusterRunOutcome {
  size_t incidents = 0;
  std::vector<std::string> rules;
  std::string timeline;
  uint64_t ticks = 0;
};

ClusterRunOutcome run_watchdog_cluster(int low_wm, int high_wm,
                                       int sim_shards) {
  ClusterConfig cc;
  cc.storage_nodes = 2;
  cc.osds_per_node = 2;
  cc.client_nodes = 1;
  cc.sim_shards = sim_shards;
  Cluster c(cc);
  const PoolId base = c.create_replicated_pool("base", 2);
  const PoolId chunks = c.create_replicated_pool("chunks", 2);
  DedupTierConfig t = bench::bench_tier_config(32 * 1024);
  t.low_watermark_iops = low_wm;
  t.high_watermark_iops = high_wm;
  c.enable_dedup(base, chunks, t);
  RadosClient client(&c, c.client_node(0));

  obs::TelemetryConfig tc;
  tc.interval = kSecond;
  obs::TelemetryEngine eng(&c.sched(), c.perf_registry(), tc);
  eng.add_default_series();
  eng.set_presample([&c](SimTime) { c.sync_telemetry_gauges(); });
  obs::Watchdog dog(&eng, c.op_tracker());
  dog.add_default_rules();
  dog.arm();
  eng.start();

  // 45 virtual seconds of 100 writes/s: enough demand to hold the
  // misconfigured controller in regime 2 past the 15-tick dwell rule.
  bench::run_open_loop(
      c, 4500, 100.0,
      [&](size_t i, std::function<void(uint64_t)> done) {
        const std::string oid = "o" + std::to_string(i % 64);
        const uint64_t off = (i / 64 % 8) * 16384;
        Buffer data = workload::BlockContent::make(0x1234 + i % 96, 16384);
        client.write(base, oid, off, std::move(data),
                     [done = std::move(done)](Status) { done(16384); });
      });
  eng.stop();

  ClusterRunOutcome out;
  out.incidents = dog.incidents().size();
  for (const obs::Incident& inc : dog.incidents()) {
    out.rules.push_back(inc.rule);
  }
  out.timeline = eng.timeline_jsonl();
  out.ticks = eng.ticks();
  return out;
}

}  // namespace

TEST(Watchdog, FiresOnMisconfiguredRateControllerOnly) {
  const ClusterRunOutcome healthy = run_watchdog_cluster(500, 4000, 0);
  EXPECT_GE(healthy.ticks, 40u);
  EXPECT_EQ(healthy.incidents, 0u)
      << "healthy run fired: " << (healthy.rules.empty() ? ""
                                                         : healthy.rules[0]);

  // Degenerate 0/0 watermarks: every nonzero demand is "above high", the
  // engine starves, and the dwell (and usually backlog-growth) rules trip.
  const ClusterRunOutcome sick = run_watchdog_cluster(0, 0, 0);
  bool fired = false;
  for (const std::string& r : sick.rules) {
    if (r == "rate_dwell_high" || r == "dedup_backlog_growth") fired = true;
  }
  EXPECT_TRUE(fired) << "incidents=" << sick.incidents;
}

TEST(Telemetry, TimelineByteIdenticalAcrossShardCounts) {
  // The timeline contains only virtual-time-deterministic aggregates, so
  // the exported JSONL must match byte-for-byte at any shard count.
  const ClusterRunOutcome s1 = run_watchdog_cluster(500, 4000, 1);
  const ClusterRunOutcome s4 = run_watchdog_cluster(500, 4000, 4);
  ASSERT_FALSE(s1.timeline.empty());
  EXPECT_EQ(s1.timeline, s4.timeline);
}

// ---------------------------------------------------------------------------
// Satellite: OpTracker capacity configuration (GDEDUP_OPS_HISTORY).

TEST(OpTracker, CapResolutionPrecedenceAndValidation) {
  // Explicit config wins over everything.
  {
    ScopedEnv env("GDEDUP_OPS_HISTORY", "777");
    EXPECT_EQ(obs::OpTracker::resolve_historic_cap(64), 64u);
  }
  // Env applies when config is unset (<= 0).
  {
    ScopedEnv env("GDEDUP_OPS_HISTORY", "256");
    EXPECT_EQ(obs::OpTracker::resolve_historic_cap(0), 256u);
  }
  // Default when neither is set.
  {
    ScopedEnv env("GDEDUP_OPS_HISTORY", "");
    ::unsetenv("GDEDUP_OPS_HISTORY");
    EXPECT_EQ(obs::OpTracker::resolve_historic_cap(0),
              obs::OpTracker::kDefaultHistoricCap);
    EXPECT_EQ(obs::OpTracker::resolve_slow_cap(0),
              obs::OpTracker::kDefaultSlowCap);
  }
  // Bounds are validated, not silently truncated: explicitly configured
  // out-of-range values clamp to the documented limits (with a WARN — the
  // clamped value is the observable contract).
  EXPECT_EQ(obs::OpTracker::resolve_historic_cap(-5), 1u);
  EXPECT_EQ(obs::OpTracker::resolve_historic_cap(1 << 30),
            obs::OpTracker::kMaxHistoricCap);
  EXPECT_EQ(obs::OpTracker::resolve_slow_cap(1 << 30),
            obs::OpTracker::kMaxSlowCap);
  {
    ScopedEnv env("GDEDUP_OPS_HISTORY", "0");
    EXPECT_EQ(obs::OpTracker::resolve_historic_cap(0), 1u);  // clamped up
  }
  {
    ScopedEnv env("GDEDUP_OPS_HISTORY", "not-a-number");
    EXPECT_EQ(obs::OpTracker::resolve_historic_cap(0),
              obs::OpTracker::kDefaultHistoricCap);
  }
}

TEST(OpTracker, ClusterConfigReachesTheTracker) {
  ClusterConfig cc;
  cc.storage_nodes = 1;
  cc.osds_per_node = 1;
  cc.client_nodes = 1;
  cc.ops_history = 32;
  cc.ops_slow_board = 4;
  Cluster c(cc);
  EXPECT_EQ(c.op_tracker()->historic_cap(), 32u);
  EXPECT_EQ(c.op_tracker()->slow_cap(), 4u);
}

// ---------------------------------------------------------------------------
// Satellite: Histogram log-bucket boundaries + batched percentiles.

TEST(Histogram, SingleSampleBoundaryValuesAreExact) {
  // Below 64 buckets are exact by construction; at and above the first
  // octave split, percentile() clamps to the recorded max, so a
  // single-sample histogram must return that sample exactly for every
  // quantile — including at the power-of-two bucket edges.
  for (uint64_t v : {0ull, 1ull, 63ull, 64ull, 65ull, 127ull, 128ull,
                     4095ull, 4096ull, 4097ull, (1ull << 20),
                     (1ull << 20) + 1, (1ull << 40)}) {
    Histogram h;
    h.record(v);
    EXPECT_EQ(h.percentile(0.0), v) << v;
    EXPECT_EQ(h.percentile(0.5), v) << v;
    EXPECT_EQ(h.percentile(1.0), v) << v;
    const auto batch = h.percentiles({0.0, 0.5, 0.99, 1.0});
    for (uint64_t r : batch) EXPECT_EQ(r, v) << v;
  }
}

TEST(Histogram, EmptyPercentilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);
  const auto batch = h.percentiles({0.5, 0.99, 0.999});
  ASSERT_EQ(batch.size(), 3u);
  for (uint64_t r : batch) EXPECT_EQ(r, 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, BatchedPercentilesMatchIndividualWalks) {
  Histogram h;
  // A spread crossing several octaves, with sub-bucket neighbors.
  for (uint64_t v = 1; v <= 100000; v += 37) h.record(v);
  const std::vector<double> qs = {0.999, 0.5, 0.0, 0.99, 1.0, 0.9};
  const auto batch = h.percentiles(qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (size_t i = 0; i < qs.size(); i++) {
    EXPECT_EQ(batch[i], h.percentile(qs[i])) << "q=" << qs[i];
  }
  // Log-bucket quantile error stays within the documented ~1.6%.
  EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 50000.0,
              50000.0 * 0.017);
}

TEST(Histogram, ExactBelowFirstOctaveSplit) {
  // Values < 64 land in width-1 buckets: quantiles are exact, not
  // approximate, and adjacent values never alias.
  Histogram h;
  for (uint64_t v = 0; v < 64; v++) h.record(v);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(1.0), 63u);
  const auto batch = h.percentiles({0.25, 0.75});
  // target = q * (count - 1) over 64 exact buckets.
  EXPECT_EQ(batch[0], 15u);
  EXPECT_EQ(batch[1], 47u);
}

// ---------------------------------------------------------------------------
// Satellite: SlidingWindowCounter under sampler-cadence advances.

TEST(SlidingWindow, AdvanceFarPastWindowRetiresEverything) {
  SlidingWindowCounter w(kSecond);
  for (int i = 0; i < 10; i++) {
    w.add(static_cast<SimTime>(i) * kSecond / 10, 1);
  }
  EXPECT_EQ(w.count(kSecond - 1), 10u);
  // A sampler that wakes up long after the last event (idle cluster, 1 s
  // cadence) must see zero, via the pure read and after the mutation.
  const SimTime late = 100 * kSecond;
  EXPECT_EQ(w.count(late), 0u);
  w.advance(late);
  EXPECT_EQ(w.count(late), 0u);
  // The window keeps working after the jump.
  w.add(late, 3);
  EXPECT_EQ(w.count(late), 3u);
  EXPECT_EQ(w.count(late + kSecond + 1), 0u);
}

TEST(SlidingWindow, CountAndAdvanceAgreeAtEveryCadenceStep) {
  SlidingWindowCounter a(kSecond);
  SlidingWindowCounter b(kSecond);
  // Identical event streams; `a` is advanced every virtual second (the
  // sampler cadence), `b` never — the pure-read count() must agree.
  for (int step = 0; step < 50; step++) {
    const SimTime t = static_cast<SimTime>(step) * kSecond / 4;
    a.add(t, static_cast<uint64_t>(step % 3));
    b.add(t, static_cast<uint64_t>(step % 3));
    if (step % 4 == 3) a.advance(t);
    EXPECT_EQ(a.count(t), b.count(t)) << "step " << step;
  }
}
