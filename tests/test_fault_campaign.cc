// Fault-injection campaign: seeded crash schedules against a live dedup
// cluster, refereed by the cluster-wide invariant checker.  The smoke tests
// here are the tier-1 slice of the campaign; the full >= 200-seed sweep
// lives in examples/fault_storm.cpp (scripts/run_faults.sh).

#include "rados/fault_campaign.h"

#include <gtest/gtest.h>

#include "cluster/fault_planner.h"
#include "dedup/invariants.h"
#include "rados/sync.h"

namespace gdedup {
namespace {

TEST(FaultPlan, SameSeedSameSchedule) {
  OsdMap map;
  for (int i = 0; i < 6; i++) map.add_osd(i, i / 2);
  const FaultPlan a = plan_faults(map, 42);
  const FaultPlan b = plan_faults(map, 42);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_FALSE(a.events.empty());
  const FaultPlan c = plan_faults(map, 43);
  EXPECT_NE(a.describe(), c.describe());
}

TEST(FaultPlan, EpisodesAreSurvivable) {
  // Never two OSDs down at once; every crash is revived; net faults healed.
  OsdMap map;
  for (int i = 0; i < 6; i++) map.add_osd(i, i / 2);
  for (uint64_t seed = 1; seed <= 50; seed++) {
    const FaultPlan plan = plan_faults(map, seed);
    int down = 0;
    bool armed = false;
    bool net_fault = false;
    for (const FaultEvent& ev : plan.events) {
      switch (ev.action) {
        case FaultAction::kCrashOsd:
          down++;
          EXPECT_LE(down, 1) << "seed " << seed;
          break;
        case FaultAction::kReviveOsd:
          if (ev.osd >= 0) down--;
          armed = false;
          break;
        case FaultAction::kArmEnginePoint:
        case FaultAction::kArmOsdPoint:
          EXPECT_FALSE(armed) << "seed " << seed;  // one armed point at a time
          armed = true;
          break;
        case FaultAction::kNetDelay:
          EXPECT_LE(ev.dur, msec(25)) << "seed " << seed;
          net_fault = true;
          break;
        case FaultAction::kNetDrop:
          EXPECT_GE(ev.arg, 2) << "seed " << seed;
          net_fault = true;
          break;
        case FaultAction::kNetHeal:
          net_fault = false;
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(down, 0) << "seed " << seed;
    EXPECT_FALSE(armed) << "seed " << seed;
    EXPECT_FALSE(net_fault) << "seed " << seed;
  }
}

TEST(FaultCampaign, SmokeReplicated) {
  FaultScheduleConfig cfg = schedule_config_for_seed(2);
  ASSERT_FALSE(cfg.ec_chunks);
  const ScheduleResult r = run_fault_schedule(cfg);
  EXPECT_TRUE(r.clean()) << r.report;
}

TEST(FaultCampaign, SmokeEc) {
  FaultScheduleConfig cfg = schedule_config_for_seed(1);
  ASSERT_TRUE(cfg.ec_chunks);
  const ScheduleResult r = run_fault_schedule(cfg);
  EXPECT_TRUE(r.clean()) << r.report;
}

TEST(FaultCampaign, SmokeSweep) {
  // One pass over the variant matrix (replicated/EC x async-deref x rate
  // control) — bounded for tier-1; the wide sweep is scripts/run_faults.sh.
  for (uint64_t seed = 1; seed <= 8; seed++) {
    const ScheduleResult r = run_fault_schedule(schedule_config_for_seed(seed));
    EXPECT_TRUE(r.clean()) << "seed " << seed << "\n" << r.report;
  }
}

TEST(FaultCampaign, SameSeedByteIdenticalReport) {
  const ScheduleResult a = run_fault_schedule(schedule_config_for_seed(5));
  const ScheduleResult b = run_fault_schedule(schedule_config_for_seed(5));
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.fired_points, b.fired_points);
}

TEST(FaultCampaign, CampaignAggregates) {
  CampaignConfig cc;
  cc.first_seed = 1;
  cc.schedules = 4;
  const CampaignSummary sum = run_fault_campaign(cc);
  EXPECT_EQ(sum.schedules, 4);
  EXPECT_TRUE(sum.clean()) << sum.to_string();
  EXPECT_FALSE(sum.to_string().empty());
}

TEST(FaultCampaign, CounterSumMatchesPerTierRegistry) {
  // Cluster::counter_sum over a pool's tiers must equal the sum of the
  // per-tier registry entities for every declared l_tier_* index —
  // including the crash-only counters (degraded_pulls, orphan_adoptions)
  // that an ordinary run leaves at zero.  Run schedules until one pulls
  // a degraded object, checking every schedule on the way.
  uint64_t degraded = 0;
  for (uint64_t seed = 1; seed <= 16 && degraded == 0; seed++) {
    FaultSchedule sched(schedule_config_for_seed(seed));
    const ScheduleResult r = sched.run();
    EXPECT_TRUE(r.clean()) << "seed " << seed << "\n" << r.report;
    Cluster& c = sched.cluster();
    const PoolId meta = c.osdmap().pool_by_name("meta").value();
    const std::string suffix = ".pool" + std::to_string(meta);
    for (int idx = l_tier_first + 1; idx < l_tier_last; idx++) {
      uint64_t per_tier = 0;
      for (const auto& pc : c.perf_registry()->sorted()) {
        const std::string& n = pc->name();
        if (n.rfind("tier.", 0) == 0 && n.size() >= suffix.size() &&
            n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0) {
          per_tier += pc->get(idx);
        }
      }
      EXPECT_EQ(c.counter_sum(idx, meta), per_tier)
          << "seed " << seed << " counter index " << idx;
    }
    degraded = c.counter_sum(l_tier_degraded_pulls, meta);
  }
  EXPECT_GT(degraded, 0u) << "no schedule pulled a degraded object";
}

TEST(FaultCampaign, InvariantCheckerFlagsPlantedDamage) {
  // The referee must actually referee: plant an unreachable chunk and a
  // truncated object in an otherwise-clean cluster and expect violations.
  FaultScheduleConfig cfg = schedule_config_for_seed(2);
  cfg.plan.max_episodes = 1;
  cfg.plan.allow_net_faults = false;
  const ScheduleResult clean = run_fault_schedule(cfg);
  ASSERT_TRUE(clean.clean()) << clean.report;

  // Separately, verify check() notices oracle drift on a live cluster.
  ClusterConfig ccfg;
  ccfg.storage_nodes = 3;
  ccfg.osds_per_node = 2;
  ccfg.client_nodes = 1;
  Cluster c(ccfg);
  const PoolId meta = c.create_replicated_pool("meta", 2, 64);
  const PoolId chunks = c.create_replicated_pool("chunks", 2, 64);
  DedupTierConfig d;
  d.mode = DedupMode::kPostProcess;
  d.chunk_size = 8 * 1024;
  d.engine_tick = msec(10);
  d.rate_control = false;
  c.enable_dedup(meta, chunks, d);
  RadosClient client(&c, c.client_node());
  Buffer body(32 * 1024, 0xAB);
  ASSERT_TRUE(sync_write_full(c, client, meta, "obj", body).is_ok());
  ASSERT_TRUE(c.drain_dedup(sec(60)));

  InvariantChecker checker(&c, meta, chunks);
  auto read_fn = [&](const std::string& oid) {
    return sync_read(c, client, meta, oid, 0, 0);
  };
  std::map<std::string, Buffer> oracle;
  oracle["obj"] = body;
  EXPECT_TRUE(checker.check(oracle, {}, read_fn).clean());

  // Oracle expects different bytes -> readback mismatch.
  std::map<std::string, Buffer> wrong;
  wrong["obj"] = Buffer(32 * 1024, 0xCD);
  const InvariantReport bad = checker.check(wrong, {}, read_fn);
  EXPECT_FALSE(bad.clean());

  // An object the oracle believes removed -> violation.
  const InvariantReport ghost = checker.check(oracle, {"obj"}, read_fn);
  EXPECT_FALSE(ghost.clean());
}

}  // namespace
}  // namespace gdedup
