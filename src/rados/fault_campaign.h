#pragma once

// Crash-schedule fault-injection campaign (the paper's Section 4.6 / Figure 9
// consistency argument, tested end to end).
//
// One *schedule* is a full cluster lifetime driven from a single seed:
//
//   preload -> storm -> heal -> verdict
//
// The preload seeds a small object population and lets the dedup engines
// flush it, so the storm's overwrites exercise the deref path from the very
// first fault.  The storm replays a deterministic client workload (writes,
// overwrites, removes of dup-heavy data) while a seeded FaultPlan kills and
// wipes OSDs, crashes them at armed engine/OSD failure points, degrades the
// network and runs GC / deep scrub mid-flight.  Every acked op is recorded
// in an in-memory oracle; failed ops are retried and, as a last resort,
// stashed and replayed after heal so the oracle and cluster agree on the
// final content even when an ack was lost mid-crash.  The heal phase
// revives stragglers, backfills, restarts every engine from its on-disk
// dirty state and drains.  The verdict runs the garbage collector to a
// fixpoint, a deep scrub, and the cluster-wide InvariantChecker (refcount
// conservation, reachability, oracle readback).
//
// Everything — topology, workload, fault placement — derives from the seed,
// so a schedule is reproducible bit for bit: same seed, same report string.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fault_planner.h"
#include "rados/cluster.h"

namespace gdedup {

struct FaultScheduleConfig {
  uint64_t seed = 1;

  // Topology (small on purpose: more ops land near faults).
  int storage_nodes = 3;
  int osds_per_node = 2;
  bool ec_chunks = false;    // chunk pool: EC(2,1) instead of replicated x2
  bool async_deref = false;  // Section 4.6 "no locking on decrement" variant
  bool rate_control = false; // exercise the throttle alongside the faults

  // Workload.
  int objects = 8;
  int bursts = 4;
  int ops_per_burst = 6;

  // Client ops give up (kUnavailable) after this long without a reply; a
  // crashed OSD must not wedge the storm.  Must exceed the planner's worst
  // injected network delay.
  SimTime op_timeout = msec(250);

  FaultPlannerConfig plan;
};

// The campaign's seed -> variant mapping: alternates replicated / EC chunk
// pools and sweeps the async-deref and rate-control toggles so a seed range
// covers the configuration matrix.
FaultScheduleConfig schedule_config_for_seed(uint64_t seed);

struct ScheduleResult {
  uint64_t seed = 0;
  bool ec_chunks = false;

  // Everything that went wrong; empty means the schedule upheld every
  // invariant.  Sorted, deterministic.
  std::vector<std::string> violations;

  // Byte-stable full report (plan, applied-event log, counters, verdict).
  std::string report;

  // Campaign-level aggregates.
  uint64_t engine_aborts = 0;        // engine flushes abandoned by injection
  uint64_t injected_osd_crashes = 0; // OSD self-crashes at armed points
  uint64_t dropped_messages = 0;
  uint64_t write_retries = 0;
  uint64_t stashed_ops = 0;
  // "engine:<point>" / "osd:<point>" -> times an armed hook fired.
  std::map<std::string, uint64_t> fired_points;

  bool clean() const { return violations.empty(); }
};

ScheduleResult run_fault_schedule(const FaultScheduleConfig& cfg);

// One schedule whose cluster outlives run(): tests reach it before run()
// (to switch fast paths off) and after (to read the final counters).
class FaultSchedule {
 public:
  explicit FaultSchedule(const FaultScheduleConfig& cfg);
  ~FaultSchedule();
  Cluster& cluster();
  ScheduleResult run();  // once

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct CampaignConfig {
  uint64_t first_seed = 1;
  int schedules = 200;
};

struct CampaignSummary {
  int schedules = 0;
  int failed = 0;  // schedules with >= 1 violation
  uint64_t engine_aborts = 0;
  uint64_t injected_osd_crashes = 0;
  uint64_t write_retries = 0;
  std::map<std::string, uint64_t> fired_points;
  std::vector<std::string> failures;  // "seed=N: <first violation>"

  bool clean() const { return failed == 0; }
  std::string to_string() const;
};

// Run `schedules` consecutive seeds and aggregate.  Each schedule builds
// and tears down its own cluster.
CampaignSummary run_fault_campaign(const CampaignConfig& cfg);

}  // namespace gdedup
