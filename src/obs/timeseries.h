#pragma once

// Deterministic time-series telemetry engine (DESIGN.md §13).
//
// A TelemetryEngine samples the PerfRegistry on a fixed virtual-time
// cadence.  The sampling tick is a *control-lane* sim event: it executes
// with every shard synchronized at one global timestamp, reads counters,
// and re-arms itself — it never mutates simulated state, issues I/O, or
// advances any clock beyond what the workload already drives.  That is the
// determinism contract: telemetry is *reported, never digested*, so the
// DeterminismDigest is byte-identical with sampling on or off at any
// GDEDUP_SIM_SHARDS setting, and the timeline
// itself is byte-identical run-to-run for a fixed seed (it contains only
// virtual-time-deterministic values — no wall clocks, no op-trace ids,
// and no host-scheduling-dependent "sim" engine counters).
//
// Rather than ring-buffering every counter of every entity (~1.2k series
// on a 16-OSD cluster), the engine samples *declarative aggregate series*:
// a SeriesSpec names an entity prefix ("tier.", "osd."), a counter, and an
// aggregation (sum / max / mean) across the matching entities.  Histogram
// sub-metrics are addressed with a suffix ("write_lat.p99"); all quantile
// suffixes of one histogram are answered with a single batched
// Histogram::percentiles() bucket walk per entity per tick.  Each series
// keeps a bounded ring of samples for the watchdog's windowed rules, and
// (optionally) every sampled frame is retained for timeline_jsonl()/csv().

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/perf_counters.h"
#include "sim/scheduler.h"

namespace gdedup::obs {

enum class SeriesAgg {
  kSum,   // sum across matching entities
  kMax,   // max across matching entities
  kMean,  // mean across matching entities (0 when none match)
};

struct SeriesSpec {
  std::string name;           // timeline column name; unique per engine
  std::string entity_prefix;  // registry entities to aggregate over
  // Counter or gauge name, or "<histogram>.<sub>" where <sub> is one of
  // count / mean / min / max / p50 / p90 / p99 / p999.
  std::string counter;
  SeriesAgg agg = SeriesAgg::kSum;
  // Also derive a "<name>_rate" per-virtual-second column in the timeline
  // (delta between consecutive frames / interval; 0 on the first frame).
  bool rate = false;
};

// Fixed-capacity ring of samples, oldest evicted first.
class TimeSeries {
 public:
  explicit TimeSeries(size_t cap) : buf_(cap > 0 ? cap : 1) {}

  void push(double v) {
    buf_[head_] = v;
    head_ = (head_ + 1) % buf_.size();
    if (size_ < buf_.size()) size_++;
    total_++;
  }
  // Samples currently held (<= capacity).
  size_t size() const { return size_; }
  size_t capacity() const { return buf_.size(); }
  // Samples ever pushed.
  uint64_t total() const { return total_; }
  // back(0) is the latest sample, back(size()-1) the oldest retained.
  double back(size_t ago = 0) const {
    if (ago >= size_) return 0.0;
    return buf_[(head_ + buf_.size() - 1 - ago) % buf_.size()];
  }

 private:
  std::vector<double> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
  uint64_t total_ = 0;
};

struct TelemetryConfig {
  SimTime interval = 1'000'000'000;  // sample cadence (default 1 virtual s)
  size_t ring_capacity = 512;        // per-series samples kept for rules
  bool record_timeline = true;       // retain frames for timeline dumps
  // Frame cap for very long runs; excess frames are *counted* as dropped
  // (frames_dropped()), never silently discarded without trace.  Rings keep
  // advancing regardless, so watchdog rules still see fresh samples.
  size_t max_frames = 1 << 20;
};

class TelemetryEngine {
 public:
  TelemetryEngine(Scheduler* sched, PerfRegistry* registry,
                  TelemetryConfig cfg = {});
  ~TelemetryEngine();

  TelemetryEngine(const TelemetryEngine&) = delete;
  TelemetryEngine& operator=(const TelemetryEngine&) = delete;

  // Series must be added before the first sample.
  void add_series(SeriesSpec spec);
  // The curated default timeline: client / osd / tier / pool / derived
  // aggregates.  Excludes the "sim" entity (host-scheduling-dependent) so
  // the timeline stays byte-identical across shard/thread counts.
  void add_default_series();

  // Called at the top of every tick, before counters are read — wire this
  // to Cluster::sync_telemetry_gauges() so mirrored gauges are fresh.
  void set_presample(std::function<void(SimTime)> fn) {
    presample_ = std::move(fn);
  }
  // Called after each frame is recorded — the Watchdog hooks in here.
  void set_post_sample(std::function<void(SimTime, uint64_t)> fn) {
    post_sample_ = std::move(fn);
  }

  // Schedules the first control-lane tick at now()+interval and re-arms
  // after every sample until stop().  Call from control-plane code.
  void start();
  void stop();
  bool running() const { return running_; }

  // Take one sample immediately (also usable without start(), e.g. a final
  // end-of-run frame or unit tests driving the cadence by hand).
  void sample_now();

  uint64_t ticks() const { return ticks_; }
  SimTime interval() const { return cfg_.interval; }
  const TelemetryConfig& config() const { return cfg_; }

  // Series access for the watchdog / tests; nullptr if unknown.
  const TimeSeries* series(const std::string& name) const;
  // Mean per-virtual-second rate over the last `span` sampling intervals
  // (clamped to the samples available; 0 with fewer than two samples).
  double rate(const std::string& name, int span = 1) const;

  // Timeline export.  One frame per line; fixed formatting (integral
  // values print as integers, everything else "%.3f") so output is
  // byte-stable.  Columns are the specs in declaration order plus a
  // "<name>_rate" column after each rate-enabled spec.
  std::vector<std::string> columns() const;
  std::string timeline_jsonl() const;
  std::string timeline_csv() const;
  size_t frames() const { return frame_times_.size(); }
  uint64_t frames_dropped() const { return frames_dropped_; }
  const std::vector<SimTime>& frame_times() const { return frame_times_; }

 private:
  struct SeriesState {
    SeriesSpec spec;
    // Parsed histogram addressing: counter base name + sub-metric, empty
    // sub means plain counter/gauge.
    std::string counter_base;
    std::string sub;
    TimeSeries ring;
    // entity name -> declaration index of counter_base (-1 = absent);
    // layouts are stable per entity name, so resolution is cached.
    std::unordered_map<std::string, int> index_cache;

    SeriesState(SeriesSpec s, size_t cap);
  };

  void schedule_tick();
  void on_tick();
  double sample_series(SeriesState& st,
                       const std::vector<PerfCountersRef>& entities);
  double read_value(SeriesState& st, const PerfCounters& pc, int idx) const;

  Scheduler* sched_;
  PerfRegistry* registry_;
  TelemetryConfig cfg_;
  std::vector<SeriesState> series_;
  std::unordered_map<std::string, size_t> by_name_;
  std::function<void(SimTime)> presample_;
  std::function<void(SimTime, uint64_t)> post_sample_;
  bool running_ = false;
  Scheduler::EventId tick_event_ = 0;
  bool tick_pending_ = false;
  uint64_t ticks_ = 0;
  uint64_t frames_dropped_ = 0;
  std::vector<SimTime> frame_times_;
  std::vector<std::vector<double>> frames_;  // [frame][spec]
};

// Deterministic number formatting shared by the timeline and incident
// dumps: integral values print "%lld", everything else "%.3f".
std::string format_sample(double v);

}  // namespace gdedup::obs
