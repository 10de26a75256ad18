#pragma once

// Deduplication-ratio accounting: global vs per-OSD local dedup.
//
// Reproduces the comparison of Figure 3 / Table 1.  Objects are placed by
// the same CRUSH map the cluster uses; "local" deduplication keeps one
// fingerprint set per OSD (a per-node block-level dedup appliance, the
// paper's Section 2.2 strawman), "global" keeps a single content-addressed
// space.  Ratios exclude redundancy-scheme copies, exactly as the paper
// computes them ("calculated under excluding the redundancy caused by
// replication"): each object is counted once, at its primary.

#include <cstdint>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/osd_map.h"
#include "common/buffer.h"
#include "dedup/chunker.h"
#include "hash/fingerprint.h"

namespace gdedup {

struct DedupRatioReport {
  uint64_t logical_bytes = 0;
  uint64_t unique_bytes = 0;
  double ratio() const {
    if (logical_bytes == 0) return 0.0;
    return 1.0 - static_cast<double>(unique_bytes) /
                     static_cast<double>(logical_bytes);
  }
  double percent() const { return ratio() * 100.0; }
};

class RatioAnalyzer {
 public:
  // One scanned object: (fingerprint, length) per chunk, in offset order.
  using ChunkScan = std::vector<std::pair<Fingerprint, uint64_t>>;

  RatioAnalyzer(const OsdMap* map, PoolId pool, uint32_t chunk_size,
                FingerprintAlgo algo = FingerprintAlgo::kSha256);

  // Feed one logical object (whole image).  Placement comes from the map.
  void add_object(const std::string& oid, const Buffer& data);

  DedupRatioReport global() const { return global_; }
  DedupRatioReport local() const;  // summed over per-OSD unique sets

  // Per-OSD logical bytes landed (placement balance diagnostics).
  const std::map<OsdId, DedupRatioReport>& per_osd() const { return per_osd_; }

 private:
  void account(OsdId primary, const ChunkScan& scan);

  const OsdMap* map_;
  PoolId pool_;
  FixedChunker chunker_;
  FingerprintAlgo algo_;

  DedupRatioReport global_;
  std::unordered_set<Fingerprint> global_seen_;
  std::map<OsdId, DedupRatioReport> per_osd_;
  std::map<OsdId, std::unordered_set<Fingerprint>> local_seen_;
};

}  // namespace gdedup
