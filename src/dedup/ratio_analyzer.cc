#include "dedup/ratio_analyzer.h"

namespace gdedup {

namespace {

RatioAnalyzer::ChunkScan scan_object(const FixedChunker& chunker,
                                     FingerprintAlgo algo,
                                     const Buffer& data) {
  RatioAnalyzer::ChunkScan out;
  for (const Chunk& c : chunker.split(data)) {
    out.emplace_back(Fingerprint::compute(algo, c.data.span()),
                     c.data.size());
  }
  return out;
}

}  // namespace

RatioAnalyzer::RatioAnalyzer(const OsdMap* map, PoolId pool,
                             uint32_t chunk_size, FingerprintAlgo algo)
    : map_(map), pool_(pool), chunker_(chunk_size), algo_(algo) {}

void RatioAnalyzer::add_object(const std::string& oid, const Buffer& data) {
  account(map_->primary(pool_, oid), scan_object(chunker_, algo_, data));
}

void RatioAnalyzer::account(OsdId primary, const ChunkScan& scan) {
  auto& local_report = per_osd_[primary];
  auto& local_set = local_seen_[primary];
  for (const auto& [fp, n] : scan) {
    global_.logical_bytes += n;
    if (global_seen_.insert(fp).second) global_.unique_bytes += n;

    local_report.logical_bytes += n;
    if (local_set.insert(fp).second) local_report.unique_bytes += n;
  }
}

DedupRatioReport RatioAnalyzer::local() const {
  DedupRatioReport r;
  for (const auto& [osd, rep] : per_osd_) {
    r.logical_bytes += rep.logical_bytes;
    r.unique_bytes += rep.unique_bytes;
  }
  return r;
}

}  // namespace gdedup
