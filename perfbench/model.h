#pragma once

// The benchmark's own record of what every object should hold, and the
// chunk-pool audit built on it.
//
// A ContentModel keeps, per granule of one object (or block image), a
// zero-copy slice of the buffer the benchmark last wrote there; reads are
// compared byte for byte against it.  The audit hashes with the frozen
// reference SHA-256 in bench/reference_impls.h, never with src/hash, so a
// fault in the program's fingerprint kernel cannot hide itself.

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "reference_impls.h"

namespace perfbench {

using gdedup::Buffer;
using gdedup::Result;

class ContentModel {
 public:
  explicit ContentModel(uint32_t granule) : granule_(granule) {}

  uint32_t granule() const { return granule_; }
  bool exists() const { return exists_; }
  uint64_t size() const { return size_; }

  // `off` and `data.size()` are multiples of the granule.
  void write(uint64_t off, const Buffer& data) {
    const size_t first = off / granule_;
    const size_t n = data.size() / granule_;
    if (slices_.size() < first + n) slices_.resize(first + n);
    for (size_t i = 0; i < n; i++) {
      slices_[first + i] = data.slice(i * granule_, granule_);
    }
    exists_ = true;
    size_ = std::max<uint64_t>(size_, off + data.size());
  }

  // Model bytes of [off, off + len) clipped to the object size; holes read
  // as zeros.
  std::vector<uint8_t> bytes(uint64_t off, uint64_t len) const {
    const uint64_t end = std::min(off + len, size_);
    std::vector<uint8_t> out(end > off ? end - off : 0, 0);
    for (uint64_t p = off; p < end;) {
      const size_t g = p / granule_;
      const uint64_t in = p - g * granule_;
      const uint64_t take = std::min<uint64_t>(granule_ - in, end - p);
      if (g < slices_.size() && !slices_[g].empty()) {
        std::memcpy(out.data() + (p - off), slices_[g].data() + in, take);
      }
      p += take;
    }
    return out;
  }

  // Empty when `got` is what a read of [off, off + len) must return:
  // not-found for an absent object, else the model bytes clipped to the
  // object size.
  std::string verify(uint64_t off, uint64_t len,
                     const Result<Buffer>& got) const {
    if (!exists_) {
      if (!got.is_ok() && got.status().code() == gdedup::Code::kNotFound) {
        return "";
      }
      return "absent object read back " +
             (got.is_ok() ? std::to_string(got.value().size()) + " bytes"
                          : got.status().to_string());
    }
    if (!got.is_ok()) return got.status().to_string();
    const std::vector<uint8_t> want = bytes(off, len);
    const Buffer& b = got.value();
    if (b.size() != want.size()) {
      return "length " + std::to_string(b.size()) + " != " +
             std::to_string(want.size());
    }
    if (!want.empty() && std::memcmp(b.data(), want.data(), want.size()) != 0) {
      size_t i = 0;
      while (b.data()[i] == want[i]) i++;
      return "content differs at byte " + std::to_string(off + i);
    }
    return "";
  }

 private:
  uint32_t granule_;
  bool exists_ = false;
  uint64_t size_ = 0;
  std::vector<Buffer> slices_;
};

inline std::string sha256_oid(const uint8_t* p, size_t n) {
  static const char* kHex = "0123456789abcdef";
  const auto d = gdedup::bench::ref::Sha256::of({p, n});
  std::string s = "sha256:";
  for (uint8_t c : d) {
    s.push_back(kHex[c >> 4]);
    s.push_back(kHex[c & 0xf]);
  }
  return s;
}

// Fingerprints of every chunk of live content: each existing object cut
// at chunk_size from offset 0, the tail chunk short.  A chunk flushed
// while its object was shorter is stored short and reads zero-filled, so a
// chunk whose trailing granules are all zero is also live in each of its
// shorter granule-aligned forms.
struct LiveChunks {
  std::set<std::string> oids;
  uint64_t distinct_bytes = 0;

  void add(const ContentModel& m, uint32_t chunk_size) {
    if (!m.exists()) return;
    const uint32_t g = m.granule();
    for (uint64_t off = 0; off < m.size(); off += chunk_size) {
      const std::vector<uint8_t> b = m.bytes(off, chunk_size);
      if (oids.insert(sha256_oid(b.data(), b.size())).second) {
        distinct_bytes += b.size();
      }
      size_t n = b.size();
      while (n > g && std::all_of(b.begin() + static_cast<long>(n - g),
                                  b.begin() + static_cast<long>(n),
                                  [](uint8_t x) { return x == 0; })) {
        n -= g;
        oids.insert(sha256_oid(b.data(), n));
      }
    }
  }
};

}  // namespace perfbench
