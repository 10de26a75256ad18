#include "common/buffer.h"

#include <algorithm>
#include <atomic>

namespace gdedup {

uint64_t Buffer::next_generation() {
  // Global monotonic counter.  Parallel shard windows construct Buffers
  // on several threads, so this must be thread-safe; relaxed order
  // suffices because only *uniqueness* matters — generations are compared
  // for equality in cache keys, never ordered or digested.  Starts at 1 so
  // gen 0 means "no storage yet".
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Buffer::detach() {
  const bool sole = store_ && store_.use_count() == 1 && off_ == 0 &&
                    len_ == store_->size();
  if (sole) return;
  auto fresh = std::make_shared<std::vector<uint8_t>>(len_);
  if (len_ > 0) std::memcpy(fresh->data(), store_->data() + off_, len_);
  store_ = std::move(fresh);
  off_ = 0;
}

uint8_t* Buffer::mutable_data() {
  if (!store_) {
    store_ = std::make_shared<std::vector<uint8_t>>();
    off_ = len_ = 0;
    gen_ = next_generation();
    return store_->data();
  }
  detach();
  gen_ = next_generation();  // caller may write through the pointer
  return store_->data();
}

Buffer Buffer::slice(size_t off, size_t len) const {
  Buffer b;
  if (off >= len_) return b;
  b.store_ = store_;
  b.off_ = off_ + off;
  b.len_ = std::min(len, len_ - off);
  b.gen_ = gen_;  // same bytes until someone detaches
  return b;
}

Buffer Buffer::concat(const Buffer& a, const Buffer& b) {
  Buffer out(a.size() + b.size());
  uint8_t* p = out.mutable_data();
  if (a.size() > 0) std::memcpy(p, a.data(), a.size());
  if (b.size() > 0) std::memcpy(p + a.size(), b.data(), b.size());
  return out;
}

void Buffer::write_at(size_t off, const Buffer& src) {
  const size_t need = off + src.size();
  if (need > len_) resize(need);
  if (src.size() > 0) {
    std::memcpy(mutable_data() + off, src.data(), src.size());
  }
}

void Buffer::resize(size_t len) {
  if (len == len_) return;
  detach();
  if (!store_) store_ = std::make_shared<std::vector<uint8_t>>();
  store_->resize(len);
  len_ = len;
  gen_ = next_generation();
}

}  // namespace gdedup
