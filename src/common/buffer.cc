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

Buffer Buffer::uninitialized(size_t len) {
  Buffer b;
  b.store_ = std::make_shared<Bytes>(len);  // default-init: no zero fill
  b.len_ = len;
  b.gen_ = next_generation();
  return b;
}

void Buffer::own(size_t len) {
  if (store_ && store_.use_count() == 1 && off_ == 0 &&
      len_ == store_->size()) {
    store_->resize(len);  // sole owner: in place, grown tail uninitialized
  } else {
    auto fresh = std::make_shared<Bytes>(len);
    const size_t keep = std::min(len, len_);
    if (keep > 0) std::memcpy(fresh->data(), store_->data() + off_, keep);
    store_ = std::move(fresh);
    off_ = 0;
  }
  len_ = len;
}

uint8_t* Buffer::mutable_data() {
  own(len_);
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
  const Buffer parts[] = {a, b};
  return concat(parts);
}

Buffer Buffer::concat(std::span<const Buffer> parts) {
  size_t total = 0;
  for (const Buffer& p : parts) total += p.size();
  Buffer out = uninitialized(total);
  uint8_t* dst = out.mutable_data();
  for (const Buffer& p : parts) {
    if (p.size() > 0) std::memcpy(dst, p.data(), p.size());
    dst += p.size();
  }
  return out;
}

void Buffer::write_at(size_t off, const Buffer& src) {
  const size_t old = len_;
  const size_t n = src.size();
  const size_t need = std::max(len_, off + n);
  if (need == old && n == 0) return;
  own(need);
  gen_ = next_generation();
  uint8_t* p = store_->data();
  if (off > old) std::memset(p + old, 0, off - old);  // gap reads as zeros
  if (n > 0) std::memmove(p + off, src.data(), n);  // src may be *this
}

void Buffer::resize(size_t len) {
  if (len == len_) return;
  const size_t old = len_;
  own(len);
  if (len > old) std::memset(store_->data() + old, 0, len - old);
  gen_ = next_generation();
}

}  // namespace gdedup
