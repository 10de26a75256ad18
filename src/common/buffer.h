#pragma once

// Copy-on-write byte buffer.
//
// Plays the role Ceph's bufferlist plays in the real system: object data,
// chunk payloads and message bodies are passed by value everywhere, but the
// underlying bytes are shared until someone mutates them.  Replicating an
// object to two OSDs therefore costs two refcount bumps, not two copies —
// which both matches the real system's zero-copy intent and keeps the
// simulated cluster's memory footprint proportional to *unique* data.

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gdedup {

class Buffer {
 public:
  Buffer() = default;

  explicit Buffer(size_t len, uint8_t fill = 0)
      : store_(std::make_shared<Bytes>(len, fill)),
        off_(0),
        len_(len),
        gen_(next_generation()) {}

  // Fresh storage of `len` bytes that are NOT zero-filled.  Only for a
  // caller that writes every byte (through mutable_data()) before any
  // byte can be read — see DESIGN.md §16.
  static Buffer uninitialized(size_t len);

  static Buffer copy_of(const void* data, size_t len) {
    Buffer b = uninitialized(len);
    if (len > 0) std::memcpy(b.mutable_data(), data, len);
    return b;
  }
  static Buffer copy_of(std::string_view s) {
    return copy_of(s.data(), s.size());
  }
  static Buffer copy_of(std::span<const uint8_t> s) {
    return copy_of(s.data(), s.size());
  }

  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  const uint8_t* data() const {
    return store_ ? store_->data() + off_ : nullptr;
  }
  std::span<const uint8_t> span() const { return {data(), len_}; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data()), len_};
  }

  // Mutable access: detaches from any sharers (and from a parent slice).
  uint8_t* mutable_data();

  uint8_t operator[](size_t i) const { return data()[i]; }

  // Zero-copy sub-slice [off, off+len).  Clamped to bounds.
  Buffer slice(size_t off, size_t len) const;

  // Value concatenation (copies every part into fresh storage).
  static Buffer concat(const Buffer& a, const Buffer& b);
  static Buffer concat(std::span<const Buffer> parts);

  // Overwrite [off, off+src.size()) with src, growing if needed (a gap
  // between the old end and `off` reads as zeros).
  void write_at(size_t off, const Buffer& src);

  // Grow (zero-filled) or shrink to `len`.
  void resize(size_t len);

  bool content_equals(const Buffer& o) const {
    return len_ == o.len_ &&
           (len_ == 0 || std::memcmp(data(), o.data(), len_) == 0);
  }

  std::string to_string() const { return std::string(view()); }

  // True if the backing storage is shared with another Buffer (test hook
  // for the COW behaviour).
  bool shares_storage_with(const Buffer& o) const {
    return store_ && store_ == o.store_;
  }

  // True if any other Buffer currently references the same storage —
  // i.e. passing this by value was a refcount bump, not a byte copy.
  // Feeds the osd.bytes_zero_copied accounting.
  bool storage_shared() const { return store_ && store_.use_count() > 1; }

  // Content-identity for memoization (e.g. the fingerprint cache).
  //
  // generation() is bumped from a global monotonic counter on every event
  // that can change the bytes this Buffer exposes: fresh-storage
  // construction, mutable_data(), write_at(), resize().  slice() inherits
  // the parent's generation (a slice's bytes are stable until someone
  // detaches).  Two
  // Buffers with equal (data(), size(), generation()) are guaranteed to
  // hold identical bytes: generations are globally unique per mutation
  // event, so a recycled allocation at the same address can never collide
  // with a stale cache entry (ABA-safe).
  uint64_t generation() const { return gen_; }
  const void* storage_id() const { return store_.get(); }

 private:
  // Leaves the bytes a resize adds uninitialized (value-initialization
  // would zero them): every caller either overwrites them at once or
  // zero-fills what must read as zeros.
  struct DefaultInitAlloc : std::allocator<uint8_t> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAlloc;
    };
    void construct(uint8_t* p) { ::new (static_cast<void*>(p)) uint8_t; }
    template <typename... Args>
    void construct(uint8_t* p, Args&&... args) {
      ::new (static_cast<void*>(p)) uint8_t(std::forward<Args>(args)...);
    }
  };
  using Bytes = std::vector<uint8_t, DefaultInitAlloc>;

  // Ensure sole ownership of storage holding exactly `len` bytes, the
  // first min(len, len_) of them this buffer's current bytes; any bytes
  // past the old length are uninitialized.
  void own(size_t len);
  static uint64_t next_generation();

  std::shared_ptr<Bytes> store_;
  size_t off_ = 0;
  size_t len_ = 0;
  uint64_t gen_ = 0;
};

}  // namespace gdedup
