// Buffer: copy-on-write semantics, slicing, resize, write_at.

#include "common/buffer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/random.h"

namespace gdedup {
namespace {

TEST(Buffer, EmptyDefault) {
  Buffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(Buffer, ZeroFilledConstruction) {
  Buffer b(16);
  ASSERT_EQ(b.size(), 16u);
  for (size_t i = 0; i < 16; i++) EXPECT_EQ(b[i], 0);
}

TEST(Buffer, FillConstruction) {
  Buffer b(8, 0xAB);
  for (size_t i = 0; i < 8; i++) EXPECT_EQ(b[i], 0xAB);
}

TEST(Buffer, CopyOfString) {
  Buffer b = Buffer::copy_of("hello");
  EXPECT_EQ(b.view(), "hello");
}

TEST(Buffer, CopySharesStorage) {
  Buffer a = Buffer::copy_of("shared bytes");
  Buffer b = a;
  EXPECT_TRUE(a.shares_storage_with(b));
}

TEST(Buffer, MutationDetaches) {
  Buffer a = Buffer::copy_of("shared bytes");
  Buffer b = a;
  b.mutable_data()[0] = 'X';
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_EQ(a.view(), "shared bytes");
  EXPECT_EQ(b.view(), "Xhared bytes");
}

TEST(Buffer, SliceIsZeroCopy) {
  Buffer a = Buffer::copy_of("0123456789");
  Buffer s = a.slice(2, 4);
  EXPECT_EQ(s.view(), "2345");
  EXPECT_TRUE(s.shares_storage_with(a));
}

TEST(Buffer, SliceClampsToBounds) {
  Buffer a = Buffer::copy_of("abc");
  EXPECT_EQ(a.slice(1, 100).view(), "bc");
  EXPECT_EQ(a.slice(5, 2).size(), 0u);
}

TEST(Buffer, SliceThenMutateDetachesCorrectWindow) {
  Buffer a = Buffer::copy_of("0123456789");
  Buffer s = a.slice(3, 3);
  s.mutable_data()[0] = 'X';
  EXPECT_EQ(s.view(), "X45");
  EXPECT_EQ(a.view(), "0123456789");
}

TEST(Buffer, Concat) {
  Buffer c = Buffer::concat(Buffer::copy_of("foo"), Buffer::copy_of("bar"));
  EXPECT_EQ(c.view(), "foobar");
  EXPECT_EQ(Buffer::concat(Buffer(), Buffer()).size(), 0u);
}

TEST(Buffer, WriteAtGrows) {
  Buffer b = Buffer::copy_of("abc");
  b.write_at(5, Buffer::copy_of("XY"));
  ASSERT_EQ(b.size(), 7u);
  EXPECT_EQ(b[0], 'a');
  EXPECT_EQ(b[3], 0);  // gap zero-filled
  EXPECT_EQ(b[5], 'X');
}

TEST(Buffer, WriteAtOverlap) {
  Buffer b = Buffer::copy_of("abcdef");
  b.write_at(2, Buffer::copy_of("XY"));
  EXPECT_EQ(b.view(), "abXYef");
}

TEST(Buffer, ResizeShrinkAndGrow) {
  Buffer b = Buffer::copy_of("abcdef");
  b.resize(3);
  EXPECT_EQ(b.view(), "abc");
  b.resize(5);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b[3], 0);
  EXPECT_EQ(b[4], 0);
}

TEST(Buffer, ResizeDetachesSharer) {
  Buffer a = Buffer::copy_of("abcdef");
  Buffer b = a;
  b.resize(2);
  EXPECT_EQ(a.view(), "abcdef");
  EXPECT_EQ(b.view(), "ab");
}

TEST(Buffer, ContentEquals) {
  Buffer a = Buffer::copy_of("same");
  Buffer b = Buffer::copy_of("same");
  Buffer c = Buffer::copy_of("diff");
  EXPECT_TRUE(a.content_equals(b));
  EXPECT_FALSE(a.content_equals(c));
  EXPECT_TRUE(Buffer().content_equals(Buffer()));
}

TEST(Buffer, SliceOfSlice) {
  Buffer a = Buffer::copy_of("0123456789");
  Buffer s1 = a.slice(2, 6);  // "234567"
  Buffer s2 = s1.slice(1, 3);  // "345"
  EXPECT_EQ(s2.view(), "345");
}

TEST(Buffer, MutableDataOnEmpty) {
  Buffer b;
  b.mutable_data();  // must not crash; empty buffers stay empty
  EXPECT_EQ(b.size(), 0u);
  b.write_at(0, Buffer::copy_of("x"));
  EXPECT_EQ(b.view(), "x");
}

// Generation semantics backing the fingerprint memoization cache: equal
// (storage_id, generation) must imply identical bytes for the storage's
// whole lifetime.

TEST(Buffer, GenerationsAreUniquePerAllocation) {
  Buffer a = Buffer::copy_of("aaaa");
  Buffer b = Buffer::copy_of("aaaa");
  EXPECT_NE(a.generation(), 0u);
  EXPECT_NE(a.generation(), b.generation());
  EXPECT_NE(a.storage_id(), nullptr);
  EXPECT_NE(a.storage_id(), b.storage_id());
}

TEST(Buffer, CopyAndSliceInheritGeneration) {
  Buffer a = Buffer::copy_of("0123456789");
  Buffer copy = a;
  Buffer s = a.slice(2, 6);
  EXPECT_EQ(copy.generation(), a.generation());
  EXPECT_EQ(copy.storage_id(), a.storage_id());
  EXPECT_EQ(s.generation(), a.generation());
  EXPECT_EQ(s.storage_id(), a.storage_id());
}

TEST(Buffer, SoleOwnerMutationBumpsGeneration) {
  Buffer a = Buffer::copy_of("abcd");
  const uint64_t g0 = a.generation();
  const void* id0 = a.storage_id();
  a.mutable_data()[0] = 'x';
  EXPECT_EQ(a.storage_id(), id0);  // no sharer: storage reused in place
  EXPECT_NE(a.generation(), g0);
}

TEST(Buffer, SharedMutationDetachesWithFreshGeneration) {
  Buffer a = Buffer::copy_of("abcd");
  Buffer b = a;
  const uint64_t ga = a.generation();
  b.mutable_data()[0] = 'x';
  // The sharer detached onto new storage; a's identity is untouched, so a
  // cached fingerprint for (a.storage_id, ga) remains valid.
  EXPECT_NE(b.storage_id(), a.storage_id());
  EXPECT_NE(b.generation(), ga);
  EXPECT_EQ(a.generation(), ga);
  EXPECT_EQ(a.view(), "abcd");
}

TEST(Buffer, ResizeBumpsGeneration) {
  Buffer a = Buffer::copy_of("abcd");
  const uint64_t g0 = a.generation();
  a.resize(8);
  EXPECT_NE(a.generation(), g0);
}

// The allocations below skip the zero fill, so each path must write every
// byte it exposes.  Each test first frees a buffer of non-zero bytes the
// same size, so malloc reuse would surface any byte left unwritten.

constexpr size_t kN = 4096;

Buffer pattern(size_t n, uint64_t seed) {
  Buffer b(n);
  Rng rng(seed);
  rng.fill(b.mutable_data(), n);
  return b;
}

void dirty_heap(size_t n) {
  for (int i = 0; i < 4; i++) Buffer junk(n, 0xEE);
}

TEST(Buffer, UninitializedPathsCopyOfAndConcat) {
  const Buffer a = pattern(kN, 1);
  const Buffer b = pattern(kN / 2, 2);
  dirty_heap(kN);
  Buffer c = Buffer::copy_of(a.span());
  EXPECT_TRUE(c.content_equals(a));
  EXPECT_FALSE(c.shares_storage_with(a));

  dirty_heap(kN + kN / 2);
  Buffer ab = Buffer::concat(a, b);
  ASSERT_EQ(ab.size(), kN + kN / 2);
  EXPECT_TRUE(ab.slice(0, kN).content_equals(a));
  EXPECT_TRUE(ab.slice(kN, kN / 2).content_equals(b));

  const Buffer parts[] = {b, Buffer(), a, b.slice(7, 100)};
  dirty_heap(2 * kN + 100);
  Buffer all = Buffer::concat(parts);
  ASSERT_EQ(all.size(), kN / 2 + kN + 100);
  EXPECT_TRUE(all.slice(0, kN / 2).content_equals(b));
  EXPECT_TRUE(all.slice(kN / 2, kN).content_equals(a));
  EXPECT_TRUE(all.slice(kN / 2 + kN, 100).content_equals(b.slice(7, 100)));
}

TEST(Buffer, UninitializedPathsDetachOfSlice) {
  const Buffer a = pattern(kN, 3);
  Buffer s = a.slice(100, kN / 2);
  dirty_heap(kN / 2);
  s.mutable_data();  // detaches exactly the slice's bytes
  EXPECT_FALSE(s.shares_storage_with(a));
  ASSERT_EQ(s.size(), kN / 2);
  EXPECT_EQ(std::memcmp(s.data(), a.data() + 100, kN / 2), 0);
}

TEST(Buffer, UninitializedPathsWriteAtGrowth) {
  const Buffer a = pattern(kN, 4);
  const Buffer src = pattern(kN / 4, 5);
  // Growth past the end with a gap: the gap reads as zeros.  Grown both
  // in place (sole owner) and while another buffer shares the storage.
  for (bool shared : {false, true}) {
    Buffer b = Buffer::copy_of(a.span());
    const Buffer sharer = shared ? b : Buffer();
    dirty_heap(2 * kN);
    b.write_at(kN + 64, src);
    ASSERT_EQ(b.size(), kN + 64 + kN / 4) << shared;
    EXPECT_TRUE(b.slice(0, kN).content_equals(a)) << shared;
    for (size_t i = kN; i < kN + 64; i++) ASSERT_EQ(b[i], 0) << i;
    EXPECT_TRUE(b.slice(kN + 64, kN / 4).content_equals(src)) << shared;
    if (shared) {
      EXPECT_TRUE(sharer.content_equals(a));
    }
  }
  // Growth straddling the end: no gap, the old head stays.
  Buffer c = Buffer::copy_of(a.span());
  c.write_at(kN - 10, src);
  ASSERT_EQ(c.size(), kN - 10 + kN / 4);
  EXPECT_TRUE(c.slice(0, kN - 10).content_equals(a.slice(0, kN - 10)));
  EXPECT_TRUE(c.slice(kN - 10, kN / 4).content_equals(src));
}

TEST(Buffer, UninitializedPathsResizeGrowthZeroFillsTail) {
  const Buffer a = pattern(kN, 6);
  for (bool sliced : {false, true}) {
    Buffer b = sliced ? a.slice(10, kN - 10) : Buffer::copy_of(a.span());
    const size_t old = b.size();
    dirty_heap(3 * kN);
    b.resize(3 * kN);
    ASSERT_EQ(b.size(), 3 * kN);
    EXPECT_EQ(std::memcmp(b.data(), a.data() + (sliced ? 10 : 0), old), 0);
    for (size_t i = old; i < b.size(); i++) ASSERT_EQ(b[i], 0) << i;
  }
}

TEST(Buffer, UninitializedAllocationsGetUniqueGenerations) {
  const Buffer a = pattern(kN, 7);
  std::vector<Buffer> made;
  made.push_back(Buffer::uninitialized(kN));
  made.push_back(Buffer::copy_of(a.span()));
  made.push_back(Buffer::concat(a, a));
  Buffer detached = a.slice(1, 10);
  detached.mutable_data();
  made.push_back(detached);
  Buffer grown = a;
  grown.write_at(kN, a);
  made.push_back(grown);
  Buffer resized = a;
  resized.resize(2 * kN);
  made.push_back(resized);
  std::set<uint64_t> gens = {a.generation()};
  std::set<const void*> ids = {a.storage_id()};
  for (const Buffer& b : made) {
    EXPECT_NE(b.generation(), 0u);
    EXPECT_TRUE(gens.insert(b.generation()).second);
    EXPECT_TRUE(ids.insert(b.storage_id()).second);
  }
}

TEST(Buffer, LargeRandomRoundTrip) {
  Rng rng(99);
  Buffer b(1 << 16);
  rng.fill(b.mutable_data(), b.size());
  Buffer copy = b;
  Buffer slice = b.slice(1000, 5000);
  EXPECT_TRUE(copy.content_equals(b));
  EXPECT_EQ(slice.size(), 5000u);
  EXPECT_EQ(std::memcmp(slice.data(), b.data() + 1000, 5000), 0);
}

}  // namespace
}  // namespace gdedup
