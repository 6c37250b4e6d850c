// util::BufferSlice: ownership, aliasing and cross-thread release
// semantics the zero-copy media path depends on.
#include "util/buffer.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/bytes.h"

namespace psc {
namespace {

using util::BufferSlice;

Bytes seq_bytes(std::size_t n, std::uint8_t base = 0) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(base + i);
  }
  return b;
}

TEST(BufferSlice, AdoptedVectorIsReadableAndRefCounted) {
  BufferSlice s(seq_bytes(16));
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[15], 15);
  EXPECT_EQ(s.use_count(), 1u);
  BufferSlice t = s;
  EXPECT_EQ(s.use_count(), 2u);
  EXPECT_EQ(t.data(), s.data());  // shared, not copied
  t.reset();
  EXPECT_EQ(s.use_count(), 1u);
}

TEST(BufferSlice, EmptyAndMovedFromAreInert) {
  BufferSlice e;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.use_count(), 0u);
  BufferSlice s(seq_bytes(4));
  BufferSlice m = std::move(s);
  EXPECT_EQ(s.use_count(), 0u);  // NOLINT: deliberate use-after-move probe
  EXPECT_EQ(m.size(), 4u);
}

TEST(BufferSlice, SubsliceAliasesParentBlock) {
  BufferSlice s(seq_bytes(32));
  BufferSlice sub = s.subslice(8, 16);
  EXPECT_EQ(sub.size(), 16u);
  EXPECT_EQ(sub[0], 8);
  EXPECT_EQ(sub.data(), s.data() + 8);  // same block, no copy
  EXPECT_EQ(s.use_count(), 2u);

  // The parent can be dropped; the sub-slice keeps the block alive.
  s.reset();
  EXPECT_EQ(sub.use_count(), 1u);
  EXPECT_EQ(sub[15], 23);

  // Out-of-range requests clamp instead of overflowing.
  EXPECT_EQ(sub.subslice(100, 5).size(), 0u);
  EXPECT_EQ(sub.subslice(10, 100).size(), 6u);
}

TEST(BufferSlice, CopyOfDetachesFromSource) {
  Bytes src = seq_bytes(8);
  BufferSlice s = BufferSlice::copy_of(src);
  src[0] = 0xFF;
  EXPECT_EQ(s[0], 0);  // deep copy: source mutation invisible
}

TEST(BufferSlice, CrossThreadReleaseIsSafe) {
  // Shard handoff shape: slices created on one thread, retained and
  // released concurrently on four others. The creating thread lets go
  // first, so the last reference to most blocks drops on a worker.
  std::vector<BufferSlice> shared;
  for (int i = 0; i < 8; ++i) {
    shared.push_back(seq_bytes(128, static_cast<std::uint8_t>(i)));
  }
  const BufferSlice witness = shared[0].subslice(0, 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([held = shared]() mutable {
      for (int round = 0; round < 100; ++round) {
        for (std::size_t i = 0; i < held.size(); ++i) {
          BufferSlice local = held[i];  // retain
          EXPECT_EQ(local.size(), 128u);
          EXPECT_EQ(local[127], static_cast<std::uint8_t>(i + 127));
        }
      }
      held.clear();
    });
  }
  shared.clear();
  for (auto& th : threads) th.join();
  EXPECT_EQ(witness.use_count(), 1u);  // every retain was released
  EXPECT_EQ(witness[0], 0);
}

TEST(BufferSlice, EqualityComparesContents) {
  BufferSlice a(seq_bytes(8));
  BufferSlice b(seq_bytes(8));
  BufferSlice c(seq_bytes(9));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a == seq_bytes(8));
}

}  // namespace
}  // namespace psc
