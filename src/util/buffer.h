// Ref-counted immutable byte buffers.
//
// The media path produces each segment / RTMP chunk batch exactly once and
// then fans it out to many consumers (origin backlog, edge cache, link
// queues, client capture, reconstructor). BufferSlice gives every hop a
// cheap view — shared ownership of one block plus an (offset, length)
// window — so wall-clock and allocator pressure scale with *segments*,
// not *viewers × segment bytes*. The last slice to drop a block deletes
// it.
//
// Thread-safety: the refcount is atomic, so slices may be copied and
// dropped from any thread; everything else about a slice is immutable
// after construction.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace psc::util {

namespace detail {

struct BufferBlock {
  std::atomic<std::uint32_t> refs{1};
  Bytes data;
};

}  // namespace detail

/// Immutable shared view of a byte range. Copying a slice bumps a
/// refcount; the underlying block is freed when the last slice
/// referencing it is dropped.
class BufferSlice {
 public:
  BufferSlice() = default;

  /// Adopt an owned vector. Implicit so call sites that used to hand a
  /// Bytes by value keep working; the vector is moved, never copied.
  BufferSlice(Bytes&& data)  // NOLINT: intentional implicit adoption
      : BufferSlice(data.empty() ? nullptr : adopt_block(std::move(data))) {}

  /// Deep-copy a view into a fresh block.
  static BufferSlice copy_of(BytesView data) {
    return BufferSlice(Bytes(data.begin(), data.end()));
  }

  BufferSlice(const BufferSlice& other) noexcept
      : b_(other.b_), off_(other.off_), len_(other.len_) {
    if (b_ != nullptr) b_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  BufferSlice(BufferSlice&& other) noexcept
      : b_(other.b_), off_(other.off_), len_(other.len_) {
    other.b_ = nullptr;
    other.off_ = other.len_ = 0;
  }
  BufferSlice& operator=(const BufferSlice& other) noexcept {
    BufferSlice tmp(other);
    swap(tmp);
    return *this;
  }
  BufferSlice& operator=(BufferSlice&& other) noexcept {
    if (this != &other) {
      reset();
      b_ = other.b_;
      off_ = other.off_;
      len_ = other.len_;
      other.b_ = nullptr;
      other.off_ = other.len_ = 0;
    }
    return *this;
  }
  ~BufferSlice() { reset(); }

  void swap(BufferSlice& other) noexcept {
    std::swap(b_, other.b_);
    std::swap(off_, other.off_);
    std::swap(len_, other.len_);
  }

  void reset() {
    if (b_ != nullptr &&
        b_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete b_;
    }
    b_ = nullptr;
    off_ = len_ = 0;
  }

  const std::uint8_t* data() const {
    return b_ == nullptr ? nullptr : b_->data.data() + off_;
  }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }

  BytesView view() const { return BytesView(data(), len_); }
  operator BytesView() const { return view(); }  // NOLINT: by design

  /// Aliasing sub-view sharing the same block (refcount bump, no copy).
  BufferSlice subslice(std::size_t off, std::size_t len) const {
    if (off > len_) off = len_;
    if (len > len_ - off) len = len_ - off;
    BufferSlice s(*this);
    s.off_ += off;
    s.len_ = len;
    return s;
  }

  /// Materialise an owned vector (for callers that genuinely need one).
  Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// Number of slices currently sharing this block (diagnostic).
  std::uint32_t use_count() const {
    return b_ == nullptr ? 0 : b_->refs.load(std::memory_order_relaxed);
  }

 private:
  explicit BufferSlice(detail::BufferBlock* b)
      : b_(b), off_(0), len_(b == nullptr ? 0 : b->data.size()) {}

  static detail::BufferBlock* adopt_block(Bytes&& data);

  detail::BufferBlock* b_ = nullptr;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

inline bool operator==(const BufferSlice& a, const BufferSlice& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}
inline bool operator==(const BufferSlice& a, const Bytes& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}
inline bool operator==(const Bytes& a, const BufferSlice& b) { return b == a; }

}  // namespace psc::util
