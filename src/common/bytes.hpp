// Byte-array utilities: the transport boundary of the SMC is raw byte
// arrays (paper §III-D), so every protocol in this codebase serialises
// through the bounds-checked Writer/Reader defined here.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace amuse {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Error thrown when a Reader runs past the end of its buffer or a
/// length prefix is inconsistent. Wire-facing code catches this at the
/// packet boundary and drops the malformed datagram.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// The `N` bytes at `p` as a big-endian unsigned value. Unchecked: the
/// caller has bounds-checked `p`. The one big-endian load in the codebase.
template <std::size_t N>
[[nodiscard]] inline std::uint64_t load_be(const std::uint8_t* p) {
  static_assert(N >= 1 && N <= 8);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < N; ++i) v = (v << 8) | p[i];
  return v;
}

/// Writes the low `N` bytes of `v` at `p`, big-endian; returns `p + N`.
/// The one big-endian store in the codebase.
template <std::size_t N>
inline std::uint8_t* store_be(std::uint8_t* p, std::uint64_t v) {
  static_assert(N >= 1 && N <= 8);
  for (std::size_t i = 0; i < N; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * (N - 1 - i)));
  }
  return p + N;
}

/// Appends fixed-width integers (big-endian), length-prefixed strings and
/// blobs to a growing byte buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }
  /// Writes into `buffer` from its start, reusing its capacity; take() the
  /// result back.
  explicit Writer(Bytes&& buffer) : buf_(std::move(buffer)) { buf_.clear(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// 48-bit value, for ServiceId (paper §IV: 48-bit service IDs).
  void u48(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Raw bytes, no length prefix.
  void raw(BytesView v) { buf_.insert(buf_.end(), v.begin(), v.end()); }
  /// u16 length prefix + bytes. Throws std::length_error past 64 KiB.
  void blob16(BytesView v);
  /// u32 length prefix + bytes.
  void blob32(BytesView v);
  /// u16 length prefix + UTF-8 bytes.
  void str(std::string_view v);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const Bytes& bytes() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }

  /// Patches a previously written u16 at `pos` (used for frame lengths).
  void patch_u16(std::size_t pos, std::uint16_t v);

 private:
  Bytes buf_;
};

/// Bounds-checked big-endian reader over a byte view. All accessors throw
/// DecodeError instead of reading out of bounds. The fixed-width reads are
/// inline: a decoder makes several per attribute, and only the failure
/// path (building the error message) is out of line.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(be<1>()); }
  [[nodiscard]] std::uint16_t u16() {
    return static_cast<std::uint16_t>(be<2>());
  }
  [[nodiscard]] std::uint32_t u32() {
    return static_cast<std::uint32_t>(be<4>());
  }
  [[nodiscard]] std::uint64_t u64() { return be<8>(); }
  [[nodiscard]] std::uint64_t u48() { return be<6>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean() { return u8() != 0; }

  [[nodiscard]] BytesView raw(std::size_t n) {
    need(n);
    BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  [[nodiscard]] Bytes blob16();
  [[nodiscard]] Bytes blob32();
  [[nodiscard]] std::string str();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  void need(std::size_t n) const {
    if (n > data_.size() - pos_) truncated(n);
  }
  [[noreturn]] void truncated(std::size_t n) const;
  /// The next `N` bytes as a big-endian unsigned value.
  template <std::size_t N>
  std::uint64_t be() {
    need(N);
    std::uint64_t v = load_be<N>(data_.data() + pos_);
    pos_ += N;
    return v;
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

/// An immutable byte range that shares ownership of the buffer it lies in.
/// Copies and slices share the buffer, never its bytes; the buffer lives as
/// long as its last handle. A received frame's payload, the messages and
/// event bodies cut from it, and every fan-out link that queues a body all
/// hold one buffer (DESIGN.md §7).
class SharedBytes {
 public:
  SharedBytes() = default;
  /// Adopts `bytes` without copying them.
  explicit SharedBytes(Bytes bytes);
  SharedBytes(const SharedBytes&) = default;
  SharedBytes& operator=(const SharedBytes&) = default;
  /// Moving leaves the source empty.
  SharedBytes(SharedBytes&& other) noexcept { swap(other); }
  SharedBytes& operator=(SharedBytes&& other) noexcept {
    SharedBytes(std::move(other)).swap(*this);
    return *this;
  }
  void swap(SharedBytes& other) noexcept {
    owner_.swap(other.owner_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(adopted_, other.adopted_);
  }
  SharedBytes& operator=(Bytes bytes) {
    return *this = SharedBytes(std::move(bytes));
  }
  /// A fresh buffer holding a copy of `bytes`: one allocation, none when
  /// `bytes` is empty.
  [[nodiscard]] static SharedBytes copy_of(BytesView bytes);
  /// Views bytes that outlive every handle (static data); owns nothing.
  [[nodiscard]] static SharedBytes unowned(BytesView bytes);

  /// `part`, a sub-range of this range, sharing this buffer.
  [[nodiscard]] SharedBytes slice(BytesView part) const;

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const std::uint8_t* begin() const { return data_; }
  [[nodiscard]] const std::uint8_t* end() const { return data_ + size_; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return data_[i];
  }
  [[nodiscard]] BytesView view() const { return {data_, size_}; }
  void clear() { *this = SharedBytes(); }

  /// Byte equality.
  friend bool operator==(const SharedBytes& a, BytesView b) {
    return a.size_ == b.size() &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data(), a.size_) == 0);
  }

  /// Runs `f(Bytes&)` on a buffer only this handle holds, then views the
  /// result: the adopted buffer itself when this handle is its sole owner
  /// and covers all of it, else a fresh copy (copy-on-write).
  template <typename F>
  void edit(F&& f) {
    if (adopted_ == nullptr || owner_.use_count() != 1) {
      *this = SharedBytes(Bytes(begin(), end()));
    }
    f(*adopted_);
    data_ = adopted_->data();
    size_ = adopted_->size();
  }

 private:
  std::shared_ptr<const void> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  Bytes* adopted_ = nullptr;  // the owner, when it is an adopted Bytes
                              // this range covers
};

/// Convenience: copy a string's bytes into a Bytes value.
[[nodiscard]] Bytes to_bytes(std::string_view s);
/// Convenience: interpret bytes as text (for logging/tests).
[[nodiscard]] std::string to_string(BytesView b);
/// Hex dump, lowercase, no separators (for digests in tests/logs).
[[nodiscard]] std::string to_hex(BytesView b);

}  // namespace amuse
