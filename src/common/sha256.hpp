// SHA-256 and HMAC-SHA256, self-contained (FIPS 180-4 / RFC 2104).
//
// The discovery service admits devices using "authentication specific to the
// application" (paper §II-B). Our admission handshake is a challenge/response
// keyed on a pre-shared cell key; HMAC-SHA256 is the MAC. Implemented from
// scratch because the reproduction has no runtime dependencies.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace amuse {

using Digest256 = std::array<std::uint8_t, 32>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  /// Finalises and returns the digest; the object must be reset() before
  /// further use.
  [[nodiscard]] Digest256 finish();

  /// One-shot convenience.
  [[nodiscard]] static Digest256 hash(BytesView data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// HMAC-SHA256 per RFC 2104. Keys longer than the block size are hashed
/// first, shorter ones are zero-padded.
[[nodiscard]] Digest256 hmac_sha256(BytesView key, BytesView message);

/// HMAC-SHA256 under one key, keyed once: holds the inner and outer hash
/// states after their key blocks, so a MAC hashes only its message and
/// the inner digest. Equal to hmac_sha256() under the same key.
class HmacSha256 {
 public:
  explicit HmacSha256(BytesView key);

  /// The inner hash, keyed: update() it with the message, then finish().
  [[nodiscard]] Sha256 begin() const { return inner_; }
  [[nodiscard]] Digest256 finish(Sha256& inner) const;
  /// One-shot MAC of `message`.
  [[nodiscard]] Digest256 mac(BytesView message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// Constant-time digest comparison (avoids timing side channels in the
/// admission handshake).
[[nodiscard]] bool digest_equal(const Digest256& a, const Digest256& b);

}  // namespace amuse
